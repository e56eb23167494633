"""Strip-bounded enumeration and the linear-algebra route.

Paths live in the strip 0 <= level <= h.  Left-to-right (LR) paths step
+1 or -1,-3,-5,...; right-to-left (RL) paths are the reversal: +1,+3,+5,...
and -1.  Generating functions for fixed h come from Cramer's rule over the
banded system matrix, and the unbounded limit is obtained by pushing the
barrier high enough that the truncated series stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .errors import ConsistencyError
from .series import IntPoly, ZSeries


class Direction(Enum):
    LR = "lr"
    RL = "rl"


@dataclass(frozen=True)
class CountTable:
    """Triangle of path counts by (length, end level)."""

    direction: Direction
    height: Optional[int]  # None = unbounded
    rows: tuple[tuple[int, ...], ...]

    def count(self, n: int, k: int) -> int:
        if not 0 <= n < len(self.rows):
            raise IndexError(f"row {n} out of range")
        row = self.rows[n]
        return row[k] if 0 <= k < len(row) else 0


def dp_counts(direction: Direction, n_max: int, height: Optional[int] = None) -> CountTable:
    """Exact counts of paths from (0,0) to (n,k) staying within [0, h].

    Unbounded LR paths never exceed level n_max, but unbounded RL paths may
    overshoot the reported levels and come back with -1 steps, so the RL
    recursion runs on a ladder up to 2*n_max (a path ending at k <= n never
    exceeds k + n).  LR row n keeps levels 0..min(n, h); RL rows from n = 1
    on keep levels 0..h in a strip (0..n_max unbounded), since a single
    up-step reaches any odd level.

    An LR cell is c_n(k) = c_{n-1}(k-1) + S(k+1), where S(j) = c_{n-1}(j) +
    S(j+2) is a running suffix sum over one parity class of the ladder, so a
    row costs O(ladder) and the table O(n_max * ladder).  RL steps are the
    mirror image of LR steps (level k <-> ladder - k), so RL runs the same row
    update on the mirrored ladder, and its suffix sums are prefix sums.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if height is not None and height < 0:
        raise ValueError("height must be nonnegative")
    if direction is Direction.LR:
        ladder = n_max if height is None else min(height, n_max)
        report = n_max if height is None else min(height, n_max)
    else:
        # one up-step reaches any level <= h, so a bounded RL strip needs the
        # full ladder; the unbounded table is complete for levels <= n_max
        ladder = 2 * n_max if height is None else height
        report = n_max if height is None else height
    mirror = direction is Direction.RL
    prev = [0] * (ladder + 1)
    prev[ladder if mirror else 0] = 1
    rows = [(1,)]
    for n in range(1, n_max + 1):
        cur = [0] * (ladder + 1)
        # suffix sums of prev above level k, over the parity class of k
        # (same) and over the other class (other)
        other = same = 0
        for k in range(ladder, 0, -1):
            cur[k] = prev[k - 1] + other
            other, same = same + prev[k], other
        cur[0] = other
        prev = cur
        width = (report if mirror else min(n, report)) + 1
        rows.append(tuple(cur[ladder::-1][:width] if mirror else cur[:width]))
    return CountTable(direction, height, tuple(rows))


# ---------------------------------------------------------------------------
# the auxiliary coefficient sequences and the Cramer quotients
# ---------------------------------------------------------------------------

def _three_term(init: tuple[ZSeries, ZSeries, ZSeries], step) -> Iterator[ZSeries]:
    """Yield u_0, u_1, ... of u_k = step(u_{k-3}, u_{k-2}, u_{k-1}) with
    u_0, u_1, u_2 = init, holding only the last three terms; a term is
    computed when it is asked for."""
    u3, u2, u1 = init
    yield u3
    yield u2
    while True:
        yield u1
        u3, u2, u1 = u2, u1, step(u3, u2, u1)


def _sequence(name: str, order: int) -> Iterator[ZSeries]:
    """The stream of a_n ("a"), b_n ("b") or d_m ("d").  d keeps its own
    initial terms, so d_m == a_{m+1} is a real check, not an identity."""
    one, zero = ZSeries.one(order), ZSeries.zero(order)
    if name == "b":
        return _three_term((one, zero, one), lambda u3, u2, u1: u2 + u3.shift(1))
    init = (one, one, one) if name == "a" else (one, one, one - ZSeries.monomial(2, order))
    return _three_term(init, lambda u3, u2, u1: u1 - u3.shift(2))


def _terms(wanted: set[tuple[str, int]], order: int) -> dict[tuple[str, int], ZSeries]:
    """The sequence terms in `wanted`, as (name, index) pairs with index >= 0,
    from one streaming pass per sequence that keeps only the wanted terms."""
    out = {}
    for name in {name for name, _ in wanted}:
        indices = {j for nm, j in wanted if nm == name}
        for j, term in zip(range(max(indices) + 1), _sequence(name, order)):
            if j in indices:
                out[name, j] = term
    return out


def _numerator(direction: Direction, level: int, m: int) -> list[tuple[int, tuple]]:
    """Cramer's numerator for `level` in the m x m system, as a sum of terms
    (p, factors), each z^p times the product of the sequence terms in
    factors ((name, index) pairs); terms with a negative index are zero.

    LR: z^k d_{m-1-k}.  RL, column q = level + 1 replaced by e_1: d_{m-1} for
    q = 1, z (b_{m-2} + z b_{m-3}) for q = m, and otherwise
    z a_{m-q}(b_{q-2} + z b_{q-3}) + z^2 a_{m-q-1}(b_{q-3} + z b_{q-4}),
    expanded with the sparse b factor first (a product costs its left
    factor's nonzero terms times the order).
    """
    if direction is Direction.LR:
        parts = [(level, (("d", m - 1 - level),))]
    elif level == 0:
        parts = [(0, (("d", m - 1),))]
    elif level == m - 1:
        parts = [(1, (("b", m - 2),)), (2, (("b", m - 3),))]
    else:
        q = level + 1
        parts = [
            (1, (("b", q - 2), ("a", m - q))),
            (2, (("b", q - 3), ("a", m - q))),
            (2, (("b", q - 3), ("a", m - q - 1))),
            (3, (("b", q - 4), ("a", m - q - 1))),
        ]
    return [(p, fs) for p, fs in parts if all(j >= 0 for _, j in fs)]


def _evaluate(numerator: list[tuple[int, tuple]], terms: dict, order: int) -> ZSeries:
    """Sum a numerator from `_numerator` over the sequence terms in `terms`."""
    total = ZSeries.zero(order)
    for p, factors in numerator:
        prod = terms[factors[0]]
        for factor in factors[1:]:
            prod = prod * terms[factor]
        total = total + prod.shift(p)
    return total


def _cramer(direction: Direction, level: int, barriers: tuple[int, ...], order: int) -> list[ZSeries]:
    """The Cramer quotients numerator / d_{h+1} of `level` at each barrier h,
    with every sequence term they need taken from one pass per sequence."""
    numerators = [_numerator(direction, level, h + 1) for h in barriers]
    wanted = {f for num in numerators for _, fs in num for f in fs}
    terms = _terms(wanted | {("d", h + 1) for h in barriers}, order)
    return [
        _evaluate(num, terms, order) / terms["d", h + 1]
        for num, h in zip(numerators, barriers)
    ]


def seq_a(n: int, order: int) -> ZSeries:
    """Coefficient of X^n in 1/(1 - X + z^2 X^3); zero series for n < 0."""
    if n < 0:
        return ZSeries.zero(order)
    return _terms({("a", n)}, order)["a", n]


def seq_b(n: int, order: int) -> ZSeries:
    """Coefficient of Y^n in 1/(1 - Y^2 - z Y^3); zero series for n < 0."""
    if n < 0:
        return ZSeries.zero(order)
    return _terms({("b", n)}, order)["b", n]


def det_d(m: int, order: int) -> ZSeries:
    """Determinant of the m x m system matrix: d_m = d_{m-1} - z^2 d_{m-3}."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _terms({("d", m)}, order)["d", m]


def delta(m: int, q: int, order: int) -> ZSeries:
    """Cramer numerator for the RL system: column q replaced by e_1.

    The q = m case is z*(b_{m-2} + z b_{m-3}); the product form for
    2 <= q < m is z a_{m-q}(b_{q-2} + z b_{q-3}) + z^2 a_{m-q-1}(b_{q-3} + z b_{q-4}).
    """
    if not 1 <= q <= m:
        raise ValueError(f"need 1 <= q <= m, got q={q}, m={m}")
    numerator = _numerator(Direction.RL, q - 1, m)
    return _evaluate(numerator, _terms({f for _, fs in numerator for f in fs}, order), order)


# ---------------------------------------------------------------------------
# direct determinants over Z[z] (independent oracle)
# ---------------------------------------------------------------------------

def _system_matrix(direction: Direction, m: int) -> list[list[IntPoly]]:
    """The m x m system matrix over Z[z].  LR has 1 on the diagonal, -z on
    the subdiagonal and at every odd offset above the diagonal; RL is its
    transpose."""
    one = IntPoly((1,))
    mz = IntPoly((0, -1))
    zero = IntPoly()
    mat = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == j:
                row.append(one)
            elif j == i - 1 or (j > i and (j - i) % 2 == 1):
                row.append(mz)
            else:
                row.append(zero)
        mat.append(row)
    if direction is Direction.RL:
        mat = [list(row) for row in zip(*mat)]
    return mat


def det_direct(m: int, order: int, q: Optional[int] = None) -> ZSeries:
    """Determinant by fraction-free (Bareiss) elimination over Z[z].

    With q=None this is the LR matrix (checks det_d); with 1 <= q <= m it is
    the transposed (RL) matrix with column q replaced by e_1 (checks delta).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return ZSeries.one(order)
    if q is not None and not 1 <= q <= m:
        raise ValueError(f"need 1 <= q <= m, got q={q}")
    mat = _system_matrix(Direction.LR if q is None else Direction.RL, m)
    if q is not None:
        for i in range(m):
            mat[i][q - 1] = IntPoly((1,)) if i == 0 else IntPoly()
    sign = 1
    prev = IntPoly((1,))
    for r in range(m - 1):
        if mat[r][r].is_zero():
            swap = next((i for i in range(r + 1, m) if not mat[i][r].is_zero()), None)
            if swap is None:
                return ZSeries.zero(order)
            mat[r], mat[swap] = mat[swap], mat[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(r + 1, m):
                num = mat[i][j] * mat[r][r] - mat[i][r] * mat[r][j]
                quot, rem = num.divmod_by(prev)
                if not rem.is_zero():
                    raise ConsistencyError("Bareiss division was not exact")
                mat[i][j] = quot
            mat[i][r] = IntPoly()
        prev = mat[r][r]
    det = mat[m - 1][m - 1].scale(sign)
    return ZSeries(tuple(det[k] for k in range(order + 1)))


# ---------------------------------------------------------------------------
# bounded generating functions and the stabilized limit
# ---------------------------------------------------------------------------

def bounded_f(k: int, h: int, order: int) -> ZSeries:
    """LR paths in [0,h] ending at level k: f_k = z^k d_{h-k} / d_{h+1}."""
    if not 0 <= k <= h:
        raise ValueError(f"level {k} exceeds barrier {h}")
    return _cramer(Direction.LR, k, (h,), order)[0]


def bounded_g(i: int, h: int, order: int) -> ZSeries:
    """RL paths in [0,h] ending at level i: g_i = Delta_{h+1,i+1} / d_{h+1}."""
    if not 0 <= i <= h:
        raise ValueError(f"level {i} exceeds barrier {h}")
    return _cramer(Direction.RL, i, (h,), order)[0]


def stabilized(direction: Direction, level: int, order: int) -> ZSeries:
    """The h -> infinity limit, realized at a finite certifying barrier.

    Uses h = order + level + 2 and re-checks at h + 1; the two must agree
    bit for bit.  Both quotients take their sequence terms from one pass over
    the d recurrence (and, for RL, one over a), which holds three live terms
    plus the ones the two quotients use.
    """
    if level < 0 or order < 0:
        raise ValueError("level and order must be nonnegative")
    h = order + level + 2
    first, second = _cramer(direction, level, (h, h + 1), order)
    if first != second:
        raise ConsistencyError(
            f"series at barrier {h} and {h + 1} differ; stabilization bound is wrong"
        )
    return first


def solve_system(direction: Direction, h: int, order: int) -> list[ZSeries]:
    """Solve the (h+1)x(h+1) banded system directly over truncated series.

    Returns the full vector (f_0..f_h) or (g_0..g_h); every pivot has
    constant term 1, so elimination never leaves the integers.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    m = h + 1
    polys = _system_matrix(direction, m)
    mat = [[ZSeries(tuple(p[k] for k in range(order + 1))) for p in row] for row in polys]
    rhs = [ZSeries.one(order)] + [ZSeries.zero(order)] * (m - 1)

    for r in range(m):
        if mat[r][r].coeffs[0] not in (1, -1):
            raise ConsistencyError("elimination pivot lost its unit constant term")
        pinv = mat[r][r].inverse()
        mat[r] = [e * pinv for e in mat[r]]
        rhs[r] = rhs[r] * pinv
        for i in range(r + 1, m):
            factor = mat[i][r]
            if factor.is_zero():
                continue
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
            rhs[i] = rhs[i] - factor * rhs[r]
    sol = [ZSeries.zero(order)] * m
    for i in range(m - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, m):
            if not mat[i][j].is_zero():
                acc = acc - mat[i][j] * sol[j]
        sol[i] = acc
    return sol
