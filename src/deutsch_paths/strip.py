"""Strip-bounded enumeration and the linear-algebra route.

Paths live in the strip 0 <= level <= h.  Left-to-right (LR) paths step
+1 or -1,-3,-5,...; right-to-left (RL) paths are the reversal: +1,+3,+5,...
and -1.  Generating functions for fixed h come from Cramer's rule over the
banded system matrix; the unbounded limit up to z^order is the quotient at
the barrier h = order + level, which `stabilized` proves exact.

The Cramer route computes in x = z^2: the determinants d_m and the terms
a_n are polynomials in x, and b_n is z^(n mod 2) times one, so every
quotient is z^(level mod 2) times a series in x.  `_numerator` takes each
term it needs from that term's binomial sum (`_term`), whatever the
barrier, and returns the numerator's coefficient list in x: one shifted d
term for LR, at most two products for RL (b_n = b_{n-2} + z b_{n-3} folds
the cofactor expansion's four).  `_cramer` divides it by d_{h+1} and
builds one ZSeries at the end; the recurrences (`_sequence`) serve
`sequence_terms`.  The banded solve computes on coefficient lists in z
too, and the direct determinants on integers: a ZSeries, the tuple of a
series' coefficients up to its order, is only the value a route returns.
A DP table is a `CountTable`, a named tuple (direction, height, rows)
with its `count` lookup.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import partial
from itertools import count
from math import comb, prod
from typing import Callable, ContextManager, Iterator, Optional, Sequence

from .errors import ConsistencyError
from .series import ZSeries, divide, place, poly_mul, shifted_sum


# a lifted dp_rows turns Decimal once a row sums past this (about 200 digits)
LIFT_BOUND = 10**200


class Direction(Enum):
    LR = "lr"
    RL = "rl"


class CountTable(namedtuple("CountTable", "direction height rows")):
    """Triangle of path counts by (length, end level): `height` None is
    unbounded, and `direction` is a Direction or its value."""

    __slots__ = ()

    def __new__(cls, direction: Direction | str, height: Optional[int],
                rows: tuple[tuple[int, ...], ...]) -> "CountTable":
        return super().__new__(cls, Direction(direction), height, rows)

    def count(self, n: int, k: int) -> int:
        """Paths of length n ending at level k; 0 above a row's end, except
        that an unbounded RL table never computed levels above n_max."""
        if not 0 <= n < len(self.rows):
            raise IndexError(f"row {n} out of range")
        if self.direction is Direction.RL and self.height is None and k >= len(self.rows):
            raise IndexError(f"level {k} beyond the computed levels 0..{len(self.rows) - 1}")
        row = self.rows[n]
        return row[k] if 0 <= k < len(row) else 0


def dp_counts(direction: Direction | str, n_max: int, height: Optional[int] = None) -> CountTable:
    """Exact counts of paths from (0,0) to (n,k) staying within [0, h]: the
    int rows of `dp_rows`, kept as one table."""
    direction = Direction(direction)
    return CountTable(direction, height, tuple(dp_rows(direction, n_max, height)))


def dp_rows(
    direction: Direction | str, n_max: int, height: Optional[int] = None, lift: bool = False
) -> Iterator[tuple[int, ...]]:
    """Row n = 0..n_max of the path counts from (0,0) to (n,k) within
    [0, h], yielded one at a time: the generator holds O(ladder) cells,
    whatever n_max is.  The arguments are checked at the call, before the
    first row is asked for; `direction` is a Direction or its value.

    Unbounded LR paths never exceed level n_max, but unbounded RL paths may
    overshoot the reported levels and come back with -1 steps, so the RL
    recursion runs on a ladder up to 2*n_max (a path of length n ending at
    k never exceeds k + n: the lemma in `stabilized`).  LR row n keeps
    levels 0..min(n, h); RL rows from n = 1 on keep levels 0..h in a strip
    (0..n_max unbounded), since a single up-step reaches any odd level.

    An LR cell is c_n(k) = c_{n-1}(k-1) + S(k+1), where S(j) = c_{n-1}(j) +
    S(j+2) is a running suffix sum over one parity class of the ladder, so a
    row costs O(ladder) and the table O(n_max * ladder).  RL steps are the
    mirror image of LR steps (level k <-> ladder - k), so RL runs the same row
    update on the mirrored ladder, and its suffix sums are prefix sums.

    With `lift`, the working row becomes exact `decimal.Decimal`s at the
    first row whose predecessor, but for its ladder cell 0, sums past
    LIFT_BOUND (the two suffix sums a row update ends with), and every later
    cell is a Decimal sum: the rows from there on hold Decimals, equal to
    the ints they stand for.  That is for rendering: CPython's int-to-str is
    quadratic in the digit count and Decimal's str is linear, while smaller
    ints add faster than Decimals.  This is the one place that knows a
    row's number type: a caller renders every cell by its str.  Each row
    update runs in a context of this function's own, exact at any size,
    never in the caller's; it is entered for that update only, so the
    caller's context is its own between rows.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if height is not None and height < 0:
        raise ValueError("height must be nonnegative")
    direction = Direction(direction)
    if direction is Direction.LR:
        ladder = n_max if height is None else min(height, n_max)
        report = n_max if height is None else min(height, n_max)
    else:
        # one up-step reaches any level <= h, so a bounded RL strip needs the
        # full ladder; the unbounded table is complete for levels <= n_max
        ladder = 2 * n_max if height is None else height
        report = n_max if height is None else height
    return _rows(direction is Direction.RL, n_max, ladder, report, lift)


def _rows(
    mirror: bool, n_max: int, ladder: int, report: int, lift: bool
) -> Iterator[tuple[int, ...]]:
    """`dp_rows`'s loop, on checked arguments."""
    prev = [0] * (ladder + 1)
    prev[ladder if mirror else 0] = 1
    yield (1,)
    exact = None  # the context a row update runs in: none until the lift
    for n in range(1, n_max + 1):
        if exact is None:
            cur, total = _next_row(prev)
        else:
            with exact():
                cur, total = _next_row(prev)
        if lift and total > LIFT_BOUND:
            cur, exact = _lift(cur)
            lift = False
        prev = cur
        width = (report if mirror else min(n, report)) + 1
        yield tuple(cur[ladder::-1][:width] if mirror else cur[:width])


def _next_row(prev: list[int]) -> tuple[list[int], int]:
    """The row after `prev` on the LR ladder, and the sum of `prev` but for
    its cell 0 (the two suffix sums the update ends with)."""
    ladder = len(prev) - 1
    cur = [0] * (ladder + 1)
    # suffix sums of prev above level k, over the parity class of k (same)
    # and over the other class (other)
    other = same = 0
    for k in range(ladder, 0, -1):
        cur[k] = prev[k - 1] + other
        other, same = same + prev[k], other
    cur[0] = other
    return cur, other + same


def _lift(row: list[int]) -> tuple[list, Callable[[], ContextManager]]:
    """`row` as Decimals, and a factory of the exact Decimal context the
    additions that follow run in.  decimal is imported here, on the one path
    that needs it."""
    import decimal

    context = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
    )
    return [decimal.Decimal(v) for v in row], partial(decimal.localcontext, context)


# ---------------------------------------------------------------------------
# the auxiliary coefficient sequences and the Cramer quotients, in x = z^2
# ---------------------------------------------------------------------------

def _sequence(name: str, cap: int) -> Iterator[list[int]]:
    """The stream of a_n ("a"), beta_n ("b") or d_m ("d") as coefficient
    lists in x = z^2, truncated at x^cap (cap >= 0), holding only the last
    three terms; a term is computed when it is asked for.

    a_n and d_m are polynomials in x: u_n = u_{n-1} - x u_{n-3}.  d keeps its
    own initial terms 1, 1, 1 - x, so d_m == a_{m+1} is a real check, not an
    identity.  b_n = z^(n mod 2) beta_n(x), so b never mixes parities:
    beta_0, beta_1, beta_2 = 1, 0, 1 and beta_n = beta_{n-2} + x^[n even]
    beta_{n-3}.  The stream is endless: each consumer zips it with a range.
    """
    inits = {"a": ([1], [1], [1]), "b": ([1], [], [1]), "d": ([1], [1], [1, -1][: cap + 1])}
    u3, u2, u1 = inits[name]
    beta = name == "b"
    yield u3
    yield u2
    for n in count(3):
        yield u1
        u, shift, sign = (u2, 1 - n % 2, 1) if beta else (u1, 1, -1)
        u3, u2, u1 = u2, u1, shifted_sum(u, u3, shift, sign, cap)


def _term(name: str, n: int, cap: int) -> list[int]:
    """Term n >= 0 of a_n ("a"), beta_n ("b") or d_m ("d") as a coefficient
    list in x = z^2, truncated at x^cap and trimmed to its true length, by
    its binomial sum instead of the recurrence that leads up to it.

    [x^j] a_n = (-1)^j C(n - 2j, j), from 1/(1 - X + x X^3), and
    d_m = a_{m+1}.  From 1/(1 - Y^2 - z Y^3), b_n is the sum over
    2i + 3j = n of C(i + j, j) z^j, so [x^e] beta_n = C((n - 3j)/2 + j, j)
    with j = 2e + (n mod 2), while n - 3j >= 0.  Each is C(top, bottom)
    on a walk that moves (top, bottom) by (-2, +1) for a and by (-1, +2)
    for beta: one `comb`, then per coefficient one exact multiply-divide by
    the ratio of neighbouring binomials, its remainder checked.  Every
    binomial on the walk is positive, so no coefficient in the window is
    zero.  O(min(cap, n/3)) steps, whatever the barrier.
    """
    if name == "b":
        bottom = n % 2
        top, dtop, sign = (n - bottom) // 2, 1, 1
    else:
        top, bottom, dtop, sign = n + (name == "d"), 0, 2, -1
    size = min(cap, (top - bottom) // 3) + 1  # top - bottom = n - 3j
    if size <= 0:
        return []
    c = comb(top, bottom)
    out = [c]
    for _ in range(size - 1):
        r = top - bottom
        # C(top - dtop, bottom + 3 - dtop) = C(top, bottom) r (r-1) (r-2) / den;
        # sign -1 alternates a's coefficients
        den = top * (top - 1 if dtop == 2 else bottom + 2) * (bottom + 1)
        c, rem = divmod(c * (sign * r * (r - 1) * (r - 2)), den)
        if rem:
            raise ConsistencyError(f"{name}_{n}: a binomial ratio left remainder {rem}")
        out.append(c)
        top, bottom = top - dtop, bottom + 3 - dtop
    return out


def _cap(order: int, parity: int) -> int:
    """The top power of x a series of this parity needs up to z^order; at
    least 0, so the determinants keep their constant term.  Every Cramer
    route asks for it before any work, so it rejects a negative order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return max(order - parity, 0) // 2


def _numerator(direction: Direction, level: int, m: int, cap: int) -> list[int]:
    """Cramer's numerator for `level` in the m x m system over z^(level
    mod 2), as a coefficient list in x padded to x^cap, with each sequence
    term it needs taken from one binomial walk (`_term`).

    LR: z^k d_{m-1-k}, and d_{m-1} for RL level 0 too.  RL, column q =
    level + 1 replaced by e_1: z b_q a_{m-q} + z^2 b_{q-1} a_{m-q-1} (see
    `delta`), which is x^(q mod 2) beta_q a_{m-q} + x beta_{q-1} a_{m-q-1}
    over z^(level mod 2); for q = m, a_0 = 1 and a_{-1} = 0, so that
    product is skipped.  beta comes first in each product, which costs its
    left factor's nonzero terms times the length of the right one.
    """
    if direction is Direction.LR or level == 0:
        total = shifted_sum([], _term("d", m - 1 - level, cap), level // 2, 1, cap)
    else:
        q = level + 1
        total = []
        for s, b, a in ((q % 2, q, m - q), (1, q - 1, m - q - 1)):
            if a >= 0:
                product = poly_mul(_term("b", b, cap), _term("a", a, cap), cap - s)
                total = shifted_sum(total, product, s, 1, cap)
    return total + [0] * (cap + 1 - len(total))


def _cramer(direction: Direction, level: int, h: int, order: int,
            known: Sequence[int] = ()) -> ZSeries:
    """The Cramer quotient numerator / d_{h+1} of `level` at barrier h, with
    every sequence term it needs taken from one binomial walk (`_term`), so
    its cost does not grow with h.  The quotient is z^(level mod 2) times a
    series in x, divided in x, resuming from `known`, its first
    coefficients in x (`divide`)."""
    parity = level % 2
    cap = _cap(order, parity)
    den = _term("d", h + 1, cap)
    if den[0] != 1:
        raise ConsistencyError(f"d_{h + 1} has constant term {den[0]}, not 1")
    return place(divide(_numerator(direction, level, h + 1, cap), den, known), order, parity, 2)


def sequence_terms(name: str, n: int, order: int) -> list[ZSeries]:
    """Terms 0..n of a_n ("a"), b_n ("b", z^(n mod 2) beta_n) or d_m ("d")
    as z-series, from one pass over the sequence's recurrence: O(n) steps,
    where asking `seq_a`, `seq_b` or `det_d` for each index restarts the
    stream every time.  Empty for n < 0."""
    if name not in ("a", "b", "d"):
        raise ValueError(f"unknown sequence {name!r}")
    # the even cap keeps every term exact up to z^order; an odd b term may
    # need one coefficient less, which `place` drops
    terms = zip(range(n + 1), _sequence(name, _cap(order, 0)))
    return [place(u, order, j % 2 if name == "b" else 0, 2) for j, u in terms]


def seq_a(n: int, order: int) -> ZSeries:
    """Coefficient of X^n in 1/(1 - X + z^2 X^3); zero series for n < 0."""
    terms = sequence_terms("a", n, order)  # empty for n < 0
    return terms[n] if n >= 0 else ZSeries.zero(order)


def seq_b(n: int, order: int) -> ZSeries:
    """Coefficient of Y^n in 1/(1 - Y^2 - z Y^3); zero series for n < 0."""
    terms = sequence_terms("b", n, order)  # empty for n < 0
    return terms[n] if n >= 0 else ZSeries.zero(order)


def det_d(m: int, order: int) -> ZSeries:
    """Determinant of the m x m system matrix: d_m = d_{m-1} - z^2 d_{m-3}."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return sequence_terms("d", m, order)[m]


def delta(m: int, q: int, order: int) -> ZSeries:
    """Cramer numerator for the RL system: column q replaced by e_1.

    d_{m-1} for q = 1, and z b_q a_{m-q} + z^2 b_{q-1} a_{m-q-1} for
    2 <= q <= m (a_{-1} = 0).  Cofactor expansion gives
    z a_{m-q}(b_{q-2} + z b_{q-3}) + z^2 a_{m-q-1}(b_{q-3} + z b_{q-4}), and
    each bracket is one b term: b_n is the coefficient of Y^n in
    1/(1 - Y^2 - z Y^3), so b_n = b_{n-2} + z b_{n-3} for n >= 1.
    """
    if not 1 <= q <= m:
        raise ValueError(f"need 1 <= q <= m, got q={q}, m={m}")
    parity = (q - 1) % 2
    return place(_numerator(Direction.RL, q - 1, m, _cap(order, parity)), order, parity, 2)


# ---------------------------------------------------------------------------
# direct determinants over Z[z] (independent oracle)
# ---------------------------------------------------------------------------

def _system_matrix(direction: Direction, m: int) -> list[list[tuple[int, ...]]]:
    """The m x m system matrix over Z[z], as coefficient tuples.  LR has 1 on
    the diagonal, -z on the subdiagonal and at every odd offset above the
    diagonal; RL is its transpose."""
    lr = [[(1,) if i == j else (0, -1) if j == i - 1 or (j > i and (j - i) % 2 == 1) else ()
           for j in range(m)] for i in range(m)]
    return lr if direction is Direction.LR else [list(row) for row in zip(*lr)]


def _bareiss(mat: list[list], rhs: list) -> tuple[list[int], list[list[int]]]:
    """det(mat) and adj(mat) rhs, for a square matrix over Z[z] and a column
    of as many entries (coefficient lists, lowest power first), as trimmed
    lists, by one fraction-free Gauss-Jordan elimination of mat augmented by
    rhs, on the entries' integer values at z = 2^B.  Entry q of adj(mat) rhs
    is det(mat) x_q where mat x = rhs: the determinant with column q
    replaced by rhs (Cramer's rule).

    Step r sets each entry right of the pivot, in every other row, to
    (a p - b c) / prev, with p the pivot, b and c the entries in its column
    and row, and prev the previous pivot; Sylvester's identity makes the
    division exact, and its remainder is checked.  The rows below the pivot
    are Bareiss's, so pivot r is the leading (r+1)-minor: the determinant
    is the last pivot, prev, and the augmented column ends as adj(mat) rhs.
    The empty matrix leaves prev = 1, so its determinant is [1] and its
    column [].

    Each result's absolute coefficients sum to at most the product over
    rows of each row's absolute coefficient sum, rhs entry included (expand
    it over permutations); B is one bit longer than that product, so every
    coefficient is a balanced base-2^B digit of the integer result.  Its
    degree is at most the sum of each row's largest entry degree, which
    bounds the digit loop; a digit left over (B too small) is a
    ConsistencyError.

    No row is swapped: a zero pivot is a ConsistencyError, never a wrong
    result, and on the system matrices no pivot is zero.  Their entries
    depend only on (i, j) (`_system_matrix`), so the leading r x r block of
    an m x m system matrix is the r x r system matrix, for LR and for RL,
    its transpose.  At z = 0 that matrix is the identity, so the leading
    minor has constant term 1: it is a nonzero polynomial.  Every row holds
    its diagonal 1, so no row sum is 0, and the minor's coefficients obey
    the bound on B as well (its rows' sums are at most the whole rows').  A
    nonzero polynomial whose coefficients B bounds has a nonzero value at
    2^B, and that value is the pivot.
    """
    mat = [[*row, e] for row, e in zip(mat, rhs, strict=True)]
    degree = sum(max(len(e) for e in row) - 1 for row in mat)
    bits = prod(sum(abs(c) for e in row for c in e) for row in mat).bit_length() + 1
    mat = [[sum(c << (bits * k) for k, c in enumerate(e)) for e in row] for row in mat]
    prev = 1
    for r, pivot_row in enumerate(mat):
        pivot = pivot_row[r]
        if not pivot:
            raise ConsistencyError(f"Bareiss pivot {r} is zero")
        for row in mat[:r] + mat[r + 1:]:
            b = row[r]
            for j in range(r + 1, len(row)):
                row[j], rem = divmod(row[j] * pivot - b * pivot_row[j], prev)
                if rem:
                    raise ConsistencyError("Bareiss division was not exact")
        prev = pivot
    half = 1 << (bits - 1)
    polys = []
    for value in [prev, *(row[-1] for row in mat)]:
        coeffs = []
        while value and len(coeffs) <= degree:
            value, digit = divmod(value + half, 2 * half)
            coeffs.append(digit - half)
        if value:
            raise ConsistencyError(f"Bareiss determinant has more than {degree + 1} digits")
        polys.append(coeffs)
    return polys[0], polys[1:]


def det_direct(m: int, order: int) -> ZSeries:
    """Determinant of the m x m LR system matrix over Z[z] (the oracle for
    det_d), truncated at z^order: the determinant that one fraction-free
    Gauss-Jordan elimination (`_bareiss`) of the matrix augmented by e_1
    returns, on its integer values at one power of two; the RL numerators
    Delta_{m,q} come from `deltas_direct`.  A direct elimination,
    independent of the recurrences it checks: O(m^3) entry updates, each two
    products and a checked exact division of integers of O(m B) bits,
    B = O(m log m) bits per coefficient.  No pivot is zero (`_bareiss`).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    e1 = [(1,) if i == 0 else () for i in range(m)]
    det, _ = _bareiss(_system_matrix(Direction.LR, m), e1)
    return place(det, order)


def deltas_direct(m: int, order: int) -> list[ZSeries]:
    """Delta_{m,1}..Delta_{m,m}, truncated at z^order, from one elimination
    (`_bareiss`) of the RL matrix A augmented by e_1.  Delta_{m,q}, the
    determinant of A with column q replaced by e_1, is the cofactor C_{1,q}
    = det(A) x_q where A x = e_1: the first column of adj(A), the column
    the elimination returns.  No pivot is zero (`_bareiss`)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    e1 = [(1,) if i == 0 else () for i in range(m)]
    _, column = _bareiss(_system_matrix(Direction.RL, m), e1)
    return [place(c, order) for c in column]


# ---------------------------------------------------------------------------
# bounded generating functions and the stabilized limit
# ---------------------------------------------------------------------------

def bounded_f(k: int, h: int, order: int) -> ZSeries:
    """LR paths in [0,h] ending at level k: f_k = z^k d_{h-k} / d_{h+1}."""
    if not 0 <= k <= h:
        raise ValueError(f"level {k} exceeds barrier {h}")
    return _cramer(Direction.LR, k, h, order)


def bounded_g(i: int, h: int, order: int) -> ZSeries:
    """RL paths in [0,h] ending at level i: g_i = Delta_{h+1,i+1} / d_{h+1}."""
    if not 0 <= i <= h:
        raise ValueError(f"level {i} exceeds barrier {h}")
    return _cramer(Direction.RL, i, h, order)


# An unbounded series at order N holds about 0.34 N^2 bits: its z^n
# coefficient has about 1.38 n, since the counts grow like (27/4)^(n/2) (the
# singularity at t = 1/3, where t(1 - t)^2 = z^2 = 4/27).  So this bound, 1 MiB
# of coefficient digits, keeps one series to order ~5000, or 40 to order ~790.
_SERIES_BITS = 1 << 23

# (direction, level) -> (the x-coefficients of the longest series `stabilized`
# returned for it, their summed bits), least recently used first
_SERIES: dict[tuple[Direction, int], tuple[tuple[int, ...], int]] = {}


def stabilized(direction: Direction | str, level: int, order: int) -> ZSeries:
    """The h -> infinity limit up to z^order: the Cramer quotient at the
    barrier h = order + level.

    Lemma: no path of length n <= order ending at `level` climbs above h, so
    up to z^order the strip [0, h] counts every unbounded path.  An LR path
    climbs by +1 steps only, so its maximum M <= n, and M <= n - 1 once it
    has a down-step, which it needs when n > level: M <= max(level, n - 1).
    An RL path descends by -1 steps only, so M - level of them follow the
    maximum, which a step reaches: M <= n + level - 1 for n >= 1 (the empty
    path stays at 0).  So the quotient is already exact at the barriers
    max(level, order - 1) for LR and order + level - 1 for RL (order >= 1),
    and at every barrier above them; h = order + level is one above either,
    and gives the same series.

    The process keeps, per (direction, level), the x-coefficients of the
    longest series returned, up to _SERIES_BITS in all, least recently used
    out first (a series larger than the bound is returned, not kept).  An
    order they cover is a slice of them; a higher one divides at its own
    barrier, resuming from them (`divide`).  That is exact: kept up to some
    z^k, they are the true counts by the lemma, and so are the quotient's
    at every barrier >= k + level, the new one included; the division is
    triangular, so it continues from them as from its own.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    key = (Direction(direction), level)
    parity = level % 2
    known, bits = _SERIES.pop(key, ((), 0))
    if len(known) > _cap(order, parity):
        series = place(known, order, parity, 2)
    else:
        series = _cramer(*key, order + level, order, known)
        known = series[parity::2]
        bits = sum(c.bit_length() for c in known)
    if bits <= _SERIES_BITS:
        _SERIES[key] = known, bits  # the most recently used, last
        while sum(b for _, b in _SERIES.values()) > _SERIES_BITS:
            del _SERIES[next(iter(_SERIES))]
    return series


def solve_system(direction: Direction | str, h: int, order: int) -> list[ZSeries]:
    """Solve the (h+1)x(h+1) banded system directly over truncated series.

    Returns the full vector (f_0..f_h) or (g_0..g_h), eliminating on
    coefficient lists of length order+1; every pivot has constant term 1,
    so its inverse (`divide`) and the elimination never leave the integers.
    The band leaves most entries zero, and a product with an all-zero
    operand is never formed: the pivot-row scaling keeps a zero entry, the
    elimination keeps an entry whose pivot-row partner is zero, and back
    substitution skips a zero coefficient or a zero solution entry.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    m, n = h + 1, order + 1
    one = [1] + [0] * order
    # the system augmented by its right-hand side e_1 as column m
    mat = [[(list(p) + [0] * n)[:n] for p in row] + [one if i == 0 else [0] * n]
           for i, row in enumerate(_system_matrix(Direction(direction), m))]

    def minus_product(acc: list[int], u: list[int], v: list[int]) -> list[int]:
        """acc - u v, or acc itself when u or v is all zero."""
        if not (any(u) and any(v)):
            return acc
        return shifted_sum(acc, poly_mul(u, v, order), sign=-1, cap=order)

    for r in range(m):
        if mat[r][r][0] not in (1, -1):
            raise ConsistencyError("elimination pivot lost its unit constant term")
        pinv = divide(one, mat[r][r])
        mat[r] = [poly_mul(e, pinv, order) if any(e) else e for e in mat[r]]
        for i in range(r + 1, m):
            if any(factor := mat[i][r]):
                mat[i] = [minus_product(a, factor, b) for a, b in zip(mat[i], mat[r])]
    # back substitution, each solution entry replacing its row's column m
    for i in range(m - 2, -1, -1):
        for j in range(i + 1, m):
            mat[i][m] = minus_product(mat[i][m], mat[i][j], mat[j][m])
    return [ZSeries(row[m]) for row in mat]
