"""Explicit formulas: binomial counts, generalized Catalan numbers, the
rational closed forms of f_k and g_i, and the cumulative-area results.

The Girard-Waring rationalization of g_i is implemented with the exponent
3k - 2i - 1 on (1-t); the alternative 3k - 2i + 1 fails already at i = 1,
where g_1 = z/(1-t)^3 is forced by the mu-closed form.
"""

from __future__ import annotations

from math import comb

from .errors import ConsistencyError
from .series import TRational, ZSeries, binomial_diagonal, coeff_x, poly_mul, shifted_sum


def binom(n: int, k: int) -> int:
    """Exact C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("binom requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def count_lr_closed(n: int, k: int) -> int:
    """LR paths of length n ending at level k, by the binomial difference
    C(3N-K+i+1, N-K) - 3 C(3N-K+i, N-K-1) with n = 2N+i, k = 2K+i."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if (n - k) % 2 != 0 or k > n:
        return 0
    i = n % 2
    big_n, big_k = (n - i) // 2, (k - i) // 2
    return binom(3 * big_n - big_k + i + 1, big_n - big_k) - 3 * binom(
        3 * big_n - big_k + i, big_n - big_k - 1
    )


def cat3(n: int) -> int:
    """Generalized Catalan number C(3N,N)/(2N+1), by the quotient alone: the
    binomial-difference form is `count_lr_closed(2N, 0)`, and the dp-closed
    suite compares the two."""
    if n < 0:
        raise ValueError("cat3 requires n >= 0")
    top = comb(3 * n, n)
    if top % (2 * n + 1) != 0:
        raise ConsistencyError(f"C({3*n},{n}) not divisible by {2*n+1}")
    return top // (2 * n + 1)


def f_closed(k: int) -> TRational:
    """Unbounded LR limit: f_k = z^k / (1-t)^(k+1)."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    return TRational((1,), pow1t=k + 1, zshift=k)


class GClosedForm(tuple[TRational, ...]):
    """An RL generating function as a tuple of rational pieces, each carrying
    its own z^p prefactor (`TRational.zshift`); every p has the parity of
    the level.  `coefficient` reads one coefficient of their sum."""

    def coefficient(self, n: int) -> int:
        """[z^n] of the sum: zero for n of the other parity."""
        if (n - self[0].zshift) % 2:
            return 0
        return sum(coeff_x(g.drop_zshift(), (n - g.zshift) // 2) for g in self if g.zshift <= n)


def g_closed(i: int) -> GClosedForm:
    """Unbounded RL limit at level i as a finite sum of rational pieces.

    For i >= 1, one piece per k in 0..i/2:
        (C(i-1-k, k) + C(i-1-k, k-1) t) z^(i-2k) (1-t)^(3k-2i-1),
    dropping a piece whose numerator is zero; and g_0 = f_0 (reversal of
    closed paths).
    """
    if i < 0:
        raise ValueError("level must be nonnegative")
    return _g_pieces(i, 0)


def _g_pieces(i: int, k_min: int) -> GClosedForm:
    """The pieces of g_i (i >= 0) for k >= k_min, that is with z-shift
    i - 2k <= i - 2 k_min; g_0 is its one piece f_0."""
    if i == 0:
        return GClosedForm((f_closed(0),))
    pieces: list[TRational] = []
    for k in range(k_min, i // 2 + 1):
        piece = TRational((binom(i - 1 - k, k), binom(i - 1 - k, k - 1)),
                          pow1t=2 * i + 1 - 3 * k, zshift=i - 2 * k)
        if piece.numer:
            pieces.append(piece)
    return GClosedForm(pieces)


def count_rl_closed(n: int, i: int) -> int:
    """RL paths of length n ending at level i, from the closed form: only
    the pieces of g_i with z-shift i - 2k <= n reach [z^n], so k starts at
    (i - n)/2 and a far level builds O(n) pieces, not O(i)."""
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if (n - i) % 2:
        return 0
    return _g_pieces(i, max(0, (i - n) // 2)).coefficient(n)


# ---------------------------------------------------------------------------
# cumulative area over closed paths
# ---------------------------------------------------------------------------

def area_gf() -> TRational:
    """Sum over closed paths of length 2n of their total area, as a
    generating function in x = z^2: t(1+3t) / ((1-t)(1-3t)^2)."""
    return TRational((0, 1, 3), pow1t=1, pow13t=2)


def area_coeff(n: int) -> int:
    """[x^n] of the area generating function by the explicit binomial sum
    sum_k 3^k [C(3n-k, n-1-k) + 3 C(3n-1-k, n-2-k)].

    Both binomials lie on one diagonal, D_k = C(3n-k, n-1-k), the second
    being D_(k+1) (D_n = 0): one `comb` and one exact multiply-divide per
    term (`binomial_diagonal`), with 3^k carried as a running product.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    diag = binomial_diagonal(3 * n, n - 1, n + 1)
    total = 0
    power = 1
    for k in range(n):
        total += power * (diag[k] + 3 * diag[k + 1])
        power *= 3
    return total


def area_convolution(order: int) -> ZSeries:
    """The area series as sum_i i * f_i(z) * g_i(z), truncated at order.

    Each product of f_i = z^i/(1-t)^(i+1) with a piece of g_i is one rational
    piece z^p numer(t)/((1-t)^a (1-3t)^b), so the pieces with equal (p, a, b)
    add their numerators, and each piece with p <= order (O(order) of them
    after merging) adds one coeff_x per coefficient into one list.
    The route starts from f_closed and g_closed, never from area_gf, which it
    checks.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    merged: dict[tuple[int, int, int], list[int]] = {}
    for i in range(1, order + 1):
        f = f_closed(i)
        for piece in g_closed(i):
            p = f.zshift + piece.zshift
            if p > order:
                continue
            key = (p, f.pow1t + piece.pow1t, f.pow13t + piece.pow13t)
            term = [i * c for c in poly_mul(f.numer, piece.numer)]
            merged[key] = shifted_sum(merged.get(key, []), term)
    total = [0] * (order + 1)
    for (p, a, b), numer in merged.items():
        base = TRational(tuple(numer), a, b)
        total[p::2] = [c + coeff_x(base, k) for k, c in enumerate(total[p::2])]
    return ZSeries(tuple(total))
