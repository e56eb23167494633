"""Explicit formulas: binomial counts, generalized Catalan numbers, the
rational closed forms of f_k and g_i, and the cumulative-area results.

The Girard-Waring rationalization of g_i is implemented with the exponent
3k - 2i - 1 on (1-t); the alternative 3k - 2i + 1 fails already at i = 1,
where g_1 = z/(1-t)^3 is forced by the mu-closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ConsistencyError
from .series import IntPoly, TRational, ZSeries, coeff_x, zseries_of


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
    """Generalized Catalan number C(3N,N)/(2N+1), cross-checked against the
    binomial-difference form."""
    if n < 0:
        raise ValueError("cat3 requires n >= 0")
    diff = binom(3 * n + 1, n) - 3 * binom(3 * n, n - 1)
    top = comb(3 * n, n)
    if top % (2 * n + 1) != 0:
        raise ConsistencyError(f"C({3*n},{n}) not divisible by {2*n+1}")
    quotient = top // (2 * n + 1)
    if diff != quotient:
        raise ConsistencyError(f"cat3({n}): {diff} != {quotient}")
    return quotient


def f_closed(k: int) -> TRational:
    """Unbounded LR limit: f_k = z^k / (1-t)^(k+1)."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    return TRational(IntPoly((1,)), pow1t=k + 1, zshift=k)


@dataclass(frozen=True)
class GClosedForm:
    """Closed form of an RL generating function as a sum of z^p-shifted
    rational pieces."""

    summands: tuple[tuple[int, TRational], ...]

    def to_series(self, order: int) -> ZSeries:
        return ZSeries(tuple(self.coefficient(n) for n in range(order + 1)))

    def coefficient(self, n: int) -> int:
        total = 0
        for zshift, piece in self.summands:
            if n >= zshift and (n - zshift) % 2 == 0:
                total += coeff_x(piece, (n - zshift) // 2)
        return total


def g_closed(i: int) -> GClosedForm:
    """Unbounded RL limit at level i as a finite sum of rational pieces.

    For i >= 1:
        t   * sum_{1 <= k <= i/2}     C(i-1-k, k-1) z^(i-2k) (1-t)^(3k-2i-1)
            + sum_{0 <= k <= (i-1)/2} C(i-1-k, k)   z^(i-2k) (1-t)^(3k-2i-1)
    and g_0 = f_0 (reversal of closed paths).
    """
    if i < 0:
        raise ValueError("level must be nonnegative")
    if i == 0:
        return GClosedForm(((0, f_closed(0).drop_zshift()),))
    pieces: list[tuple[int, TRational]] = []
    for k in range(1, i // 2 + 1):
        c = binom(i - 1 - k, k - 1)
        if c:
            pieces.append(
                (i - 2 * k, TRational(IntPoly((0, c)), pow1t=2 * i + 1 - 3 * k))
            )
    for k in range((i - 1) // 2 + 1):
        c = binom(i - 1 - k, k)
        if c:
            pieces.append(
                (i - 2 * k, TRational(IntPoly((c,)), pow1t=2 * i + 1 - 3 * k))
            )
    return GClosedForm(tuple(pieces))


def count_rl_closed(n: int, i: int) -> int:
    """RL paths of length n ending at level i, from the closed form."""
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if (n - i) % 2 != 0:
        return 0
    return g_closed(i).coefficient(n)


# ---------------------------------------------------------------------------
# cumulative area over closed paths
# ---------------------------------------------------------------------------

def area_gf() -> TRational:
    """Sum over closed paths of length 2n of their total area, as a
    generating function in x = z^2: t(1+3t) / ((1-t)(1-3t)^2)."""
    return TRational(IntPoly((0, 1, 3)), pow1t=1, pow13t=2)


def area_coeff(n: int) -> int:
    """[x^n] of the area generating function by the explicit binomial sum
    sum_k 3^k [C(3n-k, n-1-k) + 3 C(3n-1-k, n-2-k)]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    total = 0
    for k in range(n):
        term = binom(3 * n - k, n - 1 - k) + 3 * binom(3 * n - 1 - k, n - 2 - k)
        total += 3**k * term
    return total


def area_convolution(order: int) -> ZSeries:
    """The area series as sum_i i * f_i(z) * g_i(z), truncated at order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = ZSeries.zero(order)
    for i in range(1, order + 1):
        fi = zseries_of(f_closed(i), order)
        if fi.is_zero():
            continue
        gi = g_closed(i).to_series(order)
        acc = acc + (fi * gi).scale(i)
    return acc
