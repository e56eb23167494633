"""Exact truncated power series in z and coefficient extraction under x = t(1-t)^2.

Everything here is big-integer arithmetic: polynomials are integer
coefficient lists (lowest power first), series are truncated at an explicit
order, and the substitution x = t(1-t)^2 (with x = z^2) is handled by
contour-style coefficient extraction that only ever touches integer
binomials, walked by exact ratios.  One kernel does the list arithmetic of
every exact route: `poly_mul` (the product), `shifted_sum` (u +- x^s v) and
`place` (coefficients into a truncated ZSeries at z^(shift + stride k)).

Every value here is a tuple.  A `ZSeries` is the tuple of its coefficients
up to its order, an `IntPoly` the tuple of its coefficients without
trailing zeros, and a closed form a `TRational`, a named tuple whose
numerator is a trimmed coefficient tuple.  ZSeries and IntPoly stay classes
for their methods alone: the benchmark's tracer patches ZSeries's
operators, `shift` and `inverse`, and `IntPoly.divmod_by`, by name on the
class.  `IntPoly` serves only the tests and that tracer.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count, islice
from math import comb
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

from .errors import ConsistencyError


# ---------------------------------------------------------------------------
# integer polynomials (coefficient lists, index = exponent)
# ---------------------------------------------------------------------------

def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The coefficients without their trailing zeros: () for zero."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPoly(tuple):
    """Dense integer polynomial: its items are its coefficients, lowest power
    first, without trailing zeros; the zero polynomial is empty.

    No route computes with it: every exact route works on coefficient lists
    and tuples (`poly_mul`, `shifted_sum`, `divide`, `place`).  It is the
    reference polynomial of the tests (their fraction-free elimination
    subclasses it), and `divmod_by` is a traced layer of the benchmark."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int] = ()) -> "IntPoly":
        return super().__new__(cls, _trim(coeffs))

    def divmod_by(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Top-down long division: (q, r) with self = q divisor + r and
        deg r < deg divisor.  When the divisor's leading coefficient does not
        divide a step's leading term, the divisor does not divide self in
        Z[t], and the result is (0, self)."""
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self)
        dd = len(divisor) - 1
        quot = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            if rem[k] == 0:
                continue
            c, inexact = divmod(rem[k], divisor[dd])
            if inexact:
                return IntPoly(), self
            quot[k - dd] = c
            for j, b in enumerate(divisor, k - dd):
                rem[j] -= c * b
        return IntPoly(quot), IntPoly(rem)


def poly_mul(u: Sequence[int], v: Sequence[int], cap: Optional[int] = None) -> list[int]:
    """The product of two integer polynomials (coefficient lists), truncated
    at t^cap (cap >= 0) when cap is given; [] when either factor is empty.
    Zero coefficients cost no multiplication, and a zero row of u nothing."""
    if not u or not v:
        return []
    n = len(u) + len(v) - 1
    if cap is not None and cap < n - 1:
        n = cap + 1
        u = u[:n]
    full = n - len(v)  # rows up to this one take all of v
    out = [0] * n
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v if i <= full else v[: n - i], i):
                if b:
                    out[j] += a * b
    return out


def shifted_sum(u: list[int], v: list[int], shift: int = 0, sign: int = 1,
                cap: Optional[int] = None) -> list[int]:
    """u + sign t^shift v (sign +1 or -1) for coefficient lists, truncated at
    t^cap (cap >= 0) when cap is given, else as long as the longer of u and
    t^shift v."""
    if shift:
        v = [0] * shift + v
    n = max(len(u), len(v)) if cap is None else min(max(len(u), len(v)), cap + 1)
    # u is padded or cut to length n; map stops there, and equal lengths copy nothing
    if len(u) != n:
        u = u[:n] + [0] * (n - len(u))
    if len(v) < n:
        v = v + [0] * (n - len(v))
    return list(map(add if sign > 0 else sub, u, v))


def divide(num: Sequence[int], den: Sequence[int], known: Sequence[int] = ()) -> list[int]:
    """num / den as a power series, to num's length, for den_0 = c0 = +-1:
    q_k = c0 (num_k - sum_{j>=1} den_j q_{k-j}), one dot product each.

    `known`, at most num's length, is the quotient's first coefficients,
    already computed: the loop starts after them.  The division is
    triangular (q_k reads num_k, den and q_0..q_{k-1} only), so any list
    that equals num / den up to its length resumes it exactly, wherever
    it came from, and costs nothing for the coefficients it holds."""
    c0 = den[0]
    if c0 not in (1, -1):
        raise ValueError(f"series with constant term {c0} is not invertible over Z")
    rev = den[:0:-1]  # den_deg, ..., den_1
    deg = len(rev)
    quot = list(known)
    for k in range(len(quot), len(num)):
        t = min(k, deg)
        quot.append(c0 * (num[k] - sum(map(mul, rev[deg - t:], quot[k - t:]))))
    return quot


# ---------------------------------------------------------------------------
# truncated z-series
# ---------------------------------------------------------------------------

class ZSeries(tuple):
    """Power series in z truncated (inclusively) at an explicit order: a
    tuple whose items are its coefficients, the value every exact route
    returns.  The routes compute on coefficient lists (`poly_mul`,
    `shifted_sum`, `divide`, `place`); the operators here are the reference
    algebra the tests check them against.

    Mixing orders is an error by design: silent re-truncation is the classic
    source of wrong coefficients.  So two series of different orders are
    unequal, as tuples of different lengths, the operators reject them, and
    an int index outside 0..order raises where a tuple would count from the
    end.  A slice is a plain tuple of coefficients.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> "ZSeries":
        self = super().__new__(cls, coeffs)
        if not self:
            raise ValueError("a ZSeries needs at least the z^0 coefficient")
        return self

    @classmethod
    def zero(cls, order: int) -> "ZSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "ZSeries":
        return cls((1,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self) - 1

    def __getitem__(self, k: int | slice) -> int | tuple[int, ...]:
        if isinstance(k, int) and not 0 <= k < len(self):
            raise IndexError(f"coefficient z^{k} beyond truncation order {self.order}")
        return super().__getitem__(k)

    def _check_order(self, other: "ZSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check_order(other)
        return ZSeries(map(add, self, other))

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        self._check_order(other)
        return ZSeries(map(sub, self, other))

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        self._check_order(other)
        # a list for v: poly_mul slices v on each row
        return ZSeries(poly_mul(self, list(other), self.order))

    def shift(self, p: int) -> "ZSeries":
        """Multiply by z^p, truncating at the same order."""
        if p < 0:
            raise ValueError("negative shift")
        return place(self, self.order, p)

    def inverse(self) -> "ZSeries":
        """Multiplicative inverse; requires constant coefficient +-1.  One
        dot product per coefficient (`divide`), O(order^2) in all."""
        return ZSeries(divide(ZSeries.one(self.order), self))

    def eval_float(self, z: float) -> float:
        acc = 0.0
        for a in reversed(self):
            acc = acc * z + a
        return acc


def place(coeffs: Iterable[int], order: int, shift: int = 0, stride: int = 1) -> ZSeries:
    """sum_k c_k z^(shift + stride k) truncated at z^order, taking from
    `coeffs` only the c_k that fit (missing ones are zero): the zero series
    when shift > order."""
    cs = [0] * (order + 1)
    slots = len(range(shift, order + 1, stride))
    taken = list(islice(coeffs, slots))
    cs[shift::stride] = taken + [0] * (slots - len(taken))
    return ZSeries(cs)


# ---------------------------------------------------------------------------
# closed forms: P(t) * (1-t)^-a * (1-3t)^-b * z^p
# ---------------------------------------------------------------------------

class TRational(namedtuple("TRational", "numer pow1t pow13t zshift")):
    """Formal expression numer(t) / ((1-t)^a (1-3t)^b) with a prefactor z^p.

    `numer` is a plain tuple of integer coefficients, lowest power first,
    stored without trailing zeros, so equal expressions compare equal; ()
    is zero."""

    __slots__ = ()

    def __new__(cls, numer: tuple[int, ...] = (1,), pow1t: int = 0, pow13t: int = 0,
                zshift: int = 0) -> "TRational":
        if type(numer) is not tuple:
            raise TypeError(f"a TRational numerator is a tuple, not {type(numer).__name__}")
        if pow1t < 0 or pow13t < 0 or zshift < 0:
            raise ValueError("exponents of a TRational must be nonnegative")
        return super().__new__(cls, _trim(numer), pow1t, pow13t, zshift)

    def drop_zshift(self) -> "TRational":
        return TRational(self.numer, self.pow1t, self.pow13t, 0)


T_OVER_ONE = TRational((0, 1))  # plain t


def binomial_diagonal(top: int, bottom: int, count: int) -> list[int]:
    """C(top - j, bottom - j) for j = 0..count-1, zero once bottom - j < 0,
    for 0 <= bottom <= top: one `comb`, then each next term by the exact
    ratio C(N-1, K-1) = C(N, K) K / N, its remainder checked."""
    if not 0 <= bottom <= top:
        raise ValueError(f"need 0 <= bottom <= top, got top={top}, bottom={bottom}")
    steps = min(count, bottom + 1)
    if steps <= 0:
        return [0] * count
    c = comb(top, bottom)
    out = [c]
    for k, n in zip(range(bottom, bottom - steps + 1, -1), range(top, 0, -1)):
        c, rem = divmod(c * k, n)
        if rem:
            raise ConsistencyError(f"C({n}, {k}) * {k} / {n} is not an integer")
        out.append(c)
    return out + [0] * (count - steps)


def coeff_x(f: TRational, n: int) -> int:
    """Exact [x^n] of f(t) under the substitution x = t(1-t)^2.

    Uses [x^n] F = [t^n] (1-3t) (1-t)^(-2n-1) F(t), staying entirely in
    integer arithmetic; f must carry no z prefactor.  With
    N = 3n + pow1t, this is sum_j num_j C(N - j, n - j), num being the
    numerator times (1-3t)^(1-pow13t) up to t^n.  For every pow13t = b >= 0
    each term of that factor is the previous one times 3 (b-1+j) / (j+1):
    sum_j C(b-2+j, j) 3^j t^j for b >= 2, and the walk stops at its first
    zero term, after 1 - 3t for b = 0 and at 1 for b = 1.  The binomials
    lie on one diagonal (`binomial_diagonal`).  So one `comb`, then one
    exact multiply-divide per term.
    """
    if f.zshift != 0:
        raise ValueError("coeff_x requires zshift == 0; use zseries_of for shifted forms")
    if n < 0:
        return 0
    # numerator times (1-3t)^(1-b), truncated at t^n
    b = f.pow13t
    term = 1
    factor = [term]
    for j in range(n):
        term, rem = divmod(term * 3 * (b - 1 + j), j + 1)
        if rem:
            raise ConsistencyError(f"(1-3t)^{1 - b}: term t^{j + 1} is not an integer")
        if not term:  # a polynomial for b <= 1: every later term is zero too
            break
        factor.append(term)
    num = poly_mul(f.numer, factor, n)
    return sum(map(mul, num, binomial_diagonal(3 * n + f.pow1t, n, len(num))))


def zseries_of(f: TRational, order: int) -> ZSeries:
    """Realize a closed form as a truncated series in z (x = z^2); `place`
    takes only the coefficients up to z^order from the endless `count()`."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    base = f.drop_zshift()
    return place((coeff_x(base, n) for n in count()), order, f.zshift, 2)


def t_series(order: int) -> ZSeries:
    """The branch t(x) with t(0)=0 of t(1-t)^2 = x, as a series in x."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return ZSeries(coeff_x(T_OVER_ONE, n) for n in range(order + 1))
