"""Exact truncated power series in z and coefficient extraction under x = t(1-t)^2.

Everything here is big-integer arithmetic: polynomials are dense coefficient
tuples, series are truncated at an explicit order, and the substitution
x = t(1-t)^2 (with x = z^2) is handled by contour-style coefficient
extraction that only ever touches integer binomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable


# ---------------------------------------------------------------------------
# integer polynomials (dense tuples, index = exponent)
# ---------------------------------------------------------------------------

def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; the zero polynomial has an empty tuple."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self[k] - other[k] for k in range(n)))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def scale(self, c: int) -> "IntPoly":
        return IntPoly(tuple(c * a for a in self.coeffs))

    def divmod_by(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Polynomial long division over the rationals, kept in integers.

        Only valid when every quotient step divides exactly (which holds
        whenever divisor | self in Z[t], or lead(divisor) is a unit).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dlead = divisor.coeffs[-1]
        dd = divisor.degree
        q = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            if rem[k] == 0:
                continue
            if rem[k] % dlead != 0:
                return IntPoly(), self  # not divisible in Z[t]
            c = rem[k] // dlead
            q[k - dd] = c
            for j, b in enumerate(divisor.coeffs):
                rem[k - dd + j] -= c * b
        return IntPoly(tuple(q)), IntPoly(tuple(rem))


ONE_MINUS_3T = IntPoly((1, -3))


# ---------------------------------------------------------------------------
# truncated z-series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZSeries:
    """Power series in z truncated (inclusively) at an explicit order.

    Mixing orders is an error by design: silent re-truncation is the classic
    source of wrong coefficients.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a ZSeries needs at least the z^0 coefficient")

    @classmethod
    def zero(cls, order: int) -> "ZSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "ZSeries":
        return cls((1,) + (0,) * order)

    @classmethod
    def monomial(cls, power: int, order: int) -> "ZSeries":
        cs = [0] * (order + 1)
        if 0 <= power <= order:
            cs[power] = 1
        return cls(tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient z^{k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _check_order(self, other: "ZSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check_order(other)
        return ZSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        self._check_order(other)
        return ZSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        self._check_order(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return ZSeries(tuple(out))

    def scale(self, c: int) -> "ZSeries":
        return ZSeries(tuple(c * a for a in self.coeffs))

    def shift(self, p: int) -> "ZSeries":
        """Multiply by z^p, truncating at the same order."""
        if p < 0:
            raise ValueError("negative shift")
        if p > self.order:
            return ZSeries.zero(self.order)
        return ZSeries((0,) * p + self.coeffs[: self.order + 1 - p])

    def __truediv__(self, other: "ZSeries") -> "ZSeries":
        """Exact quotient; the divisor needs constant coefficient +-1.

        Solves q * other = self term by term, reading only the divisor's
        nonzero terms: O(order x nonzero terms of other), so a sparse divisor
        such as a determinant d_m (a polynomial in z^2) divides cheaply.
        """
        self._check_order(other)
        c0 = other.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"series with constant term {c0} is not invertible over Z")
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b and j]
        quot = list(self.coeffs)
        for k in range(self.order + 1):
            acc = quot[k]
            for j, b in terms:
                if j > k:
                    break
                acc -= b * quot[k - j]
            quot[k] = c0 * acc  # 1/c0 == c0 for a unit
        return ZSeries(tuple(quot))

    def inverse(self) -> "ZSeries":
        """Multiplicative inverse; requires constant coefficient +-1."""
        return ZSeries.one(self.order) / self

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def eval_float(self, z: float) -> float:
        acc = 0.0
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc


# ---------------------------------------------------------------------------
# closed forms: P(t) * (1-t)^-a * (1-3t)^-b * z^p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TRational:
    """Formal expression numer(t) / ((1-t)^a (1-3t)^b) with a prefactor z^p."""

    numer: IntPoly = field(default_factory=lambda: IntPoly((1,)))
    pow1t: int = 0
    pow13t: int = 0
    zshift: int = 0

    def __post_init__(self) -> None:
        if self.pow1t < 0 or self.pow13t < 0 or self.zshift < 0:
            raise ValueError("exponents of a TRational must be nonnegative")

    def drop_zshift(self) -> "TRational":
        return TRational(self.numer, self.pow1t, self.pow13t, 0)


T_OVER_ONE = TRational(IntPoly((0, 1)))  # plain t


def coeff_x(f: TRational, n: int) -> int:
    """Exact [x^n] of f(t) under the substitution x = t(1-t)^2.

    Uses [x^n] F = [t^n] (1-3t) (1-t)^(-2n-1) F(t), staying entirely in
    integer arithmetic; f must carry no z prefactor.
    """
    if f.zshift != 0:
        raise ValueError("coeff_x requires zshift == 0; use zseries_of for shifted forms")
    if n < 0:
        return 0
    # numerator times (1-3t)^(1-b), truncated at t^n
    num = list(f.numer.coeffs[: n + 1])
    if f.pow13t == 0:
        num = list((f.numer * ONE_MINUS_3T).coeffs[: n + 1])
    elif f.pow13t >= 2:
        c = f.pow13t - 1
        geo = [comb(c - 1 + j, j) * 3**j for j in range(n + 1)]
        conv = [0] * (n + 1)
        for i, a in enumerate(num):
            if a:
                for j in range(n + 1 - i):
                    conv[i + j] += a * geo[j]
        num = conv
    c1 = 2 * n + 1 + f.pow1t
    return sum(
        num[j] * comb(c1 - 1 + (n - j), n - j) for j in range(min(len(num), n + 1))
    )


def zseries_of(f: TRational, order: int) -> ZSeries:
    """Realize a closed form as a truncated series in z (x = z^2)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    base = f.drop_zshift()
    p = f.zshift
    cs = [0] * (order + 1)
    for m in range(p, order + 1):
        if (m - p) % 2 == 0:
            cs[m] = coeff_x(base, (m - p) // 2)
    return ZSeries(tuple(cs))


def t_series(order: int) -> ZSeries:
    """The branch t(x) with t(0)=0 of t(1-t)^2 = x, as a series in x."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return ZSeries(tuple(coeff_x(T_OVER_ONE, n) for n in range(order + 1)))
