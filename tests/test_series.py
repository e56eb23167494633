"""Series engine: exact arithmetic, inversion, and coefficient extraction."""

from itertools import zip_longest

import pytest
from hypothesis import given, strategies as st

from deutsch_paths.series import (
    IntPoly,
    TRational,
    ZSeries,
    coeff_x,
    t_series,
    zseries_of,
)


def zs(*coeffs):
    return ZSeries(tuple(coeffs))


class TestZSeriesArithmetic:
    def test_telescoping_product(self):
        # (1+z)(1-z) = 1 - z^2 at order 4
        assert zs(1, 1, 0, 0, 0) * zs(1, -1, 0, 0, 0) == zs(1, 0, -1, 0, 0)

    def test_geometric_identity(self):
        assert zs(1, 0, 1, 0, 1) * zs(1, 0, -1, 0, 0) == ZSeries.one(4)

    def test_d2_times_geometric(self):
        # d_2 = 1 - z^2 against its inverse expansion
        d2 = zs(1, 0, -1, 0, 0)
        assert d2 * zs(1, 0, 1, 0, 1) == ZSeries.one(4)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ZSeries.one(3) + ZSeries.one(4)
        with pytest.raises(ValueError):
            ZSeries.one(3) * ZSeries.one(4)

    def test_shift_truncates(self):
        assert zs(1, 2, 3).shift(1) == zs(0, 1, 2)
        assert zs(1, 2, 3).shift(5) == ZSeries.zero(2)


class TestInverse:
    def test_geometric(self):
        assert zs(1, -1, 0, 0).inverse() == zs(1, 1, 1, 1)

    def test_geometric_z2(self):
        assert zs(1, 0, -1, 0, 0, 0, 0).inverse() == zs(1, 0, 1, 0, 1, 0, 1)

    def test_d3(self):
        # d_3 = 1 - 2z^2 -> 1 + 2z^2 + 4z^4
        assert zs(1, 0, -2, 0, 0).inverse() == zs(1, 0, 2, 0, 4)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            zs(2, 1).inverse()
        with pytest.raises(ValueError):
            zs(0, 1).inverse()

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=10),
        st.sampled_from([1, -1]),
    )
    def test_two_sided_inverse(self, tail, unit):
        s = ZSeries((unit, *tail))
        assert s * s.inverse() == ZSeries.one(s.order)
        assert s.inverse() * s == ZSeries.one(s.order)


def dense_inverse(s):
    """The unoptimised inverse: every coefficient sums over all earlier ones."""
    c0 = s.coeffs[0]
    inv = [c0] + [0] * s.order
    for k in range(1, s.order + 1):
        acc = sum(s.coeffs[j] * inv[k - j] for j in range(1, k + 1))
        inv[k] = -c0 * acc
    return ZSeries(tuple(inv))


@st.composite
def divisions(draw):
    """A dividend and a divisor with constant term +-1 at one order; the
    divisor is dense, even (every other coefficient zero, like d_m), or has
    only a few nonzero terms."""
    order = draw(st.integers(0, 24))
    coeff = st.integers(-9, 9)
    dividend = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    tail = draw(st.lists(coeff, min_size=order, max_size=order))
    shape = draw(st.sampled_from(["dense", "even", "few"]))
    if shape == "even":
        tail = [c if j % 2 == 1 else 0 for j, c in enumerate(tail)]
    elif shape == "few":
        keep = draw(st.sets(st.integers(0, max(order - 1, 0)), max_size=3))
        tail = [c if j in keep else 0 for j, c in enumerate(tail)]
    unit = draw(st.sampled_from([1, -1]))
    return ZSeries(tuple(dividend)), ZSeries((unit, *tail))


class TestDivision:
    @given(divisions())
    def test_matches_dense_inverse(self, pair):
        a, b = pair
        assert a / b == a * dense_inverse(b)
        assert (a / b) * b == a

    def test_non_unit_divisor_rejected(self):
        with pytest.raises(ValueError):
            zs(1, 2, 3) / zs(2, 1, 0)
        with pytest.raises(ValueError):
            zs(1, 2, 3) / zs(0, 1, 0)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ZSeries.one(3) / ZSeries.one(4)


class TestCoeffX:
    def test_one_over_one_minus_t(self):
        f = TRational(IntPoly((1,)), pow1t=1)
        assert [coeff_x(f, n) for n in range(5)] == [1, 1, 3, 12, 55]

    def test_constant(self):
        assert coeff_x(TRational(), 0) == 1

    def test_cubed_denominator(self):
        f = TRational(IntPoly((1,)), pow1t=3)
        assert coeff_x(f, 1) == 3

    def test_area_form(self):
        f = TRational(IntPoly((0, 1, 3)), pow1t=1, pow13t=2)
        assert coeff_x(f, 2) == 12

    def test_zshift_rejected(self):
        with pytest.raises(ValueError):
            coeff_x(TRational(zshift=1), 0)

    def test_negative_index_is_zero(self):
        assert coeff_x(TRational(IntPoly((1,)), pow1t=2), -1) == 0

    @given(
        st.integers(0, 8),
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    def test_additivity(self, n, a, b, p1, p2):
        f = TRational(IntPoly(tuple(p1)), pow1t=a, pow13t=b)
        g = TRational(IntPoly(tuple(p2)), pow1t=a, pow13t=b)
        total = tuple(x + y for x, y in zip_longest(p1, p2, fillvalue=0))
        f_plus_g = TRational(IntPoly(total), pow1t=a, pow13t=b)
        assert coeff_x(f_plus_g, n) == coeff_x(f, n) + coeff_x(g, n)

    def test_canonical_form_strips_common_factors(self):
        # (1-t)/(1-t)^3 == 1/(1-t)^2 as series, with the factor left in place
        f = TRational(IntPoly((1, -1)), pow1t=3)
        g = TRational(IntPoly((1,)), pow1t=2)
        assert [coeff_x(f, n) for n in range(11)] == [coeff_x(g, n) for n in range(11)]


class TestZSeriesOf:
    def test_f0(self):
        f = TRational(IntPoly((1,)), pow1t=1)
        assert zseries_of(f, 8) == zs(1, 0, 1, 0, 3, 0, 12, 0, 55)

    def test_f2(self):
        f = TRational(IntPoly((1,)), pow1t=3, zshift=2)
        assert zseries_of(f, 8) == zs(0, 0, 1, 0, 3, 0, 12, 0, 55)

    def test_g1(self):
        f = TRational(IntPoly((1,)), pow1t=3, zshift=1)
        assert zseries_of(f, 7) == zs(0, 1, 0, 3, 0, 12, 0, 55)

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 4))
    def test_truncation_consistency(self, m1, m2, k):
        lo, hi = sorted((m1, m2))
        f = TRational(IntPoly((1,)), pow1t=k + 1, zshift=k)
        assert zseries_of(f, hi).coeffs[: lo + 1] == zseries_of(f, lo).coeffs


class TestTSeries:
    def test_first_terms(self):
        assert t_series(4) == zs(0, 1, 2, 7, 30)

    def test_lagrange_inversion_oracle(self):
        # independent route: [x^n] t = C(3n-2, n-1) / n
        from math import comb

        ts = t_series(12)
        for n in range(1, 13):
            top = comb(3 * n - 2, n - 1)
            assert top % n == 0
            assert ts[n] == top // n

    @given(st.integers(0, 25))
    def test_defining_cubic(self, order):
        t = t_series(order)
        one = ZSeries.one(order)
        x = ZSeries.monomial(1, order)
        lhs = t * (one - t) * (one - t)
        assert lhs == x if order >= 1 else lhs == ZSeries.zero(0)
