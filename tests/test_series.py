"""Series engine: exact arithmetic, inversion, and coefficient extraction."""

from itertools import count, zip_longest
from math import comb

import pytest
from hypothesis import given, strategies as st

from deutsch_paths.series import (
    IntPoly,
    TRational,
    ZSeries,
    binomial_diagonal,
    coeff_x,
    divide,
    place,
    poly_mul,
    shifted_sum,
    t_series,
    zseries_of,
)


def zs(*coeffs):
    return ZSeries(coeffs)


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


class TestZSeriesValue:
    def test_items_are_the_coefficients(self):
        s = zs(1, 0, 3)
        assert (s, len(s), s.order) == ((1, 0, 3), 3, 2)
        assert list(s) == [1, 0, 3]

    def test_slice_is_a_plain_tuple(self):
        s = zs(1, 0, 3, 5)
        assert s[1::2] == (0, 5) and type(s[1::2]) is tuple
        assert s[-2:] == (3, 5)

    @pytest.mark.parametrize("k", [-1, -4, 4, 9])
    def test_int_index_outside_the_order_raises(self, k):
        # a tuple would count a negative index from the end
        with pytest.raises(IndexError, match=rf"z\^{k} beyond truncation order 3"):
            zs(1, 0, 3, 5)[k]

    def test_orders_differ_so_values_do(self):
        assert ZSeries.zero(2) != ZSeries.zero(3)
        assert ZSeries.one(2) != ZSeries.one(3)
        assert ZSeries.one(3) == zs(1, 0, 0, 0)

    def test_needs_the_constant_term(self):
        with pytest.raises(ValueError, match="z\\^0"):
            ZSeries(())


def schoolbook(u, v):
    """The untruncated product, every pair of coefficients multiplied."""
    out = [0] * (len(u) + len(v) - 1) if u and v else []
    for i in range(len(u)):
        for j in range(len(v)):
            out[i + j] += u[i] * v[j]
    return out


def dense_sum(u, v, shift, sign, cap):
    """u + sign x^shift v, coefficient by coefficient, then truncated."""
    out = [0] * max(len(u), len(v) + shift)
    for k, c in enumerate(u):
        out[k] += c
    for k, c in enumerate(v):
        out[k + shift] += sign * c
    return out if cap is None else out[: cap + 1]


# short lists with zeros in them, the empty list and all-zero lists included
coeff_lists = st.lists(st.integers(-6, 6) | st.just(0), max_size=9)
caps = st.none() | st.integers(0, 20)


class TestKernel:
    @given(coeff_lists, coeff_lists, caps)
    def test_poly_mul_matches_schoolbook(self, u, v, cap):
        full = schoolbook(u, v)
        assert poly_mul(u, v) == full
        assert poly_mul(u, v, cap) == (full if cap is None else full[: cap + 1])

    def test_poly_mul_edges(self):
        assert poly_mul([], [1, 2]) == poly_mul([1, 2], []) == []
        assert poly_mul([0, 0], [1, 2]) == [0, 0, 0]
        assert poly_mul([1, 1], [1, 1], 0) == [1]
        assert poly_mul([1, 1], [1, 1], 1) == [1, 2]
        assert poly_mul([1, 1], [1, 1], 5) == [1, 2, 1]

    @given(coeff_lists, coeff_lists, st.integers(0, 3), st.sampled_from([1, -1]), caps)
    def test_shifted_sum_matches_dense(self, u, v, shift, sign, cap):
        assert shifted_sum(u, v, shift, sign, cap) == dense_sum(u, v, shift, sign, cap)

    def test_shifted_sum_leaves_operands(self):
        u, v = [1, 2], [3]
        assert shifted_sum(u, v, 2, -1) == [1, 2, -3]
        assert (u, v) == ([1, 2], [3])

    @given(coeff_lists, st.integers(0, 12), st.integers(0, 15), st.sampled_from([1, 2]))
    def test_place_matches_dense(self, coeffs, order, shift, stride):
        expected = [0] * (order + 1)
        for k, c in enumerate(coeffs):
            if shift + stride * k <= order:
                expected[shift + stride * k] = c
        assert place(coeffs, order, shift, stride) == ZSeries(expected)

    def test_place_takes_only_what_fits(self):
        assert place(count(1), 5, 1, 2) == zs(0, 1, 0, 2, 0, 3)
        assert place([7], 3, 4, 2) == ZSeries.zero(3)
        assert place([7, 8], 2, 3) == ZSeries.zero(2)


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
    c0 = s[0]
    inv = [c0] + [0] * s.order
    for k in range(1, s.order + 1):
        acc = sum(s[j] * inv[k - j] for j in range(1, k + 1))
        inv[k] = -c0 * acc
    return ZSeries(inv)


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
    return ZSeries(dividend), ZSeries((unit, *tail))


class TestDivision:
    @given(divisions())
    def test_matches_dense_inverse(self, pair):
        a, b = pair
        quot = ZSeries(divide(a, b))
        assert quot == a * dense_inverse(b)
        assert quot * b == a

    @given(divisions())
    def test_resumes_from_every_prefix(self, pair):
        num, den = (list(s) for s in pair)
        quot = divide(num, den)
        for k in range(len(quot) + 1):
            assert divide(num, den, quot[:k]) == quot, k

    def test_non_unit_divisor_rejected(self):
        with pytest.raises(ValueError):
            divide([1, 2, 3], [2, 1, 0])
        with pytest.raises(ValueError):
            divide([1, 2, 3], [0, 1, 0])


class TestIntPolyDivmod:
    def test_items_are_the_trimmed_coefficients(self):
        assert IntPoly([1, 2, 0, 0]) == (1, 2)
        assert IntPoly((0, 0)) == IntPoly() == ()

    def test_exact_and_with_remainder(self):
        assert IntPoly((-1, 0, 1)).divmod_by(IntPoly((-1, 1))) == (IntPoly((1, 1)), IntPoly())
        assert IntPoly((2, 0, 1)).divmod_by(IntPoly((-1, 1))) == (IntPoly((1, 1)), IntPoly((3,)))

    def test_not_divisible_in_z(self):
        num = IntPoly((0, 1))
        assert num.divmod_by(IntPoly((0, 2))) == (IntPoly(), num)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            IntPoly((1,)).divmod_by(IntPoly())


def reference_coeff_x(f, n):
    """The unoptimised coeff_x: a fresh comb (and 3**j) for every term."""
    if n < 0:
        return 0
    b = f.pow13t
    if b == 0:
        factor = (1, -3)
    elif b == 1:
        factor = (1,)
    else:
        factor = [comb(b - 2 + j, j) * 3**j for j in range(n + 1)]
    numer = f.numer
    num = [0] * min(n + 1, len(numer) + len(factor) - 1)
    for i, a in enumerate(numer[: len(num)]):
        for j, c in enumerate(factor[: len(num) - i]):
            num[i + j] += a * c
    c1 = 2 * n + 1 + f.pow1t
    return sum(c * comb(c1 - 1 + (n - j), n - j) for j, c in enumerate(num))


class TestBinomialDiagonal:
    def test_matches_comb(self):
        # every start, K = 0 and N = K included, and counts past the diagonal's end
        for top in range(12):
            for bottom in range(top + 1):
                for count in range(bottom + 4):
                    expected = [comb(top - j, bottom - j) if j <= bottom else 0
                                for j in range(count)]
                    assert binomial_diagonal(top, bottom, count) == expected, (top, bottom, count)

    def test_long_diagonal(self):
        assert binomial_diagonal(480, 160, 161) == [comb(480 - j, 160 - j) for j in range(161)]

    @pytest.mark.parametrize("top,bottom", [(3, 4), (3, -1), (-1, -1)])
    def test_out_of_range_rejected(self, top, bottom):
        with pytest.raises(ValueError):
            binomial_diagonal(top, bottom, 1)


class TestTRational:
    def test_numerator_is_trimmed(self):
        assert TRational((0, 1, 0, 0), pow1t=2).numer == (0, 1)
        assert TRational((0, 0)) == TRational(())
        assert TRational((1, 0), pow1t=1).drop_zshift() == TRational((1,), pow1t=1)

    @pytest.mark.parametrize("numer", [IntPoly((1,)), [1], 1], ids=["IntPoly", "list", "int"])
    def test_numerator_must_be_a_tuple(self, numer):
        with pytest.raises(TypeError, match="numerator is a tuple"):
            TRational(numer)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            TRational((1,), pow1t=-1)


class TestCoeffX:
    def test_one_over_one_minus_t(self):
        f = TRational((1,), pow1t=1)
        assert [coeff_x(f, n) for n in range(5)] == [1, 1, 3, 12, 55]

    def test_constant(self):
        assert coeff_x(TRational(), 0) == 1

    def test_cubed_denominator(self):
        f = TRational((1,), pow1t=3)
        assert coeff_x(f, 1) == 3

    def test_area_form(self):
        f = TRational((0, 1, 3), pow1t=1, pow13t=2)
        assert coeff_x(f, 2) == 12

    def test_zshift_rejected(self):
        with pytest.raises(ValueError):
            coeff_x(TRational(zshift=1), 0)

    def test_negative_index_is_zero(self):
        assert coeff_x(TRational((1,), pow1t=2), -1) == 0

    @given(
        st.integers(0, 8),
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    def test_additivity(self, n, a, b, p1, p2):
        f = TRational(tuple(p1), pow1t=a, pow13t=b)
        g = TRational(tuple(p2), pow1t=a, pow13t=b)
        total = tuple(x + y for x, y in zip_longest(p1, p2, fillvalue=0))
        f_plus_g = TRational(total, pow1t=a, pow13t=b)
        assert coeff_x(f_plus_g, n) == coeff_x(f, n) + coeff_x(g, n)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.integers(0, 6),
        st.integers(0, 4),
        st.integers(-1, 60),
    )
    def test_matches_reference(self, numer, a, b, n):
        f = TRational(tuple(numer), pow1t=a, pow13t=b)
        assert coeff_x(f, n) == reference_coeff_x(f, n)

    def test_canonical_form_strips_common_factors(self):
        # (1-t)/(1-t)^3 == 1/(1-t)^2 as series, with the factor left in place
        f = TRational((1, -1), pow1t=3)
        g = TRational((1,), pow1t=2)
        assert [coeff_x(f, n) for n in range(11)] == [coeff_x(g, n) for n in range(11)]


class TestZSeriesOf:
    def test_f0(self):
        f = TRational((1,), pow1t=1)
        assert zseries_of(f, 8) == zs(1, 0, 1, 0, 3, 0, 12, 0, 55)

    def test_f2(self):
        f = TRational((1,), pow1t=3, zshift=2)
        assert zseries_of(f, 8) == zs(0, 0, 1, 0, 3, 0, 12, 0, 55)

    def test_g1(self):
        f = TRational((1,), pow1t=3, zshift=1)
        assert zseries_of(f, 7) == zs(0, 1, 0, 3, 0, 12, 0, 55)

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 4))
    def test_truncation_consistency(self, m1, m2, k):
        lo, hi = sorted((m1, m2))
        f = TRational((1,), pow1t=k + 1, zshift=k)
        assert zseries_of(f, hi)[: lo + 1] == zseries_of(f, lo)


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
        x = ZSeries(((0, 1) + (0,) * order)[: order + 1])
        lhs = t * (one - t) * (one - t)
        assert lhs == x if order >= 1 else lhs == ZSeries.zero(0)
