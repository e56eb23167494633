"""Closed forms: binomial counts, Catalan identity, g rationalization, area."""

import time
from math import comb

import pytest
from hypothesis import given, strategies as st

from deutsch_paths import closed, series
from deutsch_paths.closed import (
    area_coeff,
    area_convolution,
    area_gf,
    binom,
    cat3,
    count_lr_closed,
    count_rl_closed,
    f_closed,
    g_closed,
)
from deutsch_paths.series import TRational, ZSeries, coeff_x, zseries_of
from deutsch_paths.strip import Direction, dp_counts, stabilized


def reference_coefficient(summands, n):
    """[z^n] of a sum of (zshift, piece) pairs, each piece without its own
    z prefactor, placing every piece by its own shift and parity test."""
    total = 0
    for zshift, piece in summands:
        if n >= zshift and (n - zshift) % 2 == 0:
            total += coeff_x(piece, (n - zshift) // 2)
    return total


def pairs(g):
    """g_closed's pieces as (zshift, piece without its z prefactor) pairs."""
    return [(piece.zshift, piece.drop_zshift()) for piece in g]


def g_series(i, order):
    """g_i as a truncated series, one `coefficient` per z power."""
    return ZSeries(g_closed(i).coefficient(n) for n in range(order + 1))


def reference_g_pieces(i):
    """g_i as (zshift, piece) pairs from two loops, the t-numerator pieces
    and then the constant ones, so that one z-shift can carry two pieces."""
    if i == 0:
        return [(0, f_closed(0).drop_zshift())]
    pieces = []
    for k in range(1, i // 2 + 1):
        c = binom(i - 1 - k, k - 1)
        if c:
            pieces.append((i - 2 * k, TRational((0, c), pow1t=2 * i + 1 - 3 * k)))
    for k in range((i - 1) // 2 + 1):
        c = binom(i - 1 - k, k)
        if c:
            pieces.append((i - 2 * k, TRational((c,), pow1t=2 * i + 1 - 3 * k)))
    return pieces


def reference_area_coeff(n):
    """The unoptimised area_coeff: two fresh binomials and a 3**k per term."""
    if n == 0:
        return 0
    return sum(
        3**k * (binom(3 * n - k, n - 1 - k) + 3 * binom(3 * n - 1 - k, n - 2 - k))
        for k in range(n)
    )


def reference_area_convolution(order):
    """sum_i i * f_i * g_i as dense truncated series products, O(order^3)."""
    acc = ZSeries.zero(order)
    for i in range(1, order + 1):
        fi = zseries_of(f_closed(i), order)
        if not any(fi):
            continue
        prod = fi * ZSeries(reference_coefficient(pairs(g_closed(i)), n)
                            for n in range(order + 1))
        acc = acc + ZSeries(i * c for c in prod)
    return acc


class TestBinom:
    def test_values(self):
        assert binom(5, 2) == 10
        assert binom(14, 4) == 1001

    def test_out_of_range_zero(self):
        assert binom(3, -1) == 0
        assert binom(3, 4) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)


class TestCountLrClosed:
    @pytest.mark.parametrize(
        "n,k,expected", [(4, 2, 3), (5, 1, 7), (9, 3, 88), (9, 1, 143), (0, 0, 1)]
    )
    def test_spot_values(self, n, k, expected):
        assert count_lr_closed(n, k) == expected

    def test_parity_zero(self):
        assert count_lr_closed(5, 2) == 0
        assert count_lr_closed(4, 3) == 0

    def test_matches_dp(self):
        table = dp_counts(Direction.LR, 40)
        for n in range(41):
            for k in range(n + 1):
                assert count_lr_closed(n, k) == table.count(n, k)


class TestCat3:
    @pytest.mark.parametrize("n,expected", [(0, 1), (2, 3), (5, 273), (6, 1428)])
    def test_values(self, n, expected):
        assert cat3(n) == expected

    def test_equals_closed_count(self):
        assert all(cat3(n) == count_lr_closed(2 * n, 0) for n in range(41))


class TestFClosed:
    def test_k0(self):
        assert zseries_of(f_closed(0), 6) == (1, 0, 1, 0, 3, 0, 12)

    def test_k2(self):
        assert zseries_of(f_closed(2), 6) == (0, 0, 1, 0, 3, 0, 12)

    def test_k1_z7(self):
        assert zseries_of(f_closed(1), 7)[7] == 30

    def test_structure(self):
        f = f_closed(3)
        assert (f.zshift, f.pow1t, f.pow13t) == (3, 4, 0)


class TestGClosed:
    def test_g1_is_single_piece(self):
        g = g_closed(1)
        assert len(g) == 1
        assert zseries_of(g[0], 9) == (0, 1, 0, 3, 0, 12, 0, 55, 0, 273)
        assert g_series(1, 9) == (0, 1, 0, 3, 0, 12, 0, 55, 0, 273)

    def test_g2_split(self):
        g = g_closed(2)
        assert g.coefficient(8) == 218
        # the two pieces are z^2/(1-t)^5 and t/(1-t)^2
        shifts = sorted(piece.zshift for piece in g)
        assert shifts == [0, 2]

    def test_g3_z11(self):
        assert g_closed(3).coefficient(11) == 4896

    def test_matches_two_loop_reference(self):
        for i in range(31):
            g, ref = g_closed(i), reference_g_pieces(i)
            assert all(
                g.coefficient(n) == reference_coefficient(ref, n) for n in range(81)
            ), i

    def test_pieces_are_shifted_trationals(self):
        for i in range(40):
            g = g_closed(i)
            assert isinstance(g, tuple) and g
            assert all(isinstance(piece, TRational) for piece in g)

    def test_one_piece_per_zshift(self):
        for i in range(40):
            shifts = [piece.zshift for piece in g_closed(i)]
            assert len(shifts) == len(set(shifts)), (i, shifts)

    def test_zshifts_have_the_level_parity(self):
        # `coefficient` tests the parity once, against the first piece
        for i in range(40):
            assert g_closed(i)[0].zshift == i
            assert all((piece.zshift - i) % 2 == 0 for piece in g_closed(i)), i

    def test_coefficient_of_other_parity_is_zero(self):
        for i in range(13):
            assert all(g_closed(i).coefficient(n) == 0 for n in range(i + 1, 60, 2)), i

    def test_g0_equals_f0(self):
        assert g_closed(0) == (f_closed(0),)
        assert g_series(0, 20) == zseries_of(f_closed(0), 20)

    @pytest.mark.parametrize("i", range(9))
    def test_matches_stabilized(self, i):
        order = 14
        assert g_series(i, order) == stabilized(Direction.RL, i, order)


class TestCountRlClosed:
    @pytest.mark.parametrize(
        "n,i,expected", [(3, 1, 3), (2, 2, 2), (11, 3, 4896), (0, 0, 1)]
    )
    def test_spot_values(self, n, i, expected):
        assert count_rl_closed(n, i) == expected

    def test_parity_zero(self):
        assert count_rl_closed(3, 2) == 0

    def test_matches_placement_by_pieces(self):
        # the sum over pieces without a parity test per piece, against
        # placing each piece by its own shift and parity
        for i in range(13):
            ref = pairs(g_closed(i))
            for n in range(81):
                assert count_rl_closed(n, i) == reference_coefficient(ref, n), (n, i)

    def test_matches_dp(self):
        table = dp_counts(Direction.RL, 30)
        for n in range(31):
            for i in range(min(n, 12) + 1):
                assert count_rl_closed(n, i) == table.count(n, i)

    def test_matches_all_pieces(self):
        for i in range(41):
            g = g_closed(i)
            for n in range(61):
                assert count_rl_closed(n, i) == g.coefficient(n), (n, i)

    @pytest.mark.parametrize("level", [2001, 2002])
    def test_far_level_builds_reachable_pieces(self, monkeypatch, level):
        # a piece is two binomials; only the k >= (level - n)/2 reach [z^n]
        calls = 0

        def counting(n, k):
            nonlocal calls
            calls += 1
            return binom(n, k)

        monkeypatch.setattr(closed, "binom", counting)
        for n in range(10):
            calls = 0
            count_rl_closed(n, level)
            assert calls == (0 if (n - level) % 2 else 2 * (n // 2 + 1)), n

    def test_far_level_is_fast(self):
        # TestStabilized.test_far_level's reference: about 1 s per level
        # when every piece of g_2001 was built
        def far_levels():
            start = time.perf_counter()
            for level in (2001, 2002):
                [count_rl_closed(n, level) for n in range(10)]
            return time.perf_counter() - start

        assert min(far_levels() for _ in range(3)) < 0.1

    @given(st.integers(0, 24), st.integers(0, 10))
    def test_parity_vanishing(self, n, i):
        if (n - i) % 2 == 1:
            assert count_rl_closed(n, i) == 0


class TestArea:
    def test_gf_structure(self):
        gf = area_gf()
        assert gf.numer == (0, 1, 3)
        assert (gf.pow1t, gf.pow13t, gf.zshift) == (1, 2, 0)

    def test_gf_extraction(self):
        assert [coeff_x(area_gf(), n) for n in range(4)] == [0, 1, 12, 102]

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 12), (3, 102)])
    def test_coeff_values(self, n, expected):
        assert area_coeff(n) == expected

    def test_coeff_matches_reference(self):
        for n in range(201):
            assert area_coeff(n) == reference_area_coeff(n), n

    def test_one_comb_per_coefficient(self, monkeypatch):
        # the binomials of both routes lie on one diagonal each, walked by
        # exact ratios; a comb per term makes about 200 calls at n = 100
        calls = 0

        def counting(n, k):
            nonlocal calls
            calls += 1
            return comb(n, k)

        monkeypatch.setattr(series, "comb", counting)
        monkeypatch.setattr(closed, "comb", counting)
        for route in (lambda: area_coeff(100), lambda: coeff_x(area_gf(), 100)):
            calls = 0
            route()
            assert 0 < calls <= 2

    def test_three_routes_agree(self):
        gf = area_gf()
        conv = area_convolution(60)
        for n in range(31):
            assert area_coeff(n) == coeff_x(gf, n) == conv[2 * n]

    def test_convolution_small(self):
        assert area_convolution(4) == (0, 0, 1, 0, 12)
        assert area_convolution(0) == ZSeries.zero(0)

    def test_convolution_matches_dense_products(self):
        # a truncated series product's coefficients do not depend on the
        # order it is truncated at, so one dense reference serves every order
        full = reference_area_convolution(60)
        for order in range(61):
            assert area_convolution(order) == full[: order + 1], order

    def test_convolution_expands_merged_pieces(self, monkeypatch):
        calls = 0

        def counting(f, n):
            nonlocal calls
            calls += 1
            return coeff_x(f, n)

        # the merged pieces are expanded by one coeff_x per coefficient
        monkeypatch.setattr(closed, "coeff_x", counting)
        area_convolution(60)
        # O(order) merged pieces times O(order) coefficients each; the dense
        # products make about 21000 calls
        assert 0 < calls <= 2 * 61**2
