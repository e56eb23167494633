"""Numeric certification of the radical closed forms."""

import math

import pytest
from hypothesis import given, strategies as st

from deutsch_paths.roots import (
    root_set,
    t_of_z,
    verify_an_bn,
    verify_factorizations,
    verify_g_numeric,
)

T_GRID = [round(0.05 * k, 2) for k in range(1, 7)]


def newton_t_of_z(z: float, tol: float = 1e-13) -> float:
    """The former Newton iteration for t(z), kept as the reference that the
    closed form is checked against.  It stops once |t(1-t)^2 - z^2| < tol,
    so its t is within tol / min (1-t)(1-3t) of the root (< 8e-13 for
    z <= 0.38)."""
    zz = z * z
    if z == 0.0:
        return 0.0
    t = zz
    for _ in range(200):
        res = t * (1 - t) ** 2 - zz
        if abs(res) < tol:
            return t
        t -= res / ((1 - t) * (1 - 3 * t))
    raise ArithmeticError("Newton iteration for t(z) did not converge")


def assert_matches_newton(z: float) -> None:
    t = t_of_z(z)
    assert abs(t - newton_t_of_z(z)) < 1e-12, z
    assert abs(t * (1 - t) ** 2 - z * z) < 1e-15, z


class TestTofZ:
    def test_branch_anchor(self):
        assert t_of_z(0.0) == 0.0

    def test_residual(self):
        t = t_of_z(0.1)
        assert abs(t * (1 - t) ** 2 - 0.01) < 1e-12
        assert abs(t - 0.0102) < 1e-3

    def test_outside_disc(self):
        with pytest.raises(ValueError):
            t_of_z(0.4)

    @pytest.mark.parametrize("t", T_GRID)
    def test_roundtrip(self, t):
        z = math.sqrt(t) * (1 - t)
        assert abs(t_of_z(z) - t) < 1e-12

    def test_matches_newton_on_grid(self):
        for k in range(381):
            assert_matches_newton(k / 1000)  # 0 .. 0.38

    @given(st.floats(0.0, 0.38))
    def test_matches_newton(self, z):
        assert_matches_newton(z)


class TestFactorizations:
    @pytest.mark.parametrize("t", T_GRID)
    def test_identities(self, t):
        rep = verify_factorizations(root_set(t))
        assert rep.passed, rep.failures

    def test_r_sum_at_point_one(self):
        rs = root_set(0.1)
        assert abs(rs.r1 + rs.r2 + rs.r3 - 1) < 1e-10
        assert abs(rs.r1 - 0.9) < 1e-12

    def test_mu_pleasant_formulae(self):
        for t in T_GRID:
            rs = root_set(t)
            assert abs(rs.mu2 + rs.mu3 - rs.z / (1 - t)) < 1e-10
            assert abs(rs.mu2 * rs.mu3 - (t - 1)) < 1e-10


class TestAnBn:
    @pytest.mark.parametrize("t", T_GRID)
    def test_closed_forms(self, t):
        rep = verify_an_bn(root_set(t), 30)
        assert rep.passed, rep.failures

    def test_initial_values(self):
        rs = root_set(0.1)
        rep = verify_an_bn(rs, 2)
        assert rep.passed

    def test_too_close_to_singularity(self):
        with pytest.raises(ValueError):
            verify_an_bn(root_set(0.33), 5)


class TestGNumeric:
    @pytest.mark.parametrize("i,z", [(0, 0.1), (1, 0.1), (2, 0.2), (5, 0.15)])
    def test_mu_form(self, i, z):
        rep = verify_g_numeric(i, 24, z)
        assert rep.passed, rep.failures

    def test_level_cap(self):
        with pytest.raises(ValueError):
            verify_g_numeric(13, 10, 0.1)
