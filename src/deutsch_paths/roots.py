"""Floating-point certification of the radical closed forms.

The exact integer machinery elsewhere never touches radicals, so this module
checks the cubic factorizations, the explicit roots, and the closed forms of
the two auxiliary sequences numerically at sampled parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .closed import f_closed
from .series import zseries_of
from .strip import Direction, seq_a, seq_b, stabilized

DISC_RADIUS_SQ = 4.0 / 27.0  # singularity of t(x) sits at t = 1/3
TOL = 1e-10  # bound on every residual of the certification


@dataclass(frozen=True)
class RootSet:
    """Numeric values of all radical quantities at a parameter t in (0, 1/3)."""

    t: float
    w: float
    z: float
    r1: float
    r2: float
    r3: float
    mu1: float
    mu2: float
    mu3: float
    a: float
    b: float
    c: float


def root_set(t: float) -> RootSet:
    if not 0.0 < t < 1.0 / 3.0:
        raise ValueError("t must lie in (0, 1/3)")
    w = math.sqrt(4 * t - 3 * t * t)
    z = math.sqrt(t) * (1 - t)
    return RootSet(
        t=t,
        w=w,
        z=z,
        r1=1 - t,
        r2=(t + w) / 2,
        r3=(t - w) / 2,
        mu1=z / (t - 1),
        mu2=-z * (t + w) / (2 * t * (t - 1)),
        mu3=z * (-t + w) / (2 * t * (t - 1)),
        a=t,
        b=(2 * t - 1) / 2 + t / (2 * w),
        c=(2 * t - 1) / 2 - t / (2 * w),
    )


@dataclass
class Report:
    """Outcome of a numeric verification; failures carry the identity name
    and the residual."""

    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, name: str, residual: float, tol: float) -> None:
        if not abs(residual) < tol:
            self.failures.append(f"{name}: residual {residual:.3e} >= {tol:.1e}")


def t_of_z(z: float) -> float:
    """Branch t(0)=0 of t(1-t)^2 = z^2, by Viete's trigonometric solution of
    the cubic: t = 4/3 sin^2(acos(1 - 27 z^2 / 2) / 6)."""
    zz = z * z
    if zz >= DISC_RADIUS_SQ:
        raise ValueError(f"z^2 = {zz:.6f} outside the disc of radius 4/27")
    return 4 / 3 * math.sin(math.acos(1 - 27 * zz / 2) / 6) ** 2


def verify_factorizations(rs: RootSet) -> Report:
    """Symmetric-function identities of the two cubic factorizations."""
    rep = Report()
    r1, r2, r3 = rs.r1, rs.r2, rs.r3
    m1, m2, m3 = rs.mu1, rs.mu2, rs.mu3
    zz = rs.z * rs.z
    rep.check("r1+r2+r3 = 1", r1 + r2 + r3 - 1, TOL)
    rep.check("r1r2+r1r3+r2r3 = 0", r1 * r2 + r1 * r3 + r2 * r3, TOL)
    rep.check("r1r2r3 = -z^2", r1 * r2 * r3 + zz, TOL)
    rep.check("mu1+mu2+mu3 = 0", m1 + m2 + m3, TOL)
    rep.check("sum mu_i mu_j = -1", m1 * m2 + m1 * m3 + m2 * m3 + 1, TOL)
    rep.check("mu1 mu2 mu3 = z", m1 * m2 * m3 - rs.z, TOL)
    rep.check("mu2+mu3 = z/(1-t)", m2 + m3 - rs.z / (1 - rs.t), TOL)
    rep.check("mu2 mu3 = t-1", m2 * m3 - (rs.t - 1), TOL)
    return rep


def _a_closed(rs: RootSet, n: int) -> float:
    pre = 1 / (3 * rs.t - 1)
    return pre * (
        -rs.r1 ** (n + 1)
        + (3 * rs.t + rs.w) / (2 * rs.w) * rs.r2 ** (n + 1)
        - (3 * rs.t - rs.w) / (2 * rs.w) * rs.r3 ** (n + 1)
    )


def _b_closed(rs: RootSet, n: int) -> float:
    pre = 1 / (3 * rs.t - 1)
    return pre * (rs.a * rs.mu1**n + rs.b * rs.mu2**n + rs.c * rs.mu3**n)


def verify_an_bn(rs: RootSet, n_max: int) -> Report:
    """Radical closed forms of a_n and b_n against the exact recurrences,
    both evaluated at the numeric z of the RootSet."""
    if rs.t > 1 / 3 - 0.03:
        raise ValueError("t too close to 1/3 for the 3t-1 denominator")
    rep = Report()
    order = 2 * n_max  # the polynomials a_n, b_n fit within degree 2n
    for n in range(n_max + 1):
        exact_a = seq_a(n, order).eval_float(rs.z)
        exact_b = seq_b(n, order).eval_float(rs.z)
        rep.check(f"a_{n}", _a_closed(rs, n) - exact_a, TOL)
        rep.check(f"b_{n}", _b_closed(rs, n) - exact_b, TOL)
    return rep


def verify_g_numeric(i: int, order: int, z: float) -> Report:
    """Numeric mu-form of g_i against the stabilized truncated series.

    The comparison allows for truncation by adding the magnitude of the last
    retained series term to the tolerance.
    """
    if i > 12:
        raise ValueError("levels above 12 are out of certification scope")
    t = t_of_z(z)
    series = (
        stabilized(Direction.RL, i, order) if i > 0 else zseries_of(f_closed(0), order)
    )
    partial = series.eval_float(z)
    last = next((c * z**p for p, c in reversed(list(enumerate(series.coeffs))) if c), 0.0)
    if i == 0:
        value = 1 / (1 - t)
    else:
        rs = root_set(t)
        m2, m3 = rs.mu2, rs.mu3
        power_sum = m2**i + m3**i
        power_diff = (m2**i - m3**i) / (m2 - m3)
        value = t / (2 * (1 - t) ** (i + 1)) * power_sum - z * (t - 2) / (
            2 * (1 - t) ** (i + 2)
        ) * power_diff
    rep = Report()
    rep.check(f"g_{i}(z={z})", value - partial, TOL + abs(last))
    return rep
