"""Floating-point certification of the radical closed forms.

The exact integer machinery elsewhere never touches radicals, so this module
checks the cubic factorizations, the explicit roots, and the closed forms of
the two auxiliary sequences numerically at sampled parameters.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .strip import Direction, sequence_terms, stabilized

DISC_RADIUS_SQ = 4.0 / 27.0  # singularity of t(x) sits at t = 1/3
TOL = 1e-10  # residual bound of the verify_* checks (g adds its series tail)


# numeric values of all radical quantities at a parameter t in (0, 1/3)
RootSet = namedtuple("RootSet", "t w z r1 r2 r3 mu1 mu2 mu3 a b c")


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


def _failures(residuals: list[tuple[str, float]], tol: float = TOL) -> list[str]:
    """A failure line, with the identity's name and its residual, for each
    residual that is not below tol (a NaN fails too)."""
    return [f"{name}: residual {r:.3e} >= {tol:.1e}" for name, r in residuals if not abs(r) < tol]


def t_of_z(z: float) -> float:
    """Branch t(0)=0 of t(1-t)^2 = z^2, by Viete's trigonometric solution of
    the cubic: t = 4/3 sin^2(acos(1 - 27 z^2 / 2) / 6)."""
    zz = z * z
    if zz >= DISC_RADIUS_SQ:
        raise ValueError(f"z^2 = {zz:.6f} outside the disc of radius 4/27")
    return 4 / 3 * math.sin(math.acos(1 - 27 * zz / 2) / 6) ** 2


def verify_factorizations(rs: RootSet) -> list[str]:
    """Symmetric-function identities of the two cubic factorizations; the
    failure lines, [] when all hold."""
    r1, r2, r3 = rs.r1, rs.r2, rs.r3
    m1, m2, m3 = rs.mu1, rs.mu2, rs.mu3
    zz = rs.z * rs.z
    return _failures([
        ("r1+r2+r3 = 1", r1 + r2 + r3 - 1),
        ("r1r2+r1r3+r2r3 = 0", r1 * r2 + r1 * r3 + r2 * r3),
        ("r1r2r3 = -z^2", r1 * r2 * r3 + zz),
        ("mu1+mu2+mu3 = 0", m1 + m2 + m3),
        ("sum mu_i mu_j = -1", m1 * m2 + m1 * m3 + m2 * m3 + 1),
        ("mu1 mu2 mu3 = z", m1 * m2 * m3 - rs.z),
        ("mu2+mu3 = z/(1-t)", m2 + m3 - rs.z / (1 - rs.t)),
        ("mu2 mu3 = t-1", m2 * m3 - (rs.t - 1)),
    ])


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


def verify_an_bn(rs: RootSet, n_max: int) -> list[str]:
    """Radical closed forms of a_n and b_n against the exact recurrences
    (one pass over each, `sequence_terms`), both evaluated at the numeric z
    of the RootSet; the failure lines, [] when all agree."""
    if rs.t > 1 / 3 - 0.03:
        raise ValueError("t too close to 1/3 for the 3t-1 denominator")
    order = 2 * n_max  # the polynomials a_n, b_n fit within degree 2n
    a_terms = sequence_terms("a", n_max, order)
    b_terms = sequence_terms("b", n_max, order)
    residuals = []
    for n, (a, b) in enumerate(zip(a_terms, b_terms)):
        residuals.append((f"a_{n}", _a_closed(rs, n) - a.eval_float(rs.z)))
        residuals.append((f"b_{n}", _b_closed(rs, n) - b.eval_float(rs.z)))
    return _failures(residuals)


def verify_g_numeric(i: int, order: int, z: float) -> list[str]:
    """Numeric mu-form of g_i against the stabilized truncated series; the
    failure line, [] when they agree.

    The comparison allows for truncation by adding the magnitude of the last
    retained series term to the tolerance.
    """
    if i > 12:
        raise ValueError("levels above 12 are out of certification scope")
    t = t_of_z(z)
    series = stabilized(Direction.RL, i, order)
    partial = series.eval_float(z)
    last = next((c * z**p for p, c in reversed(list(enumerate(series))) if c), 0.0)
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
    return _failures([(f"g_{i}(z={z})", value - partial)], TOL + abs(last))
