"""Cross-validation suites tying every computation route together.

Each suite returns a list of check results; the CLI renders them and turns
any failure into a nonzero exit.  The suites deliberately pit independent
routes against each other: dynamic programming vs closed forms, Cramer
quotients vs direct elimination, formula vs brute-force oracle.
"""

from __future__ import annotations

from collections import namedtuple

from . import closed, oracle, published, roots
from .errors import UsageError, VerificationFailure
from .series import TRational, coeff_x, t_series, zseries_of
from .strip import (
    Direction,
    bounded_f,
    bounded_g,
    delta,
    deltas_direct,
    det_d,
    det_direct,
    dp_counts,
    sequence_terms,
    solve_system,
    stabilized,
)

CheckResult = namedtuple("CheckResult", "name passed detail")


class SuiteReport(namedtuple("SuiteReport", "suite checks notes")):
    """A suite's name, its CheckResults and its notes, the two lists
    filled as the suite runs."""

    __slots__ = ()

    def __new__(cls, suite: str) -> "SuiteReport":
        return super().__new__(cls, suite, [], [])

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))


def suite_dp_closed(nmax: int) -> SuiteReport:
    """Closed-form counts against unbounded dynamic programming."""
    rep = SuiteReport("dp-closed")
    lr = dp_counts(Direction.LR, nmax)
    bad = [
        (n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
        if closed.count_lr_closed(n, k) != lr.count(n, k)
    ]
    rep.add(f"LR closed form == DP (n<={nmax})", not bad, f"first mismatch {bad[:1]}")
    rl_nmax = min(nmax, 30)
    rl = dp_counts(Direction.RL, rl_nmax)
    bad = [
        (n, i)
        for n in range(rl_nmax + 1)
        for i in range(min(n, 12) + 1)
        if closed.count_rl_closed(n, i) != rl.count(n, i)
    ]
    rep.add(f"RL closed form == DP (n<={rl_nmax}, i<={min(rl_nmax, 12)})", not bad, f"first mismatch {bad[:1]}")
    bad = [n for n in range(41) if closed.count_lr_closed(2 * n, 0) != closed.cat3(n)]
    rep.add("generalized Catalan identity (N<=40)", not bad, f"first mismatch {bad[:1]}")
    bad = [
        (n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
        if (n - k) % 2 == 1
        and (closed.count_lr_closed(n, k) or closed.count_rl_closed(n, k)
             or lr.count(n, k) or (n <= rl_nmax and rl.count(n, k)))
    ]
    rep.add("parity vanishing", not bad, f"first mismatch {bad[:1]}")
    return rep


def _three_way_mismatch(h_max: int, order: int) -> str:
    """The first (direction, h, level) where the DP column, the Cramer
    quotient and the banded solve disagree, or "" if they never do."""
    for direction in Direction:
        quot = bounded_f if direction is Direction.LR else bounded_g
        for h in range(h_max + 1):
            table = dp_counts(direction, order, height=h)
            sol = solve_system(direction, h, order)
            for level in range(h + 1):
                cram = quot(level, h, order)
                dp_col = tuple(table.count(n, level) for n in range(order + 1))
                if cram != dp_col or cram != sol[level]:
                    return f"{direction.value} h={h} level={level}"
    return ""


def _monotone_mismatch(small: int) -> str:
    """The first "level=.. h=.." where bounded_f's coefficients up to
    z^small fall below the previous barrier's or rise above the limit, or
    "" if they never do."""
    for level in (0, 1, 2):
        ref = stabilized(Direction.LR, level, small)
        prev = (0,) * (small + 1)
        for h in range(level, small + level + 3):
            cur = bounded_f(level, h, small)
            if any(p > c or c > r for p, c, r in zip(prev, cur, ref)):
                return f"level={level} h={h}"
            prev = cur
    return ""


def suite_cramer() -> SuiteReport:
    """DP = Cramer quotient = banded solve, plus the determinant oracles.
    A failing check names the first place it failed; a passing one says
    nothing."""
    rep = SuiteReport("cramer")
    h_max, order, m_max = 10, 20, 12
    detail = _three_way_mismatch(h_max, order)
    rep.add(f"three-way equality (h<={h_max}, order {order})", not detail, detail)

    detail = next((f"m={m}" for m in range(m_max + 1)
                   if det_d(m, order) != det_direct(m, order)), "")
    rep.add(f"d_m == direct determinant (m<={m_max})", not detail, detail)
    # every Delta_(m,q), q = 1..m, from one elimination per m
    detail = next((f"m={m} q={q}" for m in range(1, m_max + 1)
                   for q, direct in zip(range(1, m + 1), deltas_direct(m, order), strict=True)
                   if delta(m, q, order) != direct), "")
    rep.add(f"Delta_(m,q) == direct determinant (m<={m_max})", not detail, detail)
    # each from its own stream: d keeps its own initial terms 1, 1, 1 - x
    d_terms, a_terms = sequence_terms("d", 30, order), sequence_terms("a", 31, order)
    detail = next((f"m={m}" for m, (d, a) in enumerate(zip(d_terms, a_terms[1:], strict=True))
                   if d != a), "")
    rep.add("d_m == a_(m+1) (m<=30)", not detail, detail)

    detail = _monotone_mismatch(8)
    rep.add("bounded coefficients grow monotonically to the limit", not detail, detail)
    return rep


def suite_area(oracle_nmax: int, budget: int) -> SuiteReport:
    """Area identity along all three routes plus the brute-force oracle."""
    rep = SuiteReport("area")
    nmax = 30
    gf = closed.area_gf()
    conv = closed.area_convolution(2 * nmax)
    bad = [
        n
        for n in range(nmax + 1)
        if not closed.area_coeff(n) == coeff_x(gf, n) == conv[2 * n]
    ]
    rep.add(f"closed sum == GF extraction == convolution (n<={nmax})", not bad, f"{bad[:1]}")
    try:
        pairs = oracle.area_check(oracle_nmax, budget=budget)
        rep.add(
            f"oracle total area (n<={oracle_nmax})",
            True,
            " ".join(str(v) for _, v in pairs),
        )
    except VerificationFailure as exc:
        rep.add(f"oracle total area (n<={oracle_nmax})", False, str(exc))
    return rep


def suite_roots() -> SuiteReport:
    """Numeric certification of every radical closed form."""
    rep = SuiteReport("roots")
    n_max = 30
    grid = [round(0.05 * k, 2) for k in range(1, 7)]  # 0.05 .. 0.30
    for t in grid:
        rs = roots.root_set(t)
        failures = roots.verify_factorizations(rs)
        rep.add(f"factorization identities at t={t}", not failures, "; ".join(failures))
        failures = roots.verify_an_bn(rs, n_max)
        rep.add(f"a_n/b_n closed forms at t={t} (n<={n_max})", not failures, "; ".join(failures))
    ok = all(
        abs(roots.t_of_z(roots.root_set(t).z) - t) < 1e-12 for t in grid
    )
    rep.add("t_of_z inverts t -> sqrt(t)(1-t)", ok)
    for i, z in ((0, 0.1), (1, 0.1), (2, 0.2)):
        failures = roots.verify_g_numeric(i, 24, z)
        rep.add(f"numeric mu-form of g_{i} at z={z}", not failures, "; ".join(failures))
    return rep


def suite_reversal(n_max: int, budget: int) -> SuiteReport:
    """Reversal bijection between the two closed-path families."""
    rep = SuiteReport("reversal")
    for n in range(0, n_max + 1, 2):
        try:
            info = oracle.reverse_check(n, budget=budget)
            rep.add(f"reversal bijection at n={n}", True, f"{info['closed_paths']} paths")
        except VerificationFailure as exc:
            rep.add(f"reversal bijection at n={n}", False, str(exc))
    return rep


def suite_paper_lists() -> SuiteReport:
    """Published series tables vs computed values; the documented errata are
    reported, and the diff must equal the documented set exactly."""
    rep = SuiteReport("paper-lists")
    devs = published.printed_deviations()
    for d in sorted(devs):
        rep.notes.append(
            f"{d.family}_{d.level}[z^{d.order}]: printed {d.printed}, computed {d.computed}"
        )
    extra = devs - published.DOCUMENTED_DEVIATIONS
    missing = published.DOCUMENTED_DEVIATIONS - devs
    rep.add(
        "deviations match the documented errata exactly",
        not extra and not missing,
        f"extra={sorted(extra)[:2]} missing={sorted(missing)[:2]}",
    )
    rep.add("f lists exact up to z^8", all(d.order > 8 for d in devs))
    return rep


def suite_identities() -> SuiteReport:
    """A few global identities that belong to no single suite."""
    rep = SuiteReport("identities")
    f0 = zseries_of(closed.f_closed(0), 60)
    g0 = stabilized(Direction.RL, 0, 60)
    rep.add("f_0 == g_0 to order 60", f0 == g0)
    t = t_series(40)
    zf1 = zseries_of(TRational((1,), pow1t=2, zshift=2), 81)  # z*f_1
    ok = all(t[n] == zf1[2 * n] for n in range(41)) and all(
        c == 0 for p, c in enumerate(zf1) if p % 2 == 1
    )
    rep.add("t(x) == z*f_1(z) under x=z^2 to order 40", ok)
    return rep


# name -> (runner(nmax, budget), default nmax, oracle length per unit of nmax),
# in run order.  `nmax` is a length for dp-closed and reversal, a half-length
# for area (its oracle enumerates length 2*nmax), and ignored by the rest.
# The runners look each suite up as a module global at call time, so a
# suite replaced on this module (by a tracer or a test) is the one that runs.
SUITES = {
    "dp-closed": (lambda n, b: suite_dp_closed(n), 20, 0),
    "cramer": (lambda n, b: suite_cramer(), None, 0),
    "area": (lambda n, b: suite_area(n, b), 3, 2),
    "roots": (lambda n, b: suite_roots(), None, 0),
    "reversal": (lambda n, b: suite_reversal(n, b), 14, 1),
    "paper-lists": (lambda n, b: suite_paper_lists(), None, 0),
    "identities": (lambda n, b: suite_identities(), None, 0),
}


def run_suites(
    names: list[str],
    *,
    nmax: int | None = None,
    budget: int = oracle.DEFAULT_BUDGET,
) -> list[SuiteReport]:
    """Run the named suites in order.  Unknown names and oracle lengths over
    the budget raise `UsageError` before any suite runs, so a bad request
    does no work."""
    plan = []
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}")
        runner, default, per_nmax = SUITES[name]
        n = default if nmax is None else nmax
        if per_nmax and per_nmax * n > budget:
            raise UsageError(
                f"{name} suite: oracle length {per_nmax * n} exceeds enumeration budget {budget}"
            )
        plan.append((runner, n))
    return [runner(n, budget) for runner, n in plan]
