"""Acceptance gate: every exit criterion, each printing one pass/fail line.

All checks are exact-integer identities except the radical certification,
which carries the stated float tolerances: 1e-10 (`roots.TOL`) on every
residual of the factorization and a_n/b_n checks, and 1e-12 on the t(z)
inversion.
"""

import math

import pytest

from deutsch_paths import closed, oracle, published, roots
from deutsch_paths.series import coeff_x, t_series, zseries_of
from deutsch_paths.strip import (
    Direction,
    bounded_f,
    bounded_g,
    delta,
    deltas_direct,
    det_d,
    det_direct,
    dp_counts,
    solve_system,
    stabilized,
)


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_generalized_catalan():
    ok = all(
        closed.count_lr_closed(2 * n, 0) == closed.cat3(n) for n in range(41)
    ) and [closed.cat3(n) for n in range(7)] == [1, 1, 3, 12, 55, 273, 1428]
    # the printed finite-barrier values must NOT match
    ok = ok and closed.cat3(5) != 268 and closed.cat3(6) != 1338
    report("criterion 1: generalized Catalan identity (N<=40)", ok)


def test_criterion_2_published_series_vectors():
    devs = published.printed_deviations()
    ok = devs == published.DOCUMENTED_DEVIATIONS
    # f lists exact at every printed order up to z^8
    ok = ok and all(d.order > 8 for d in devs if d.family == "f")
    # g deviations are exactly the level-0 artifacts plus the single typo
    g_devs = {(d.level, d.order) for d in devs if d.family == "g"}
    ok = ok and g_devs == {(0, 10), (0, 12), (0, 14), (0, 16), (3, 11)}
    # stabilized series agree with the closed-form counts used above
    for level, table in published.PRINTED_F.items():
        s = stabilized(Direction.LR, level, 16)
        ok = ok and all(
            s[order] == closed.count_lr_closed(order, level) for order in table
        )
    for level, table in published.PRINTED_G.items():
        s = stabilized(Direction.RL, level, 16)
        ok = ok and all(
            s[order] == closed.count_rl_closed(order, level) for order in table
        )
    report("criterion 2: printed series vectors and documented deviations", ok)


def test_printed_lr_lists_are_strip_counts_at_h7():
    # every printed f list, and g_0 (a copy of f_0), is the strip count at
    # barrier 7, by the DP and by Cramer; up to z^16 a barrier h >= 16
    # counts as unbounded, so no other barrier gives them
    printed = list(published.PRINTED_F.items())
    printed.append((0, published.PRINTED_G[0]))

    def reproduces(h):
        counts = dp_counts(Direction.LR, 16, height=h)
        return all(counts.count(n, k) == v for k, table in printed for n, v in table.items())

    assert [h for h in range(17) if reproduces(h)] == [7]
    for k, table in printed:
        f = bounded_f(k, 7, 16)
        assert all(f[n] == v for n, v in table.items()), k
    g0 = bounded_g(0, 7, 16)
    assert all(g0[n] == v for n, v in published.PRINTED_G[0].items())


def test_criterion_3_three_way_equality():
    order = 20
    ok = True
    for direction in Direction:
        quot = bounded_f if direction is Direction.LR else bounded_g
        for h in range(11):
            table = dp_counts(direction, order, height=h)
            sol = solve_system(direction, h, order)
            for level in range(h + 1):
                series = quot(level, h, order)
                dp_col = tuple(table.count(n, level) for n in range(order + 1))
                ok = ok and series == dp_col and series == sol[level]
    report("criterion 3: DP = Cramer = banded solve (h<=10, order 20)", ok)


def test_criterion_4_determinant_oracles():
    order = 16
    ok = all(det_d(m, order) == det_direct(m, order) for m in range(13))
    # one elimination per m gives every Delta_{m,q}
    ok = ok and all(
        deltas_direct(m, order) == [delta(m, q, order) for q in range(1, m + 1)]
        for m in range(1, 13)
    )
    report("criterion 4: determinant recurrences vs direct elimination (m<=12)", ok)


def test_criterion_5_closed_counts_vs_dp():
    lr = dp_counts(Direction.LR, 40)
    ok = all(
        closed.count_lr_closed(n, k) == lr.count(n, k)
        for n in range(41)
        for k in range(n + 1)
    )
    rl = dp_counts(Direction.RL, 30)
    ok = ok and all(
        closed.count_rl_closed(n, i) == rl.count(n, i)
        for n in range(31)
        for i in range(min(n, 12) + 1)
    )
    report("criterion 5: closed-form counts equal unbounded DP", ok)


def test_criterion_6_f0_equals_g0():
    ok = zseries_of(closed.f_closed(0), 60) == stabilized(Direction.RL, 0, 60)
    report("criterion 6: f_0 == g_0 to order 60", ok)


def test_criterion_7_area():
    gf = closed.area_gf()
    conv = closed.area_convolution(60)
    ok = all(
        closed.area_coeff(n) == coeff_x(gf, n) == conv[2 * n] for n in range(31)
    )
    areas, failures = oracle.area_check(8)
    ok = ok and not failures and len(areas) == 9 and areas[:4] == [0, 1, 12, 102]
    report("criterion 7: area identities (n<=30) and oracle sweep (n<=8)", ok)


def test_criterion_8_radical_formulas():
    ok = True
    for t in [round(0.05 * k, 2) for k in range(1, 7)]:
        rs = roots.root_set(t)
        ok = ok and not roots.verify_factorizations(rs)
        ok = ok and not roots.verify_an_bn(rs, 30)
        z = math.sqrt(t) * (1 - t)
        ok = ok and abs(roots.t_of_z(z) - t) < 1e-12
    report("criterion 8: radical formulas at t in {0.05..0.30}", ok)


def test_criterion_9_reversal_bijection():
    # a path and its reversal have the same area, so the bijection that
    # reverse_check proves carries the area multiset with it
    ok = all(oracle.reverse_check(n) == (closed.cat3(n // 2), []) for n in range(0, 15, 2))
    report("criterion 9: reversal bijection and area invariance (n<=14)", ok)


def test_criterion_10_t_equals_z_f1():
    t = t_series(40)
    f1 = zseries_of(closed.f_closed(1), 81)
    zf1 = f1.shift(1)
    ok = all(t[n] == zf1[2 * n] for n in range(41))
    ok = ok and all(c == 0 for p, c in enumerate(zf1) if p % 2 == 1)
    report("criterion 10: t(x) == z*f_1(z) under x=z^2 to order 40", ok)


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
