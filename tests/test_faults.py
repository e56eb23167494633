"""A fault matrix: each seeded fault in a route makes `verify` fail.

Every row plants one fault with `monkeypatch`, on the name its caller reads
(modules import names directly: `strip.divide`, not `series.divide`), runs
`verify --suite all --format json` in process, and asserts the exit code
and the exact set of checks that fail.  A fault exits 1, or 3 where a named
guard (`ConsistencyError`) fires; its row then names the guard's message.
A fault that no check catches would exit 0 and stay in the table, marked
as a survivor, until a check catches it; no row does today.
"""

import __future__
import inspect
import json
import textwrap
from math import prod

import pytest

from deutsch_paths import cli, closed, oracle, published, series, strip, verify


def mutant(func, old, new):
    """`func` compiled again from its source with the one occurrence of
    `old` replaced by `new`, reading the globals of its own module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} is not one piece of {func.__name__}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def bound_one_bit_short(monkeypatch):
    # B is one bit longer than the product of the row sums: halve the product
    monkeypatch.setattr(strip, "prod", lambda rows: prod(rows) // 2)


def sequence_sign_flipped(monkeypatch):
    monkeypatch.setattr(strip, "_sequence", mutant(
        strip._sequence, "shift, sign, cap)", "shift, -sign, cap)"))


def diagonal_top_off_by_one(module):
    """The fault in the `binomial_diagonal` that `module` reads: `coeff_x`'s
    in series, `area_coeff`'s in closed."""
    def plant(monkeypatch):
        real = series.binomial_diagonal
        monkeypatch.setattr(module, "binomial_diagonal",
                            lambda top, bottom, count: real(top + 1, bottom, count))
    return plant


def divide_loses_last_coefficient(monkeypatch):
    real = strip.divide
    monkeypatch.setattr(strip, "divide", lambda num, den, known=(): real(num, den, known)[:-1])


def divide_resumes_one_late(monkeypatch):
    # a cold division is untouched; one that resumes from known
    # coefficients computes its first new one a step late
    monkeypatch.setattr(strip, "divide", mutant(
        series.divide, "range(len(quot), len(num))", "range(len(quot) + bool(known), len(num))"))


def row_without_parity_carry(monkeypatch):
    monkeypatch.setattr(strip, "_next_row", mutant(
        strip._next_row, "cur[k] = prev[k - 1] + other", "cur[k] = prev[k - 1]"))


def g_pieces_rejected_exponent(monkeypatch):
    # 2i - 1 - 3k is the exponent the paper's derivation rules out
    monkeypatch.setattr(closed, "_g_pieces", mutant(
        closed._g_pieces, "pow1t=2 * i + 1 - 3 * k", "pow1t=2 * i - 1 - 3 * k"))


def lr_second_binomial_top_plus_one(monkeypatch):
    monkeypatch.setattr(closed, "count_lr_closed", mutant(
        closed.count_lr_closed, "3 * big_n - big_k + i, big_n", "3 * big_n - big_k + i + 1, big_n"))


def lr_first_binomial_swapped(monkeypatch):
    # C(N-K, 3N-K+i+1) is 0 for every n and k, so the count is the second
    # term alone; published reads the name it imported, so both are patched
    wrong = mutant(closed.count_lr_closed, "binom(3 * big_n - big_k + i + 1, big_n - big_k)",
                   "binom(big_n - big_k, 3 * big_n - big_k + i + 1)")
    monkeypatch.setattr(closed, "count_lr_closed", wrong)
    monkeypatch.setattr(published, "count_lr_closed", wrong)


def stabilized_at_barrier_level(monkeypatch):
    # verify reads the name it imported, so both names are patched
    wrong = mutant(strip.stabilized, "order + level, order, known", "level, order, known")
    monkeypatch.setattr(strip, "stabilized", wrong)
    monkeypatch.setattr(verify, "stabilized", wrong)


def rl_ceiling_one_low(monkeypatch):
    monkeypatch.setattr(oracle, "_walk", mutant(
        oracle._walk, "top + n - pos - 1 if rl", "top + n - pos - 2 if rl"))


def steps_capped_at_five(monkeypatch):
    real = oracle._steps
    monkeypatch.setattr(oracle, "_steps", lambda direction, level, cap: (
        step for step in real(direction, level, cap) if abs(step - level) <= 5))


def walk_keeps_no_tail(monkeypatch):
    # every tail must end below `top`, so no closed path survives
    monkeypatch.setattr(oracle, "_walk", mutant(oracle._walk, "at <= top", "at < top"))


def area_sweep_two_short(monkeypatch):
    monkeypatch.setattr(oracle, "area_check", mutant(
        oracle.area_check, "range(n_max + 1)", "range(n_max - 1)"))


def a9_coefficient_bumped(monkeypatch):
    # a_9 = 1 - 7x + 10x^2 - x^3: bump its last coefficient when it has two
    # or more (beta_7 has one, so a fault there could change nothing)
    real = strip._term

    def term(name, n, cap):
        out = real(name, n, cap)
        if (name, n) == ("a", 9) and len(out) >= 2:
            out[-1] += 1
        return out

    monkeypatch.setattr(strip, "_term", term)


def gauss_jordan_skips_rows_above(monkeypatch):
    # plain Bareiss: the pivots, so the determinant, stay right; the
    # augmented column of every row but the last is never finished
    monkeypatch.setattr(strip, "_bareiss", mutant(
        strip._bareiss, "mat[:r] + mat[r + 1:]", "mat[r + 1:]"))


ROOTS_AN_BN = {f"roots: a_n/b_n closed forms at t={t} (n<=30)"
               for t in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)}

# fault -> (exit code, the failing checks as "suite: name", or for exit 3
# the ConsistencyError's message)
FAULTS = {
    "bareiss B one bit short": (
        bound_one_bit_short, 3,
        "Bareiss determinant has more than 1 digits"),
    "_sequence step sign flipped": (
        sequence_sign_flipped, 1,
        {"cramer: d_m == direct determinant (m<=12)", "cramer: d_m == a_(m+1) (m<=30)",
         *ROOTS_AN_BN}),
    "coeff_x's binomial_diagonal top off by one": (
        diagonal_top_off_by_one(series), 1,
        {"dp-closed: RL closed form == DP (n<=20, i<=12)",
         "area: closed sum == GF extraction == convolution (n<=30)",
         "paper-lists: deviations match the documented errata exactly",
         "paper-lists: f lists exact up to z^8",
         "identities: f_0 == g_0 to order 60"}),
    "area_coeff's binomial_diagonal top off by one": (
        diagonal_top_off_by_one(closed), 1,
        {"area: closed sum == GF extraction == convolution (n<=30)",
         "area: oracle total area (n<=3)"}),
    "divide loses its last coefficient": (
        divide_loses_last_coefficient, 1,
        {"cramer: three-way equality (h<=10, order 20)",
         "identities: f_0 == g_0 to order 60"}),
    "a_9 coefficient bumped in _term": (
        a9_coefficient_bumped, 1,
        {"cramer: three-way equality (h<=10, order 20)",
         "cramer: Delta_(m,q) == direct determinant (m<=12)"}),
    "Gauss-Jordan skips the rows above the pivot": (
        gauss_jordan_skips_rows_above, 1,
        {"cramer: Delta_(m,q) == direct determinant (m<=12)"}),
    # roots asks stabilized for g_0 to order 24, then identities to order 60,
    # which resumes from the 24's coefficients: the one resume of the run
    "divide resumes one coefficient late": (
        divide_resumes_one_late, 1,
        {"identities: f_0 == g_0 to order 60"}),
    "_next_row without its parity carry": (
        row_without_parity_carry, 1,
        {"dp-closed: LR closed form == DP (n<=20)",
         "dp-closed: RL closed form == DP (n<=20, i<=12)",
         "cramer: three-way equality (h<=10, order 20)"}),
    "_g_pieces at the exponent 2i - 1 - 3k": (
        g_pieces_rejected_exponent, 1,
        {"dp-closed: RL closed form == DP (n<=20, i<=12)",
         "area: closed sum == GF extraction == convolution (n<=30)",
         "paper-lists: deviations match the documented errata exactly",
         "paper-lists: f lists exact up to z^8"}),
    "count_lr_closed's second binomial top one too high": (
        lr_second_binomial_top_plus_one, 1,
        {"dp-closed: LR closed form == DP (n<=20)",
         "dp-closed: generalized Catalan identity (N<=40)"}),
    "count_lr_closed's first binomial with its arguments swapped": (
        lr_first_binomial_swapped, 1,
        {"dp-closed: LR closed form == DP (n<=20)",
         "dp-closed: generalized Catalan identity (N<=40)",
         "paper-lists: deviations match the documented errata exactly",
         "paper-lists: f lists exact up to z^8"}),
    "stabilized at the barrier h = level": (
        stabilized_at_barrier_level, 1,
        {"cramer: bounded coefficients grow monotonically to the limit",
         "identities: f_0 == g_0 to order 60"}),
    "the RL ceiling in _walk one too low": (
        rl_ceiling_one_low, 1,
        {f"reversal: reversal bijection at n={n}" for n in range(2, 15, 2)}),
    # area's oracle walks closed paths of length <= 6, none of which takes a
    # step longer than 5; reversal's count against cat3 sees the lost paths
    "_steps capped at length 5": (
        steps_capped_at_five, 1,
        {f"reversal: reversal bijection at n={n}" for n in range(8, 15, 2)}),
    # enumerate_paths walks to top = n, so area's oracle loses only the
    # paths that end at n, none of them closed
    "_walk keeps no tail that ends at top": (
        walk_keeps_no_tail, 1,
        {f"reversal: reversal bijection at n={n}" for n in range(0, 15, 2)}),
    "area_check's sweep two half-lengths short": (
        area_sweep_two_short, 1,
        {"area: oracle total area (n<=3)"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_verify(monkeypatch, capsys, fault):
    plant, code, caught = FAULTS[fault]
    plant(monkeypatch)
    assert cli.main(["verify", "--suite", "all", "--format", "json"]) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert (out, err.splitlines()[-1]) == ("", f"deutsch_paths.errors.ConsistencyError: {caught}")
        return
    failing = {f"{suite['suite']}: {check['name']}" for suite in json.loads(out)["suites"]
               for check in suite["checks"] if not check["passed"]}
    assert failing == caught


def test_unfaulted_run_passes(capsys):
    # the matrix's baseline: every check passes with no fault planted
    assert cli.main(["verify", "--suite", "all", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
