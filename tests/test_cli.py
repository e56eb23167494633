"""CLI surface: flags, formats, exit codes, round-tripping."""

import argparse
import csv
import decimal
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from deutsch_paths import cli, closed, oracle, strip, verify
from deutsch_paths.cli import FORMATS, build_parser, main
from deutsch_paths.errors import ConsistencyError
from deutsch_paths.series import ZSeries
from deutsch_paths.strip import Direction, bounded_f, dp_counts, dp_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def served_output(argv):
    """`main(argv)`'s exit code, stdout and stderr, without a fixture, so a
    hypothesis example may call it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def triangle_output(direction, n, height, fmt):
    argv = ["triangle", "--direction", direction, "--n", str(n), "--format", fmt]
    if height is not None:
        argv += ["--height", str(height)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def int_rendering(direction, n, height, fmt):
    """`triangle` output as rendered from the int table: json.dumps of the
    whole document, or the str of each cell joined."""
    rows = [list(row) for row in dp_counts(Direction(direction), n, height=height).rows]
    if fmt == "json":
        doc = {"direction": direction, "n": n, "height": height, "rows": rows}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    sep = "," if fmt == "csv" else " "
    return "".join(sep.join(str(v) for v in row) + "\n" for row in rows)


def assert_same_text(got, want):
    """got == want, a mismatch reported at its first differing offset:
    pytest's own diff of two long strings takes time quadratic in them."""
    if got != want:
        diffs = (i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        at = next(diffs, min(len(got), len(want)))
        pytest.fail(
            f"texts of lengths {len(got)}, {len(want)} differ at offset {at}: "
            f"{got[max(at - 20, 0):at + 20]!r} != {want[max(at - 20, 0):at + 20]!r}"
        )


# not plain ASCII digits, though int() takes all of them but the last
NOT_DIGITS = ["1_0", "+5", " 7", "\u0663", "1e3"]


class TestTriangle:
    def test_lr_row4(self, capsys):
        code, out = run(capsys, "triangle", "--direction", "lr", "--n", "4")
        assert code == 0
        assert out.splitlines()[4] == "3 0 3 0 1"

    def test_rl_row2(self, capsys):
        code, out = run(capsys, "triangle", "--direction", "rl", "--n", "2")
        assert code == 0
        assert out.splitlines()[2] == "1 0 2"

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["triangle", "--n", "-1"])
        assert exc.value.code == 2

    @settings(max_examples=150, deadline=None)
    @given(
        direction=st.sampled_from(["lr", "rl"]),
        n=st.integers(0, 60),
        height=st.none() | st.integers(0, 8),
        fmt=st.sampled_from(FORMATS),
    )
    def test_lifted_rows_render_as_ints(self, direction, n, height, fmt):
        # a bound that tables of height >= 2 cross mid-way
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strip, "LIFT_BOUND", 10**6)
            assert_same_text(
                triangle_output(direction, n, height, fmt),
                int_rendering(direction, n, height, fmt),
            )

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rendering_at_the_real_lift_bound(self, fmt):
        rows = list(dp_rows(Direction.LR, 700, height=40, lift=True))
        assert isinstance(rows[-1][0], decimal.Decimal)
        assert len(str(max(rows[-1]))) == 285
        assert_same_text(triangle_output("lr", 700, 40, fmt), int_rendering("lr", 700, 40, fmt))

    def test_decimal_imported_only_by_a_lift(self):
        src = Path(importlib.util.find_spec("deutsch_paths").origin).parents[1]
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from deutsch_paths.cli import main\n"
            "def imported(*argv):\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert main(list(argv)) == 0\n"
            "    return 'decimal' in sys.modules\n"
            "print(imported('triangle', '--n', '300', '--format', 'json'),\n"
            "      imported('series', '--level', '0', '--order', '1700', '--height', '40'),\n"
            "      imported('triangle', '--n', '700', '--height', '40'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout) == (0, "False False True\n"), proc.stderr

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "triangle", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == out.strip()
        assert doc["rows"][2] == [1, 0, 1]


class TestSeries:
    def test_lr_level0(self, capsys):
        code, out = run(
            capsys, "series", "--direction", "lr", "--level", "0", "--order", "8"
        )
        assert code == 0
        assert out.strip() == "1 0 1 0 3 0 12 0 55"

    def test_rl_level1(self, capsys):
        code, out = run(
            capsys, "series", "--direction", "rl", "--level", "1", "--order", "9"
        )
        assert code == 0
        assert out.strip() == "0 1 0 3 0 12 0 55 0 273"

    def test_bounded(self, capsys):
        code, out = run(
            capsys,
            "series", "--direction", "lr", "--level", "0", "--order", "8",
            "--height", "1",
        )
        assert code == 0
        assert out.strip() == "1 0 1 0 1 0 1 0 1"

    def test_far_level(self, capsys):
        # [z^3] for odd L: three odd up-steps, C((L+1)/2, 2) ways; two
        # up-steps and a -1 after the first, L + 1 ways; one up-step, -1, -1
        code, out = run(
            capsys, "series", "--direction", "rl", "--level", "1000000001", "--order", "4"
        )
        assert (code, out.strip()) == (0, "0 1 0 125000001250000003 0")

    def test_level_above_height(self, capsys):
        code = main(["series", "--level", "3", "--order", "4", "--height", "1"])
        assert code == 2

    def test_csv_round_trip(self, capsys):
        code, out = run(
            capsys,
            "series", "--level", "0", "--order", "6", "--format", "csv",
        )
        assert code == 0
        values = [int(v) for v in out.strip().split(",")]
        assert ",".join(str(v) for v in values) == out.strip()


class TestArea:
    def test_values(self, capsys):
        code, out = run(capsys, "area", "--nmax", "3")
        assert code == 0
        assert out.strip() == "0 1 12 102"

    def test_nmax_zero(self, capsys):
        code, out = run(capsys, "area", "--nmax", "0")
        assert code == 0
        assert out.strip() == "0"

    def test_json(self, capsys):
        code, out = run(capsys, "area", "--nmax", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": [0, 1, 2], "area": [0, 1, 12]}

    def test_mismatch_is_exit1_without_output(self, capsys, monkeypatch):
        real = cli.coeff_x
        monkeypatch.setattr(cli, "coeff_x", lambda gf, n: real(gf, n) + (n == 2))
        code = main(["area", "--nmax", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.count("\n") == 1 and captured.err.startswith("area mismatch: ")

    def test_mismatch_past_the_kept_lists(self, capsys, monkeypatch):
        # each request compares its own slices: a fault at n = 7 fails the
        # request that extends the lists past it, and none that stops short
        real = cli.coeff_x
        monkeypatch.setattr(cli, "coeff_x", lambda gf, n: real(gf, n) + (n == 7))
        for nmax, code, out in (("5", 0, "0 1 12 102 784 5763\n"), ("9", 1, ""),
                                ("6", 0, "0 1 12 102 784 5763 41352\n")):
            assert main(["area", "--nmax", nmax]) == code
            captured = capsys.readouterr()
            assert captured.out == out
            assert captured.err.startswith("area mismatch: ") == (code == 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(FORMATS)), min_size=1, max_size=8))
    @example([(30, "text"), (10, "json"), (10, "csv"), (45, "text"), (0, "json")])
    def test_warm_run_matches_a_cold_one(self, requests):
        # the kept lists against the unoptimised form: every request served
        # again on empty lists; the lists hold the largest nmax served
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_AREA_BY_SUM", [])
            mp.setattr(cli, "_AREA_BY_GF", [])
            for served, (nmax, fmt) in enumerate(requests, 1):
                argv = ["area", "--nmax", str(nmax), "--format", fmt]
                warm = served_output(argv)
                with pytest.MonkeyPatch.context() as cold:
                    cold.setattr(cli, "_AREA_BY_SUM", [])
                    cold.setattr(cli, "_AREA_BY_GF", [])
                    assert served_output(argv) == warm, argv
                longest = max(n for n, _ in requests[:served]) + 1
                assert len(cli._AREA_BY_SUM) == len(cli._AREA_BY_GF) == longest


class TestVerify:
    def test_area_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "area", "--nmax", "3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_dp_closed_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "dp-closed", "--nmax", "20")
        assert code == 0

    def test_dp_closed_label_states_checked_levels(self, capsys):
        # the RL check covers levels i <= min(n, 12), so at nmax 5 only i <= 5
        code, out = run(capsys, "verify", "--suite", "dp-closed", "--nmax", "5", "--format", "json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["suites"][0]["checks"]]
        assert names[1] == "RL closed form == DP (n<=5, i<=5)"

    def test_catalan_mismatch_is_exit1(self, capsys, monkeypatch):
        # the binomial-difference form of cat3(10) off by one, and only it
        real = closed.binom
        monkeypatch.setattr(closed, "binom", lambda n, k: real(n, k) + ((n, k) == (31, 10)))
        code, out = run(capsys, "verify", "--suite", "dp-closed", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["suites"][0]["checks"]}
        catalan = checks["generalized Catalan identity (N<=40)"]
        assert (catalan["passed"], catalan["detail"]) == (False, "first mismatch [10]")

    def test_paper_lists_reports_deviations(self, capsys):
        code, out = run(capsys, "verify", "--suite", "paper-lists")
        assert code == 0
        assert "documented deviations" in out
        assert "printed 48967, computed 4896" in out

    def test_undocumented_deviation_is_named(self, capsys, monkeypatch):
        # a deviation the frozen set lacks fails the check, whose detail
        # names it in the record's field=value form, the smallest first
        from deutsch_paths import published

        documented = sorted(published.DOCUMENTED_DEVIATIONS)
        monkeypatch.setattr(published, "DOCUMENTED_DEVIATIONS", frozenset(documented[1:]))
        code, out = run(capsys, "verify", "--suite", "paper-lists", "--format", "json")
        assert code == 1
        check = json.loads(out)["suites"][0]["checks"][0]
        assert (check["passed"], check["detail"]) == (False, (
            "extra=[Deviation(family='f', level=0, order=10, printed=268, computed=273)] "
            "missing=[]"))

    def test_json_output(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "paper-lists", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "paper-lists"

    def test_unknown_suite_exit2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestBudget:
    @pytest.mark.parametrize("raw", ["abc", "1.5", "-1"])
    def test_bad_budget_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("DEUTSCH_BUDGET", raw)
        code = main(["verify", "--suite", "paper-lists"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "DEUTSCH_BUDGET" in captured.err

    @pytest.mark.parametrize("raw", [*NOT_DIGITS, " +20 "])
    def test_only_ascii_digits_are_a_budget(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("DEUTSCH_BUDGET", raw)
        code = main(["verify", "--suite", "paper-lists"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: DEUTSCH_BUDGET must be an integer, got {raw!r}\n"

    def test_nmax_cannot_bypass_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("DEUTSCH_BUDGET", "10")
        assert run(capsys, "verify", "--suite", "reversal", "--nmax", "12")[0] == 2
        monkeypatch.setenv("DEUTSCH_BUDGET", "12")
        assert run(capsys, "verify", "--suite", "reversal", "--nmax", "12")[0] == 0

    @pytest.mark.parametrize(
        "argv", [["--suite", "area", "--nmax", "20"], ["--suite", "all", "--nmax", "9"]]
    )
    def test_over_budget_fails_before_any_suite(self, capsys, monkeypatch, argv):
        ran = []
        for name in ("suite_dp_closed", "suite_cramer", "suite_area"):
            monkeypatch.setattr(verify, name, lambda *a, _n=name, **k: ran.append(_n))
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, ran) == (2, "", [])
        assert "exceeds enumeration budget 16" in captured.err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["triangle", "--n", "abc"],
        ["triangle", "--n", "3", "--height", "abc"],
        ["series", "--level", "abc", "--order", "4"],
        ["series", "--level", "0", "--order", "abc"],
        ["area", "--nmax", "abc"],
        ["verify", "--suite", "area", "--nmax", "abc"],
    ])
    def test_non_integer_names_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        flag = argv[argv.index("abc") - 1]
        assert exc.value.code == 2
        assert f"argument {flag}: must be a nonnegative integer, got 'abc'" in err
        assert "_nonneg" not in err

    @pytest.mark.parametrize("value", NOT_DIGITS)
    @pytest.mark.parametrize("argv", [["triangle", "--n"], ["area", "--nmax"]], ids=["n", "nmax"])
    def test_only_ascii_digits_are_integers(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: must be a nonnegative integer, got {value!r}" in err

    @pytest.mark.parametrize("exc", [ValueError, ConsistencyError])
    def test_internal_error_is_exit3(self, capsys, monkeypatch, exc):
        def broken():
            raise exc("boom")

        monkeypatch.setattr(verify, "suite_paper_lists", broken)
        code = main(["verify", "--suite", "paper-lists"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "internal error:" in captured.err and "Traceback" in captured.err

    def test_non_unit_denominator_is_exit3(self, capsys, monkeypatch):
        # a determinant d_(h+1) whose constant term is not 1 is a bug in
        # the term walk: exit 3, never a mismatch (1) or a usage error (2)
        term = strip._term

        def non_unit_d(name, n, cap):
            coeffs = term(name, n, cap)
            return [2, *coeffs[1:]] if name == "d" else coeffs

        monkeypatch.setattr(strip, "_term", non_unit_d)
        code = main(["series", "--level", "0", "--order", "4", "--height", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "ConsistencyError: d_3 has constant term 2, not 1" in captured.err

    @pytest.mark.parametrize("argv", [
        ["triangle", "--n", "4"],
        ["series", "--level", "0", "--order", "8"],
        ["area", "--nmax", "3"],
        ["verify", "--suite", "paper-lists"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("exc", [BrokenPipeError(32, "Broken pipe"),
                                     OSError(28, "No space left on device")])
    def test_unwritable_stdout_is_exit2(self, exc, argv):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise exc

        err = io.StringIO()
        with redirect_stdout(Unwritable()), redirect_stderr(err):
            code = main(argv)
        assert code == 2
        assert err.getvalue() == f"error: cannot write output: {exc}\n"

    def test_closed_pipe_exits_quietly(self):
        # a reader that goes away early, as `| head -c 100` does; the
        # interpreter's exit-time flush must not report the lost output
        src = Path(importlib.util.find_spec("deutsch_paths").origin).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        with subprocess.Popen(
            [sys.executable, "-m", "deutsch_paths.cli", "triangle", "--n", "400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 2
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


def counted_rows(monkeypatch, fail_after=None):
    """Replaces the row source of `triangle` by `dp_rows` behind a counter,
    raising RuntimeError when asked for row `fail_after`.  Returns the
    counter: rows yielded, and whether the source was closed."""
    seen = {"rows": 0, "closed": False}
    real = cli.dp_rows

    def rows(*args, **kwargs):
        try:
            for row in real(*args, **kwargs):
                if seen["rows"] == fail_after:
                    raise RuntimeError("boom")
                seen["rows"] += 1
                yield row
        finally:
            seen["closed"] = True

    monkeypatch.setattr(cli, "dp_rows", rows)
    return seen


class TestStreaming:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_error_while_streaming_is_exit3(self, monkeypatch, fmt):
        # small chunks, so that some are written before the source fails
        monkeypatch.setattr(cli, "CHUNK_CHARS", 200)
        monkeypatch.setattr(strip, "LIFT_BOUND", 10**6)
        seen = counted_rows(monkeypatch, fail_after=40)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["triangle", "--n", "60", "--height", "8", "--format", fmt])
        assert code == 3
        assert "internal error:" in err.getvalue() and "RuntimeError: boom" in err.getvalue()
        assert seen == {"rows": 40, "closed": True}
        # what was written is the output's first rows, each of them whole
        text = out.getvalue()
        want = int_rendering("lr", 60, 8, fmt)
        assert text and want.startswith(text)
        if fmt == "json":
            written = json.loads(text + "]}")["rows"]
            assert written == json.loads(want)["rows"][: len(written)]
        else:
            assert text.endswith("\n")
        assert 0 < text.count("]" if fmt == "json" else "\n") <= 40

    def test_write_failure_stops_the_rows(self, monkeypatch):
        class FailsOnSecondWrite(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(strip, "LIFT_BOUND", 10**6)  # a lift within the first chunk
        seen = counted_rows(monkeypatch)
        ctx = decimal.getcontext()
        before = (ctx.prec, dict(ctx.traps))
        out, err = FailsOnSecondWrite(), io.StringIO()
        with digit_limit(640):
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["triangle", "--n", "3000", "--height", "40", "--format", "json"])
            limit = sys.get_int_max_str_digits()
        assert (code, limit) == (2, 640)
        assert err.getvalue() == "error: cannot write output: [Errno 28] No space left on device\n"
        assert seen["closed"] and 0 < seen["rows"] < 3001 // 4
        assert out.writes == 2 and len(out.getvalue()) >= cli.CHUNK_CHARS
        assert decimal.getcontext() is ctx and (ctx.prec, dict(ctx.traps)) == before

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux only")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_memory_does_not_grow_with_the_output(self, fmt):
        # each child reports its own peak RSS; the large triangle writes
        # 37.8 MB of output, which a triangle rendered whole would hold
        src = Path(importlib.util.find_spec("deutsch_paths").origin).parents[1]
        script = (
            "import resource, sys\n"
            "from deutsch_paths.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        )

        def peak_kb(*argv):
            proc = subprocess.run(
                [sys.executable, "-c", script, "triangle", *argv, "--format", fmt],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            code, kb = proc.stderr.split()
            assert (proc.returncode, code) == (0, "0"), proc.stderr
            return int(kb)

        small = peak_kb("--n", "1")
        large = peak_kb("--n", "3000", "--height", "40")
        assert large - small <= 8 * 1024, (small, large)


@contextmanager
def digit_limit(digits):
    """The interpreter's int-to-str digit limit set to `digits` (0: none),
    restored on exit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
class TestDigitLimit:
    ARGV = ["series", "--level", "0", "--order", "1700", "--height", "40", "--format"]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_long_coefficients_render(self, capsys, fmt):
        expect = list(bounded_f(0, 40, 1700))
        with digit_limit(640):
            code, out = run(capsys, *self.ARGV, fmt)
            limit = sys.get_int_max_str_digits()
        assert (code, limit) == (0, 640)
        with digit_limit(0):
            assert len(str(expect[-1])) > 640
            if fmt == "json":
                got = json.loads(out)["coeffs"]
            else:
                got = [int(v) for v in out.strip().split("," if fmt == "csv" else " ")]
        assert got == expect

    def test_lifted_triangle_leaves_no_state(self, capsys):
        ctx = decimal.getcontext()
        before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
        with digit_limit(640):
            code, out = run(capsys, "triangle", "--n", "700", "--height", "40")
            limit = sys.get_int_max_str_digits()
        assert (code, limit) == (0, 640)
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)) == before
        assert max(map(len, out.splitlines()[-1].split())) == 285

    def test_argv_stays_guarded(self, capsys):
        with digit_limit(640):
            with pytest.raises(SystemExit) as exc:
                main(["series", "--level", "0", "--order", "1" * 700])
            assert sys.get_int_max_str_digits() == 640
        assert exc.value.code == 2
        assert "must be a nonnegative integer" in capsys.readouterr().err

    def test_too_many_digits_names_the_limit(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started on a rejected argument")

        monkeypatch.setattr(cli, "stabilized", no_work)
        with digit_limit(4300):
            with pytest.raises(SystemExit) as exc:
                main(["series", "--level", "0", "--order", "1" + "0" * 4300])
        err = capsys.readouterr().err.splitlines()[-1]
        assert exc.value.code == 2
        assert err == (
            "deutsch-paths series: error: argument --order: must be a nonnegative integer "
            "of at most 4300 digits (the interpreter's int-to-str limit), got 4301 digits: "
            "'10000000000000000000'..."
        )

    @pytest.mark.parametrize("raw", ["9" * 5000, "-" + "9" * 5000])
    def test_too_long_budget_names_the_limit(self, capsys, monkeypatch, raw):
        monkeypatch.setattr(verify, "run_suites", lambda *a, **k: pytest.fail("suites ran"))
        monkeypatch.setenv("DEUTSCH_BUDGET", raw)
        with digit_limit(4300):
            code = main(["verify", "--suite", "paper-lists"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: DEUTSCH_BUDGET must be an integer of at most 4300 digits (the "
            "interpreter's int-to-str limit), got 5000 digits: '99999999999999999999'...\n"
        )


class TestParserReuse:
    def test_main_builds_one_parser(self, monkeypatch, capsys):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        try:
            assert run(capsys, "triangle", "--n", "3")[0] == 0
            assert run(capsys, "area", "--nmax", "2")[0] == 0
        finally:
            build_parser.cache_clear()  # later tests get an uncounted parser
        assert built.count("deutsch-paths") == 1

    def test_usage_error_leaves_no_state(self, capsys):
        valid = ["series", "--direction", "rl", "--level", "1", "--order", "9"]
        bad = ["series", "--level", "1", "--order", "-2", "--format", "json"]
        first = run(capsys, *valid)
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the same argv through a parser of its own, built fresh
        with pytest.raises(SystemExit) as fresh_exc:
            build_parser.__wrapped__().parse_args(bad)
        assert fresh_exc.value.code == 2
        assert capsys.readouterr().err == err
        # a call that sets every flag, then one that leaves them to defaults
        assert run(capsys, *valid, "--height", "9", "--format", "csv")[0] == 0
        assert run(capsys, *valid) == first == (0, "0 1 0 3 0 12 0 55 0 273\n")


class TestSuiteRegistry:
    def test_verify_all_json_matches_reference(self, capsys, monkeypatch):
        monkeypatch.delenv("DEUTSCH_BUDGET", raising=False)
        code, out = run(capsys, "verify", "--suite", "all", "--format", "json")
        assert code == 0
        assert out == (PERFBENCH / "verify_all.json").read_text()

    @pytest.mark.parametrize("fmt, sep", [("text", ": "), ("csv", ",")])
    def test_verify_all_lines_match_reference(self, capsys, monkeypatch, fmt, sep):
        # the text and csv reports carry the reference json's checks and notes;
        # csv rows go through csv.writer, so a field with a comma is quoted
        monkeypatch.delenv("DEUTSCH_BUDGET", raising=False)
        doc = json.loads((PERFBENCH / "verify_all.json").read_text())
        rows = []
        for suite in doc["suites"]:
            for check in suite["checks"]:
                fields = ["PASS" if check["passed"] else "FAIL", suite["suite"], check["name"]]
                if check["detail"] and not check["passed"]:
                    fields.append(check["detail"])
                rows.append(fields)
            if suite["notes"]:
                rows.append([f"# {suite['suite']}: documented deviations"])
                rows.extend([f"#   {note}"] for note in suite["notes"])
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            expected = buf.getvalue()
        else:
            expected = "".join(sep.join(fields) + "\n" for fields in rows)
        code, out = run(capsys, "verify", "--suite", "all", "--format", fmt)
        assert code == 0
        assert out == expected
        if fmt == "csv":
            assert list(csv.reader(io.StringIO(out))) == rows

    def test_suite_choices_come_from_registry(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert suite.choices == ["all", *verify.SUITES]

    @pytest.mark.parametrize("name", list(verify.SUITES))
    def test_patched_suite_is_the_one_run(self, monkeypatch, name):
        sentinel = verify.SuiteReport(name)
        received = []

        def patched(*args, **kwargs):
            received.append((args, kwargs))
            return sentinel

        monkeypatch.setattr(verify, "suite_" + name.replace("-", "_"), patched)
        assert verify.run_suites([name], budget=15) == [sentinel]
        # the registry is the one home of the defaults: nmax and budget arrive
        # from it, positionally, and a suite without nmax gets no arguments
        default = verify.SUITES[name][1]
        expected = {"dp-closed": (default,), "area": (default, 15), "reversal": (default, 15)}
        assert received == [(expected.get(name, ()), {})]

    def test_cramer_names_first_mismatch(self, monkeypatch):
        real = verify.bounded_g

        def broken(level, h, order):
            g = real(level, h, order)
            return g + ZSeries.one(order) if h >= 3 else g

        monkeypatch.setattr(verify, "bounded_g", broken)
        check = verify.suite_cramer().checks[0]
        assert (check.passed, check.detail) == (False, "rl h=3 level=0")

    def test_cramer_monotone_check_compares_barriers(self, monkeypatch):
        # zero at every odd barrier stays below the limit but does not grow
        real = verify.bounded_f

        def broken(level, h, order):
            return ZSeries.zero(order) if h % 2 else real(level, h, order)

        monkeypatch.setattr(verify, "bounded_f", broken)
        checks = {c.name: c.passed for c in verify.suite_cramer().checks}
        assert checks["bounded coefficients grow monotonically to the limit"] is False

    @pytest.mark.parametrize("name, corrupt, check, detail", [
        ("det_direct", lambda real: lambda m, order: real(m, order) + ZSeries.one(order)
         if m == 5 else real(m, order), "d_m == direct determinant (m<=12)", "m=5"),
        ("deltas_direct", lambda real: lambda m, order: [
            d + ZSeries.one(order) if (m, q) == (4, 2) else d
            for q, d in enumerate(real(m, order), 1)],
         "Delta_(m,q) == direct determinant (m<=12)", "m=4 q=2"),
        ("sequence_terms", lambda real: lambda name, n, order: [
            t + ZSeries.one(order) if (name, j) == ("a", 7) else t
            for j, t in enumerate(real(name, n, order))], "d_m == a_(m+1) (m<=30)", "m=6"),
        # order 8 is the monotone check's alone; the three-way check runs at 20
        ("bounded_f", lambda real: lambda level, h, order: ZSeries.zero(order)
         if (level, h, order) == (1, 4, 8) else real(level, h, order),
         "bounded coefficients grow monotonically to the limit", "level=1 h=4"),
    ], ids=["det_direct", "deltas_direct", "sequence_terms", "bounded_f"])
    def test_cramer_check_names_where_it_failed(self, monkeypatch, name, corrupt, check, detail):
        # each check fails on its own corrupted input and names the first
        # failing place; every other check of the suite still passes silently
        monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
        checks = {c.name: (c.passed, c.detail) for c in verify.suite_cramer().checks}
        assert checks.pop(check) == (False, detail)
        assert set(checks.values()) == {(True, "")}

    def test_parity_reads_the_dp_tables(self, monkeypatch):
        # an RL cell at level 13..20 with odd n - k is beyond the RL closed-form
        # check (levels <= 12): the parity check alone must catch it
        real = verify.dp_counts

        def planted(direction, n_max, height=None):
            table = real(direction, n_max, height)
            if table.direction is not Direction.RL:
                return table
            rows = [list(row) for row in table.rows]
            rows[18][13] = 1
            return strip.CountTable(table.direction, table.height, tuple(map(tuple, rows)))

        monkeypatch.setattr(verify, "dp_counts", planted)
        checks = {c.name: (c.passed, c.detail) for c in verify.suite_dp_closed(20).checks}
        assert checks.pop("parity vanishing") == (False, "first mismatch [(18, 13)]")
        assert all(passed for passed, _ in checks.values())

    def test_reversal_count_is_checked_against_cat3(self, monkeypatch):
        # a walk that loses a path at n=4 (and the failure line reverse_check
        # gave with it) fails that n alone, its lines joined by "; "
        real = oracle.reverse_check

        def short(n, budget):
            return (2, ["reversed LR paths != RL paths at n=4"]) if n == 4 else real(n, budget=budget)

        monkeypatch.setattr(oracle, "reverse_check", short)
        checks = [(c.name, c.passed, c.detail) for c in verify.suite_reversal(6, 16).checks]
        assert checks == [
            ("reversal bijection at n=0", True, "1 paths"),
            ("reversal bijection at n=2", True, "1 paths"),
            ("reversal bijection at n=4", False,
             "reversed LR paths != RL paths at n=4; 2 closed paths at n=4, not cat3(2) = 3"),
            ("reversal bijection at n=6", True, "12 paths"),
        ]

    @pytest.mark.parametrize("returned, passed, detail", [
        (([0, 1, 12, 102], []), True, "0 1 12 102"),
        (([0, 1], []), False, "2 oracle areas for n<=3, not 4"),
        # a mismatch ends the sweep, so its short list is not a second failure
        (([0, 1], ["area mismatch at n=1: oracle 1 vs formula 2"]), False,
         "area mismatch at n=1: oracle 1 vs formula 2"),
    ], ids=["full", "short", "mismatch"])
    def test_area_oracle_must_reach_nmax(self, monkeypatch, returned, passed, detail):
        monkeypatch.setattr(oracle, "area_check", lambda n_max, budget: returned)
        check = verify.suite_area(3, 16).checks[1]
        assert (check.name, check.passed, check.detail) == ("oracle total area (n<=3)", passed, detail)

    def test_unknown_suite_fails_before_any_suite(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "suite_paper_lists", lambda: ran.append(1))
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            verify.run_suites(["paper-lists", "bogus"])
        assert ran == []


def test_tracer_layers_resolve():
    """Every (module, attribute) the benchmark's layer tracer wraps exists;
    methods must be defined on the class itself, where the tracer patches.
    Every registered verify suite is traced."""
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {attr for _, mod, attr, *_ in tracing.LAYERS if mod == "verify"}
    assert traced == {"suite_" + name.replace("-", "_") for name in verify.SUITES}
    for _, mod, attr, *_ in tracing.LAYERS:
        module = importlib.import_module(f"deutsch_paths.{mod}")
        owner, _, name = attr.rpartition(".")
        if owner:
            assert name in vars(getattr(module, owner)), f"{mod}.{attr}"
        else:
            assert callable(getattr(module, name, None)), f"{mod}.{attr}"


# Run in a fresh interpreter, with src/ and perfbench/ on the path, so that
# nothing is imported before the tracer asks `deutsch_paths.cli` for the
# modules it wraps.  argv[1] is the directory the requests write into.
BENCH_CONTRACT = """
import contextlib, subprocess, sys
from pathlib import Path

import tracing

def wrapped():
    for _, mod, attr, *_ in tracing.LAYERS:
        owner, _, name = attr.rpartition(".")
        holder = sys.modules["deutsch_paths." + mod]
        yield hasattr(vars(getattr(holder, owner) if owner else holder)[name], "__wrapped__")

assert "deutsch_paths" not in sys.modules
tracer = tracing.Tracer()
tracer.install()  # imports deutsch_paths.cli, then reads every LAYERS module
assert all(wrapped())
tracer.uninstall()
assert not any(wrapped())

import run
subprocess.run([sys.executable, "-c", run.SETUP_PROBE], check=True)

import checks, workloads
from deutsch_paths import cli

def size(req):
    return sum(int(a) for a in req["argv"] if a.isdigit())

for w in workloads.BLOCKS:
    smallest = {}
    for req in sorted(next(workloads.stream(w, 7)), key=size):
        kind = (req["meta"]["kind"], req["meta"].get("height") is None)
        smallest.setdefault(kind, req)
    for kind, req in smallest.items():
        path = Path(sys.argv[1]) / f"{w}-{kind[0]}.out"
        with open(path, "w") as out, contextlib.redirect_stdout(out):
            rc = cli.main(req["argv"])
        assert rc == 0, (w, req["argv"], rc)
        assert checks.check(req, {"rc": rc, "out": checks.extract(req, str(path))}), (w, req["argv"])
        print(w, *req["argv"])
"""


def test_benchmark_contract(tmp_path):
    """What the benchmark needs of the package, end to end: its set-up probe
    runs, its tracer installs (every LAYERS module loaded by importing the
    cli) and uninstalls, and the smallest request of each kind in each
    workload's first block is served by `cli.main` and passes its check."""
    env = dict(os.environ)
    src = PERFBENCH.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(PERFBENCH), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BENCH_CONTRACT, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    served = proc.stdout.splitlines()
    assert {line.split()[0] for line in served} == {"verify-all", "unbounded-sweep", "bounded-strip"}
    assert len(served) == 6, served  # verify; unbounded series, triangle, area; bounded two


def harness_env():
    """The environment the benchmark's harness gives its child processes:
    src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"), env.get("PYTHONPATH")]))
    return env


def test_traced_verify_request(tmp_path):
    """One verify-all request served under the layer tracer, as a traced
    benchmark run serves each: a fresh interpreter runs tracing.py, which
    installs the tracer (patching every LAYERS name), serves the request,
    uninstalls it and writes its side file.  A LAYERS name the package no
    longer defines kills the run in `install`, before any output or side
    file, where the untraced request still passes."""
    side = tmp_path / "request-0.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracing.py"), str(side), "0",
         "verify", "--suite", "all", "--format", "json"],
        env=harness_env(), cwd=PERFBENCH.parent, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PERFBENCH / "verify_all.json").read_bytes()
    doc = json.loads(side.read_text())
    assert isinstance(doc["pace"], list)
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    functions = doc["trace"]["functions"]
    assert set(functions) == {f"{layer}.{tracing.function_name(attr)}"
                              for layer, _, attr, *_ in tracing.LAYERS}
    assert {name: st["errors"] for name, st in functions.items() if st["errors"]} == {}
    assert functions["cli.main"]["calls"] == 1
    assert (tmp_path / "request-0.spans.json").exists()


# modules a fresh `cli` import and parser build must not load: dataclasses
# and what it pulls in, and what only one path of a request needs (the
# exit-3 traceback, the lifted triangle's decimal, csv's verify report)
NOT_AT_START = ["dataclasses", "inspect", "ast", "dis", "tokenize", "traceback", "decimal", "csv"]


def test_start_up_loads_only_what_it_runs():
    # -S: without site, so a module the interpreter's site hooks load is not
    # taken for one the package loads
    probe = ("import sys; from deutsch_paths.cli import build_parser; build_parser(); "
             "print(*[m for m in sys.argv[1:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *NOT_AT_START],
                          env=harness_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


_NUM = st.integers(-1, 8).map(str)
_FORMAT = st.sampled_from(["text", "csv", "json", "xml"])
_DIRECTION = st.sampled_from(["lr", "rl", "up"])
_FLAGS = {
    "triangle": {"--direction": _DIRECTION, "--n": _NUM, "--height": _NUM, "--format": _FORMAT},
    "series": {
        "--direction": _DIRECTION,
        "--level": _NUM,
        "--order": _NUM,
        "--height": _NUM,
        "--format": _FORMAT,
    },
    "area": {"--nmax": _NUM, "--format": _FORMAT},
    # only the fast suites; --suite is always given, since the default runs all
    "verify": {
        "--suite": st.sampled_from(
            ["dp-closed", "roots", "reversal", "paper-lists", "identities", "bogus"]
        ),
        "--nmax": _NUM,
        "--format": _FORMAT,
    },
}
_JUNK = st.sampled_from(["--bogus", "junk", "3", "-x", "--n=", "lr"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    names = draw(st.permutations(sorted(flags)))
    # each flag is kept 3 times in 4, so many argv get past argument parsing
    keep = [f for f in names if f == "--suite" or draw(st.integers(0, 3)) > 0]
    argv = [command]
    for flag in keep:
        argv += [flag, draw(flags[flag])]
    for junk in draw(st.lists(_JUNK, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_random_argv_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if code in (0, 1) and fmt == "json":
        text = out.getvalue()
        rendered = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert rendered + "\n" == text
