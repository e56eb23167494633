"""CLI surface: flags, formats, exit codes, round-tripping."""

import argparse
import importlib
import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deutsch_paths import verify
from deutsch_paths.cli import build_parser, main
from deutsch_paths.errors import ConsistencyError
from deutsch_paths.series import ZSeries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


class TestVerify:
    def test_area_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "area", "--nmax", "3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_dp_closed_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "dp-closed", "--nmax", "20")
        assert code == 0

    def test_paper_lists_reports_deviations(self, capsys):
        code, out = run(capsys, "verify", "--suite", "paper-lists")
        assert code == 0
        assert "documented deviations" in out
        assert "printed 48967, computed 4896" in out

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
    @pytest.mark.parametrize("exc", [ValueError, ConsistencyError])
    def test_internal_error_is_exit3(self, capsys, monkeypatch, exc):
        def broken():
            raise exc("boom")

        monkeypatch.setattr(verify, "suite_paper_lists", broken)
        code = main(["verify", "--suite", "paper-lists"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "internal error:" in captured.err and "Traceback" in captured.err


class TestSuiteRegistry:
    def test_verify_all_json_matches_reference(self, capsys, monkeypatch):
        monkeypatch.delenv("DEUTSCH_BUDGET", raising=False)
        code, out = run(capsys, "verify", "--suite", "all", "--format", "json")
        assert code == 0
        assert out == (PERFBENCH / "verify_all.json").read_text()

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
