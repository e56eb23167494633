"""CLI surface: flags, formats, exit codes, round-tripping."""

import json

import pytest

from deutsch_paths import verify
from deutsch_paths.cli import main


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
