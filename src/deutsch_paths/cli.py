"""Command-line frontend.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (bad
arguments or environment, rejected before any work starts) or output that
cannot be written (a closed pipe, a full disk; one `error:` line), 3
internal error (a bug; the traceback goes to stderr).  Each command renders
its whole output before any of it is written.  The `verify --suite` names and
their order come from `verify.SUITES`.  All integer output is exact decimal;
json documents are rendered canonically (sorted keys, fixed separators) so
that parse + re-render is byte-identical.  `triangle` renders in time linear
in its output: it asks `dp_counts` to lift its rows to Decimal once counts
pass about 200 digits (CPython's int-to-str is quadratic in the digit count),
and splices those rows into its json document from their str.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback
from collections.abc import Sequence

from . import closed, oracle, verify
from .errors import UsageError
from .series import coeff_x
from .strip import Direction, bounded_f, bounded_g, dp_counts, stabilized

FORMATS = ("text", "csv", "json")


def _render_json(doc: dict) -> str:
    """`doc`, rendered canonically.  Its "rows", a key that sorts after all
    of its others, may hold Decimals from some row on (a lifted `dp_counts`
    table).  json.dumps cannot render those, so they are spliced in from the
    str of their cells, in time linear in their length; the int rows before
    them still go through json.dumps, which is faster on ints."""
    rows = doc.get("rows", ())
    lifted = next((i for i, row in enumerate(rows) if not isinstance(row[0], int)), len(rows))
    if lifted == len(rows):
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    head = json.dumps({**doc, "rows": rows[:lifted]}, sort_keys=True, separators=(",", ":"))
    pieces = [head[:-2]]  # up to the "]}" that closes the int rows and doc
    for i in range(lifted, len(rows)):
        # a generator, not map(str, ...): CPython 3.11 specialises str(v)
        pieces += (",[" if i else "[", ",".join(str(v) for v in rows[i]), "]")
    pieces.append("]}")
    return "".join(pieces)


def _render_rows(rows: Sequence[Sequence[int]], fmt: str, doc: dict) -> list[str]:
    """The output lines, exact decimals of any length: the int-to-str digit
    limit (Python >= 3.10.7) still guards argv, and is lifted only here."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            return [_render_json(doc)]
        sep = "," if fmt == "csv" else " "
        return [sep.join(str(v) for v in row) for row in rows]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _nonneg(value: str) -> int:
    try:
        n = int(value)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value!r}")


def _budget() -> int:
    raw = os.environ.get("DEUTSCH_BUDGET")
    if raw is None:
        return oracle.DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise UsageError(f"DEUTSCH_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise UsageError(f"DEUTSCH_BUDGET must be nonnegative, got {budget}")
    return budget


def cmd_triangle(args: argparse.Namespace) -> tuple[int, list[str]]:
    direction = Direction(args.direction)
    table = dp_counts(direction, args.n, height=args.height, lift=True)
    return 0, _render_rows(
        table.rows,
        args.format,
        {"direction": direction.value, "n": args.n, "height": args.height, "rows": table.rows},
    )


def cmd_series(args: argparse.Namespace) -> tuple[int, list[str]]:
    direction = Direction(args.direction)
    if args.height is not None:
        if args.level > args.height:
            raise UsageError(f"level {args.level} exceeds height {args.height}")
        fn = bounded_f if direction is Direction.LR else bounded_g
        series = fn(args.level, args.height, args.order)
    else:
        series = stabilized(direction, args.level, args.order)
    coeffs = series.coeffs
    return 0, _render_rows(
        [coeffs],
        args.format,
        {
            "direction": direction.value,
            "level": args.level,
            "order": args.order,
            "height": args.height,
            "coeffs": coeffs,
        },
    )


def cmd_area(args: argparse.Namespace) -> tuple[int, list[str]]:
    ns = list(range(args.nmax + 1))
    by_sum = [closed.area_coeff(n) for n in ns]
    gf = closed.area_gf()
    by_gf = [coeff_x(gf, n) for n in ns]
    if by_sum != by_gf:
        print(f"area mismatch: closed sum {by_sum} vs GF extraction {by_gf}", file=sys.stderr)
        return 1, []
    return 0, _render_rows([by_sum], args.format, {"n": ns, "area": by_sum})


def cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, nmax=args.nmax, budget=_budget())
    all_passed = all(r.passed for r in reports)
    lines: list[str] = []
    if args.format == "json":
        doc = {
            "passed": all_passed,
            "suites": [
                {
                    "suite": r.suite,
                    "passed": r.passed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in r.checks
                    ],
                    "notes": r.notes,
                }
                for r in reports
            ],
        }
        lines.append(_render_json(doc))
    else:
        sep = "," if args.format == "csv" else ": "
        for r in reports:
            for c in r.checks:
                status = "PASS" if c.passed else "FAIL"
                line = f"{status}{sep}{r.suite}{sep}{c.name}"
                if c.detail and not c.passed:
                    line += f"{sep}{c.detail}"
                lines.append(line)
            if r.notes:
                lines.append(f"# {r.suite}: documented deviations")
                lines.extend(f"#   {note}" for note in r.notes)
    return (0 if all_passed else 1), lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process (`main` parses each argv with it): parsing
    keeps no state in the parser, since every default is immutable and
    `set_defaults(func=...)` writes only to the namespace of that parse.
    Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="deutsch-paths",
        description="Exact enumeration of Deutsch paths: triangles, series, "
        "area, and the full cross-validation suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="emit the count triangle")
    p.add_argument("--direction", choices=["lr", "rl"], default="lr")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--height", type=_nonneg, default=None)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("series", help="emit generating-function coefficients")
    p.add_argument("--direction", choices=["lr", "rl"], default="lr")
    p.add_argument("--level", type=_nonneg, required=True)
    p.add_argument("--order", type=_nonneg, required=True)
    p.add_argument("--height", type=_nonneg, default=None)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("area", help="cumulative area coefficients")
    p.add_argument("--nmax", type=_nonneg, required=True)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("verify", help="run cross-validation suites")
    p.add_argument("--suite", choices=["all", *verify.SUITES], default="all")
    p.add_argument(
        "--nmax",
        type=_nonneg,
        default=None,
        help="a path length for dp-closed and reversal, a half-length for area "
        "(its oracle enumerates length 2*nmax), ignored by the other suites; "
        "unset, each suite uses its own default",
    )
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # stdout still holds what it could not write: point its descriptor at
        # the null device, so the flush at interpreter exit does not fail again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
