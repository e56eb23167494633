"""Command-line frontend.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (bad
arguments or environment, rejected before any work starts) or output that
cannot be written (a closed pipe, a full disk; one `error:` line), 3
internal error (a bug, also one raised while output is being produced; the
traceback goes to stderr).  Integer arguments, and DEUTSCH_BUDGET, are
plain ASCII digits.  The `verify --suite` names and their order come from
`verify.SUITES`.  All integer output is exact decimal; json documents are
rendered canonically (sorted keys, fixed separators) so that parse +
re-render is byte-identical.

`triangle` streams: it takes its rows one at a time from `dp_rows`, renders
whole rows into chunks of about CHUNK_CHARS characters and writes each chunk
as soon as it is full, so it holds O(ladder) cells and one chunk of text
whatever its n, and what it has written when it stops early is whole rows.
It renders in time linear in its output: `dp_rows` lifts its rows to Decimal
once counts pass about 200 digits (CPython's int-to-str is quadratic in the
digit count), and those rows are rendered from their str.  `series`, `area`
and `verify` render their whole output before any of it is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import closed, oracle, verify
from .errors import UsageError
from .series import coeff_x
from .strip import Direction, bounded_f, bounded_g, dp_rows, stabilized

FORMATS = ("text", "csv", "json")


CHUNK_CHARS = 1 << 18  # a triangle is written in pieces of about this many characters
JSON_BATCH_CELLS = 1 << 10  # int cells per json.dumps call of a json triangle


def _render_json(doc: dict) -> str:
    """`doc`, rendered canonically."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _render_rows(rows: Sequence[Sequence[int]], fmt: str, doc: dict) -> Iterator[str]:
    """The whole output, `doc` in json and one line per row otherwise,
    rendered before any of it is written: one piece of text."""
    if fmt == "json":
        yield _render_json(doc) + "\n"
    else:
        yield "".join(_text_pieces(rows, "," if fmt == "csv" else " "))


def _chunked(pieces: Iterable[str]) -> Iterator[str]:
    """`pieces` joined into chunks of at least CHUNK_CHARS characters (the
    last one may be shorter), each yielded as soon as it is full."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= CHUNK_CHARS:
            yield "".join(chunk)
            chunk, size = [], 0
    if chunk:
        yield "".join(chunk)


def _text_pieces(rows: Iterable[Sequence[int]], sep: str) -> Iterator[str]:
    """One line per row, each a piece of its own with its newline, so that a
    chunk ends only where a line does."""
    for row in rows:
        # a generator, not map(str, ...): CPython 3.11 specialises str(v)
        yield sep.join(str(v) for v in row) + "\n"


def _json_pieces(doc: dict, rows: Iterable[Sequence[int]]) -> Iterator[str]:
    """`doc` with its "rows", a key that sorts after all of its others, taken
    from `rows`: the head first, then whole rows in order, so that a chunk
    ends only where a row does (or after the head).  Int rows go through
    json.dumps, which is fast on ints, in batches of about JSON_BATCH_CELLS
    cells; Decimal rows (a lifted `dp_rows`) are rendered from the str of
    their cells, in time linear in their length."""
    yield _render_json({**doc, "rows": []})[:-2]  # up to the "]}" that closes it
    sep = ""
    batch: list[Sequence[int]] = []
    cells = 0
    for row in rows:
        lifted = not isinstance(row[0], int)
        if batch and (lifted or cells >= JSON_BATCH_CELLS):
            yield sep + json.dumps(batch, separators=(",", ":"))[1:-1]
            sep, batch, cells = ",", [], 0
        if lifted:
            yield f"{sep}[{','.join(str(v) for v in row)}]"
            sep = ","
        else:
            batch.append(row)
            cells += len(row)
    if batch:
        yield sep + json.dumps(batch, separators=(",", ":"))[1:-1]
    yield "]}\n"


def _digits(value: str) -> int | None:
    """`value` as an int if it is plain ASCII digits, else None: int() also
    takes signs, spaces, underscores and non-ASCII digits."""
    if value.isascii() and value.isdigit():
        with contextlib.suppress(ValueError):  # past the int-to-str digit limit
            return int(value)
    return None


def _nonneg(value: str) -> int:
    n = _digits(value)
    if n is None:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value!r}")
    return n


def _budget() -> int:
    raw = os.environ.get("DEUTSCH_BUDGET")
    if raw is None:
        return oracle.DEFAULT_BUDGET
    budget = _digits(raw)
    if budget is not None:
        return budget
    if raw.startswith("-") and _digits(raw[1:]) is not None:
        raise UsageError(f"DEUTSCH_BUDGET must be nonnegative, got {raw}")
    raise UsageError(f"DEUTSCH_BUDGET must be an integer, got {raw!r}")


def cmd_triangle(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    direction = Direction(args.direction)
    rows = dp_rows(direction, args.n, height=args.height, lift=True)
    if args.format == "json":
        doc = {"direction": direction.value, "n": args.n, "height": args.height}
        pieces = _json_pieces(doc, rows)
    else:
        pieces = _text_pieces(rows, "," if args.format == "csv" else " ")
    return 0, _chunked(pieces)


def cmd_series(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
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


def cmd_area(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    ns = list(range(args.nmax + 1))
    by_sum = [closed.area_coeff(n) for n in ns]
    gf = closed.area_gf()
    by_gf = [coeff_x(gf, n) for n in ns]
    if by_sum != by_gf:
        print(f"area mismatch: closed sum {by_sum} vs GF extraction {by_gf}", file=sys.stderr)
        return 1, _render_rows([], "text", {})  # no output
    return 0, _render_rows([by_sum], args.format, {"n": ns, "area": by_sum})


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, nmax=args.nmax, budget=_budget())
    all_passed = all(r.passed for r in reports)
    return (0 if all_passed else 1), _render_reports(reports, all_passed, args.format)


def _render_reports(
    reports: list[verify.SuiteReport], all_passed: bool, fmt: str
) -> Iterator[str]:
    """The verify report, rendered whole before any of it is written."""
    if fmt == "json":
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
        yield _render_json(doc) + "\n"
        return
    sep = "," if fmt == "csv" else ": "
    lines: list[str] = []
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
    yield "".join(line + "\n" for line in lines)


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


@contextlib.contextmanager
def _digits_unlimited() -> Iterator[None]:
    """Lifts the int-to-str digit limit (Python >= 3.10.7) for the block,
    restoring it on every exit: output is exact decimals of any length,
    while argv is parsed under the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _wrote(op: Callable[..., object], *args: str) -> bool:
    """Whether `op(*args)`, a write or flush of stdout, succeeded.  If it
    raised OSError (a closed pipe, a full disk), says so on stderr."""
    try:
        op(*args)
        return True
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # stdout still holds what it could not write: point its descriptor at
        # the null device, so the flush at interpreter exit does not fail again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return False


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, output = args.func(args)
        # the loop drives the output: each piece is produced only when the
        # last one is written, and none after a write fails
        with contextlib.closing(output), _digits_unlimited():
            for chunk in output:
                if not _wrote(sys.stdout.write, chunk):
                    return 2
            return code if _wrote(sys.stdout.flush) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
