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

Every command yields its output as pieces, which `main` joins into chunks
of about CHUNK_CHARS characters and writes as each fills, so that what it
has written when it stops early ends where a piece does.  A table is one
piece per row, each cell the str of its value: the triangle in every format,
and a series or the area list in text and csv (their json is one document).
`triangle` takes its rows one at a time from `dp_rows`, so it holds
O(ladder) cells and one chunk of text whatever its n, and renders in time
linear in its output: `dp_rows` lifts its rows to Decimal once counts pass
about 200 digits (CPython's int-to-str is quadratic in the digit count,
Decimal's str is linear).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import closed, oracle, verify
from .errors import UsageError
from .series import coeff_x
from .strip import bounded_f, bounded_g, dp_rows, stabilized

FORMATS = ("text", "csv", "json")


CHUNK_CHARS = 1 << 18  # output is written in pieces of about this many characters


def _render_json(doc: dict) -> str:
    """`doc`, rendered canonically."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _document(doc: dict) -> Iterator[str]:
    """`doc`, rendered canonically when it is asked for: one piece."""
    yield _render_json(doc) + "\n"


def _table(fmt: str, doc: dict, rows: Iterable[Sequence]) -> Iterator[str]:
    """`rows` one piece each, so that a chunk ends only where a row does:
    in text and csv a line of cells; in json `doc` with its "rows", a key
    that sorts after all of its others, taken from `rows`, so the head
    comes first, then each row.  A cell is its str: exact, and fast for the
    ints below the lift bound and the lifted Decimals alike."""
    # cells by a generator, not map(str, ...): CPython 3.11 specialises str(v)
    if fmt == "json":
        yield _render_json({**doc, "rows": []})[:-2]  # up to the "]}" that closes it
        sep = ""
        for row in rows:
            yield f"{sep}[{','.join(str(v) for v in row)}]"
            sep = ","
        yield "]}\n"
    else:
        sep = "," if fmt == "csv" else " "
        for row in rows:
            yield sep.join(str(v) for v in row) + "\n"


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


def _digits(value: str) -> int | None:
    """`value` as an int if it is plain ASCII digits, else None: int() also
    takes signs, spaces, underscores and non-ASCII digits.  Digits past the
    interpreter's int-to-str limit raise ValueError, whose message names
    the limit."""
    if not (value.isascii() and value.isdigit()):
        return None
    try:
        return int(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"at most {limit} digits (the interpreter's int-to-str limit), "
            f"got {len(value)} digits: {_shown(value)}"
        ) from None


def _shown(value: str) -> str:
    """`value` for an error message: its repr, cut after 20 characters."""
    return repr(value) if len(value) <= 20 else f"{value[:20]!r}..."


def _nonneg(value: str) -> int:
    try:
        n = _digits(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer of {exc}") from None
    if n is None:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {_shown(value)}")
    return n


def _budget() -> int:
    raw = os.environ.get("DEUTSCH_BUDGET")
    if raw is None:
        return oracle.DEFAULT_BUDGET
    try:
        budget = _digits(raw)
        negative = raw.startswith("-") and _digits(raw[1:]) is not None
    except ValueError as exc:
        raise UsageError(f"DEUTSCH_BUDGET must be an integer of {exc}") from None
    if budget is not None:
        return budget
    if negative:
        raise UsageError(f"DEUTSCH_BUDGET must be nonnegative, got {_shown(raw)}")
    raise UsageError(f"DEUTSCH_BUDGET must be an integer, got {_shown(raw)}")


def cmd_triangle(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    rows = dp_rows(args.direction, args.n, height=args.height, lift=True)
    doc = {"direction": args.direction, "n": args.n, "height": args.height}
    return 0, _table(args.format, doc, rows)


def cmd_series(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    if args.height is not None:
        if args.level > args.height:
            raise UsageError(f"level {args.level} exceeds height {args.height}")
        fn = bounded_f if args.direction == "lr" else bounded_g
        series = fn(args.level, args.height, args.order)
    else:
        series = stabilized(args.direction, args.level, args.order)
    if args.format == "json":
        return 0, _document({
            "direction": args.direction,
            "level": args.level,
            "order": args.order,
            "height": args.height,
            "coeffs": series,
        })
    return 0, _table(args.format, {}, [series])


# the area lists for n = 0, 1, ..., as long as the largest --nmax served in
# this process: a shorter request slices them, a longer one extends each by
# the n it lacks, and every request compares its two slices
_AREA_BY_SUM: list[int] = []
_AREA_BY_GF: list[int] = []


def cmd_area(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    ns = list(range(args.nmax + 1))
    _AREA_BY_SUM.extend(closed.area_coeff(n) for n in ns[len(_AREA_BY_SUM):])
    gf = closed.area_gf()
    _AREA_BY_GF.extend(coeff_x(gf, n) for n in ns[len(_AREA_BY_GF):])
    by_sum, by_gf = _AREA_BY_SUM[: args.nmax + 1], _AREA_BY_GF[: args.nmax + 1]
    if by_sum != by_gf:
        print(f"area mismatch: closed sum {by_sum} vs GF extraction {by_gf}", file=sys.stderr)
        return 1, iter(())  # no output
    if args.format == "json":
        return 0, _document({"n": ns, "area": by_sum})
    return 0, _table(args.format, {}, [by_sum])


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, nmax=args.nmax, budget=_budget())
    all_passed = all(r.passed for r in reports)
    return (0 if all_passed else 1), _render_reports(reports, all_passed, args.format)


def _render_reports(
    reports: list[verify.SuiteReport], all_passed: bool, fmt: str
) -> Iterator[str]:
    """The verify report: one json document, or a line per check and per
    note, each line a piece.  A csv line is written by `csv.writer`, so a
    name, detail or note that holds a comma is quoted: a check is the row
    [PASS/FAIL, suite, name(, detail)], a note header or a note one field."""
    if fmt == "json":
        suites = [{"suite": r.suite, "checks": [c._asdict() for c in r.checks],
                   "notes": r.notes, "passed": r.passed} for r in reports]
        yield from _document({"passed": all_passed, "suites": suites})
        return
    line = _csv_line if fmt == "csv" else (lambda fields: ": ".join(fields) + "\n")
    for r in reports:
        for c in r.checks:
            fields = ["PASS" if c.passed else "FAIL", r.suite, c.name]
            if c.detail and not c.passed:
                fields.append(c.detail)
            yield line(fields)
        if r.notes:
            yield line([f"# {r.suite}: documented deviations"])
            yield from (line([f"#   {note}"]) for note in r.notes)


def _csv_line(fields: Sequence[str]) -> str:
    """One csv row, quoted where a field needs it, ending in "\\n"."""
    import csv  # here, not at the top: only a csv verify report needs it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


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
        code, pieces = args.func(args)
        # the loop drives the output: each chunk is produced only when the
        # last one is written, and none after a write fails
        output = _chunked(pieces)
        with contextlib.closing(output), _digits_unlimited():
            for chunk in output:
                if not _wrote(sys.stdout.write, chunk):
                    return 2
            return code if _wrote(sys.stdout.flush) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here, not at the top: only an internal error needs it

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
