"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of blocks; a block is a list of requests.
Each block holds one request (or sweep) per slice of the log size range,
at sizes evenly spaced from an offset that moves by the golden ratio from
block to block, starting from a fixed phase; direction, height, run length
and format rotate over the slices with the block index.  So every run of a
given length asks for the same sizes whatever the seed, and the seed draws
the rest: the levels, which levels a sweep runs over, the order of requests
and the cells that are checked.  (With seeded phases the ten-seed spread of
the unbounded-sweep p95 was 0.12-0.13, as the top order slice moved; with
fixed ones it was 0.04.)  The serving loop stops only at a block boundary.

Each request is a dict:
    argv    the argument list handed to ``deutsch_paths.cli.main``, ending
            with ``--format FMT``;
    meta    what the checker needs to know about the request;
    sample  (row, column) cells of the output to extract for checking,
            where a row is an output line (text/csv) or a row of the json
            document (``rows``, ``coeffs`` or ``area``).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

FORMATS = ("text", "csv", "json")
DIRECTIONS = ("lr", "rl")
GRID = 8  # size slices per block (and per kind)
GOLDEN = (math.sqrt(5) - 1) / 2
PHASES = (0.0, 0.25, 0.5, 0.75)  # first offsets of the size grids of a workload

# unbounded-sweep: a sweep fixes (direction, order) and asks for series at a
# run of consecutive levels, one unbounded triangle and one area table
SWEEP_ORDER = (40, 640)
SWEEP_LEVEL_MAX = 20
SWEEP_RUN = (2, 8)
SWEEP_TRIANGLE_N = (20, 240)
SWEEP_AREA_NMAX = (10, 160)

# bounded-strip: independent bounded triangle/series requests, small h, long n
STRIP_HEIGHT_MAX = 40
STRIP_ORDER = (200, 2000)

# cells sampled from each output, checked by an independent route
SERIES_SAMPLES = 16
TRIANGLE_ROWS = 5
TRIANGLE_COLS = 4
AREA_PREFIX = 20  # area entries n <= 20 are checked against the convolution
STRIP_PREFIX = 40  # bounded triangle rows n <= 40 are checked

VERIFY_ARGV = ["verify", "--suite", "all", "--format", "json"]


def _offset(start: float, b: int) -> float:
    """Offset of block b: a golden-ratio (Weyl) sequence from ``start``,
    so the offsets of any run of consecutive blocks spread evenly over [0, 1)."""
    return (start + b * GOLDEN) % 1.0


def _log_grid(start: float, b: int, lo: int, hi: int) -> list[int]:
    """GRID integers evenly spaced in log [lo, hi] from block b's offset:
    entry s lies in the s-th of GRID equal slices."""
    span = math.log(hi) - math.log(lo)
    u = _offset(start, b)
    return [min(hi, round(lo * math.exp((s + u) / GRID * span))) for s in range(GRID)]


def _uniform_grid(start: float, b: int, lo: int, hi: int) -> list[int]:
    """GRID integers evenly spaced in [lo, hi] from block b's offset."""
    u = _offset(start, b)
    return [lo + int((s + u) / GRID * (hi - lo + 1)) for s in range(GRID)]


def _cells(rng: random.Random, rows: list[int], row_len, ncols: int) -> list[list[int]]:
    cells = []
    for r in rows:
        length = row_len(r)
        cols = {0, length - 1} | {rng.randrange(length) for _ in range(ncols)}
        cells.extend([r, c] for c in sorted(cols))
    return cells


def _series_cells(rng: random.Random, order: int) -> list[list[int]]:
    idx = {0, order, max(order - 1, 0)} | {
        rng.randrange(order + 1) for _ in range(SERIES_SAMPLES)
    }
    return [[0, i] for i in sorted(idx)]


def _series(rng, direction, level, order, height=None, *, fmt):
    argv = ["series", "--direction", direction, "--level", str(level), "--order", str(order)]
    if height is not None:
        argv += ["--height", str(height)]
    argv += ["--format", fmt]
    meta = {"kind": "series", "direction": direction, "level": level,
            "order": order, "height": height}
    return {"argv": argv, "meta": meta, "sample": _series_cells(rng, order)}


def _triangle_row_len(direction: str, n: int, height):
    """Entries in row r of ``triangle --n n [--height h]``."""
    if direction == "lr":
        cap = n if height is None else min(height, n)
        return lambda r: min(r, cap) + 1
    cap = n if height is None else height
    return lambda r: cap + 1 if r else 1


def _triangle(rng, direction, n, height=None, *, fmt):
    argv = ["triangle", "--direction", direction, "--n", str(n)]
    if height is not None:
        argv += ["--height", str(height)]
    argv += ["--format", fmt]
    row_len = _triangle_row_len(direction, n, height)
    if height is None:
        rows = sorted({0, n} | {rng.randrange(n + 1) for _ in range(TRIANGLE_ROWS)})
        sample = _cells(rng, rows, row_len, TRIANGLE_COLS)
    else:
        # the whole prefix, checked against the Cramer quotients at a small
        # order, and the ends of the last row, whose length is checked
        sample = [[r, c] for r in range(min(n, STRIP_PREFIX) + 1) for c in range(row_len(r))]
        sample += _cells(rng, [n], row_len, 0)
    meta = {"kind": "triangle", "direction": direction, "n": n, "height": height}
    return {"argv": argv, "meta": meta, "sample": sample}


def _area(rng, nmax, *, fmt):
    argv = ["area", "--nmax", str(nmax), "--format", fmt]
    sample = [[0, c] for c in range(min(nmax, AREA_PREFIX) + 1)]
    return {"argv": argv, "meta": {"kind": "area", "nmax": nmax}, "sample": sample}


def _verify_block(rng: random.Random, used: set, b: int) -> list[dict]:
    return [{"argv": list(VERIFY_ARGV), "meta": {"kind": "verify"}, "sample": []}]


def _sweep_block(rng: random.Random, used: set, b: int) -> list[dict]:
    """One sweep per order slice; direction, run length, triangle and area
    slices and formats rotate with the block index b.  The first block also
    holds the request that sets the peak memory, the json RL triangle at the
    top n, so that peak does not depend on the seed."""
    orders = _log_grid(PHASES[0], b, *SWEEP_ORDER)
    tri_ns = _log_grid(PHASES[1], b, *SWEEP_TRIANGLE_N)
    area_ns = _log_grid(PHASES[2], b, *SWEEP_AREA_NMAX)
    runs = SWEEP_RUN[1] - SWEEP_RUN[0] + 1
    sweeps = []
    for j, order in enumerate(orders):
        direction = DIRECTIONS[(j + b) % 2]
        run = SWEEP_RUN[0] + (3 * j + b) % runs
        start = rng.randint(0, SWEEP_LEVEL_MAX + 1 - run)
        sweep = [_series(rng, direction, level, order, fmt=FORMATS[(level + b) % 3])
                 for level in range(start, start + run)]
        sweep.append(_triangle(rng, direction, tri_ns[(5 * j + 2 * b) % GRID],
                               fmt=FORMATS[(j + b) % 3]))
        sweep.append(_area(rng, area_ns[(3 * j + 2 * b + 1) % GRID], fmt=FORMATS[(j + b + 1) % 3]))
        sweeps.append(sweep)
    if b == 0:
        sweeps.append([_triangle(rng, "rl", SWEEP_TRIANGLE_N[1], fmt="json")])
    rng.shuffle(sweeps)
    return [req for sweep in sweeps for req in sweep]


def _strip_block(rng: random.Random, used: set, b: int) -> list[dict]:
    """Per kind, one request per order slice; direction, height slice and
    format rotate with the block index b.  No two requests in the stream
    share (direction, h, order).  The first block also holds the largest
    request, the json LR triangle at the top order and height, which sets
    the peak memory; so that peak does not depend on the seed."""
    block = []
    if b == 0:
        used.add(("lr", STRIP_HEIGHT_MAX, STRIP_ORDER[1]))
        block.append(_triangle(rng, "lr", STRIP_ORDER[1], height=STRIP_HEIGHT_MAX, fmt="json"))
    for k, kind in enumerate(("triangle", "series")):
        orders = _log_grid(PHASES[2 * k], b, *STRIP_ORDER)
        heights = _uniform_grid(PHASES[2 * k + 1], b, 0, STRIP_HEIGHT_MAX)
        for j, order in enumerate(orders):
            direction = DIRECTIONS[(j + k + b) % 2]
            h = heights[(3 * j + k + 2 * b) % GRID]
            while (direction, h, order) in used:
                order += 1
            used.add((direction, h, order))
            fmt = FORMATS[(j + k + b) % 3]
            if kind == "triangle":
                block.append(_triangle(rng, direction, order, height=h, fmt=fmt))
            else:
                block.append(_series(rng, direction, rng.randint(0, h), order, height=h, fmt=fmt))
    rng.shuffle(block)
    return block


BLOCKS = {
    "verify-all": _verify_block,
    "unbounded-sweep": _sweep_block,
    "bounded-strip": _strip_block,
}

# Blocks served per second of --seconds, so that a run serves fixed work:
# the mix then depends on the seed alone, never on how fast the machine
# happens to be.  Set so that a run of the seed commit takes about --seconds
# of busy time at the reference speed of ``pace.py``.
BLOCKS_PER_SECOND = {"verify-all": 0.2, "unbounded-sweep": 0.5, "bounded-strip": 1.8}

# the traced run serves a fixed number of blocks, so its counts repeat
# exactly for a given seed and its layer times compare across commits
TRACE_BLOCKS = {"verify-all": 2, "unbounded-sweep": 4, "bounded-strip": 4}


def stream(workload: str, seed: int) -> Iterator[list[dict]]:
    """The workload's endless stream of request blocks for ``seed``."""
    make = BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    used: set = set()
    for b in itertools.count():
        yield make(rng, used, b)


def requests(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` requests of the stream."""
    out: list[dict] = []
    for block in stream(workload, seed):
        if len(out) >= count:
            return out[:count]
        out.extend(block)
    return out


def request_key(argv: list[str]) -> dict:
    """The fields of a request that a cache could key on; ``size`` is the
    size argument (--order, --n or --nmax)."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return {
        "command": argv[0],
        "direction": opts.get("--direction"),
        "height": opts.get("--height"),
        "size": opts.get("--order") or opts.get("--n") or opts.get("--nmax"),
    }


# what a cache could be keyed on: the whole argv; (direction, height, size)
# and (direction, size), the latter shared by the requests of one sweep; and
# the height, with or without the direction, on which the bounded quotients
# depend (det_d(h+1) does not depend on the order, and a lower order is a
# truncation of a higher one)
REPEAT_KEYS = {
    "argv": None,
    "direction_height_size": ("command", "direction", "height", "size"),
    "direction_size": ("command", "direction", "size"),
    "direction_height": ("direction", "height"),
    "height": ("height",),
}


def repeat_shares(requests: list[dict]) -> dict[str, float]:
    """Per key of REPEAT_KEYS, the share of requests whose key repeats that
    of an earlier request.  A key with an absent field (no --height on an
    unbounded request, no --direction on area) never repeats."""
    shares = {}
    for name, fields in REPEAT_KEYS.items():
        seen: set = set()
        repeats = 0
        for req in requests:
            if fields is None:
                value = tuple(req["argv"])
            else:
                key = request_key(req["argv"])
                value = tuple(key[f] for f in fields)
                if None in value:
                    continue
            repeats += value in seen
            seen.add(value)
        shares[name] = repeats / len(requests) if requests else 0.0
    return shares
