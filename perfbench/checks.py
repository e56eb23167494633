"""Output checks, each by a route independent of the one that served the
request (never by re-running the same call).

    verify     exit 0 and byte-identical to the canonical report in
               ``verify_all.json``, captured when the benchmark was defined
    triangle   unbounded: sampled cells against the binomial closed forms
               ``count_lr_closed`` / ``count_rl_closed``;
               bounded: the prefix rows against the Cramer quotients
               ``bounded_f`` / ``bounded_g`` at a small order
    series     unbounded: sampled coefficients against the closed forms
               f_k (``coeff_x`` of ``f_closed(k)``, as ``zseries_of`` does)
               and g_i (``g_closed(i)``);
               bounded: sampled coefficients against the ``dp_counts`` column
    area       the prefix against ``area_convolution`` (sum_i i f_i g_i)

Every check also compares the shape of the output: its row count and the
length of every sampled row.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from deutsch_paths import closed
from deutsch_paths.series import coeff_x
from deutsch_paths.strip import Direction, bounded_f, bounded_g, dp_counts

from workloads import AREA_PREFIX, STRIP_PREFIX, _triangle_row_len

CANONICAL_VERIFY = Path(__file__).resolve().parent / "verify_all.json"
JSON_ROWS = {"triangle": "rows", "series": "coeffs", "area": "area"}


def _sampled_rows(req: dict, path: str) -> tuple[int, dict[int, list[str]]]:
    """Row count of the output file and its sampled rows, as digit strings."""
    kind, fmt = req["meta"]["kind"], req["argv"][-1]
    wanted = {r for r, _ in req["sample"]}
    with open(path) as fh:
        if fmt == "json":
            matrix = json.load(fh, parse_int=str)[JSON_ROWS[kind]]
            if kind != "triangle":
                matrix = [matrix]
            return len(matrix), {r: matrix[r] for r in wanted if r < len(matrix)}
        sep = "," if fmt == "csv" else " "
        rows = {}
        nrows = 0
        for nrows, line in enumerate(fh, 1):
            if nrows - 1 in wanted:
                rows[nrows - 1] = line.rstrip("\n").split(sep)
        return nrows, rows


def extract(req: dict, path: str) -> dict:
    """What the check needs of a request's output file: the whole text for
    ``verify``, else the row count, the length of each sampled row and the
    sampled cells."""
    if req["meta"]["kind"] == "verify":
        with open(path) as fh:
            return {"text": fh.read()}
    nrows, rows = _sampled_rows(req, path)
    cells = [
        [r, c, int(rows[r][c]) if r in rows and c < len(rows[r]) else None]
        for r, c in req["sample"]
    ]
    lens = {str(r): len(rows[r]) if r in rows else None for r, _ in req["sample"]}
    return {"nrows": nrows, "lens": lens, "cells": cells}


@lru_cache(maxsize=1)
def _area_prefix() -> tuple[int, ...]:
    conv = closed.area_convolution(2 * AREA_PREFIX)
    return tuple(conv[2 * n] for n in range(AREA_PREFIX + 1))


@lru_cache(maxsize=None)
def _g_closed(i: int):
    return closed.g_closed(i)


def _lr_series(level: int, n: int) -> int:
    if n < level or (n - level) % 2:
        return 0
    return coeff_x(closed.f_closed(level).drop_zshift(), (n - level) // 2)


def _rl_series(level: int, n: int) -> int:
    if (n - level) % 2:
        return 0
    return _g_closed(level).coefficient(n)


def _shape_ok(out: dict, nrows: int, row_len) -> bool:
    return out["nrows"] == nrows and all(
        length == row_len(int(r)) for r, length in out["lens"].items()
    )


def _check_triangle(meta: dict, out: dict) -> bool:
    d, n, h = meta["direction"], meta["n"], meta["height"]
    if not _shape_ok(out, n + 1, _triangle_row_len(d, n, h)):
        return False
    if h is None:
        expect = closed.count_lr_closed if d == "lr" else closed.count_rl_closed
        return all(v == expect(r, c) for r, c, v in out["cells"])
    small = min(n, STRIP_PREFIX)
    quot = bounded_f if d == "lr" else bounded_g
    cols = [quot(k, h, small) for k in range(h + 1)]
    # cells of the last row beyond the prefix are sampled for their row length
    return all(v == cols[c][r] for r, c, v in out["cells"] if r <= small)


def _check_series(meta: dict, out: dict) -> bool:
    d, level, order, h = meta["direction"], meta["level"], meta["order"], meta["height"]
    if not _shape_ok(out, 1, lambda r: order + 1):
        return False
    if h is None:
        expect = _lr_series if d == "lr" else _rl_series
        return all(v == expect(level, c) for _, c, v in out["cells"])
    table = dp_counts(Direction(d), order, height=h)
    return all(v == table.count(c, level) for _, c, v in out["cells"])


def _check_area(meta: dict, out: dict) -> bool:
    nmax = meta["nmax"]
    if not _shape_ok(out, 1, lambda r: nmax + 1):
        return False
    prefix = _area_prefix()
    return all(v == prefix[c] for _, c, v in out["cells"])


def _check_verify(meta: dict, out: dict) -> bool:
    return out["text"] == CANONICAL_VERIFY.read_text()


CHECKS = {
    "triangle": _check_triangle,
    "series": _check_series,
    "area": _check_area,
    "verify": _check_verify,
}


def check(request: dict, record: dict) -> bool:
    """True if the request exited 0 and its output passes its check."""
    if record["rc"] != 0 or record["out"] is None:
        return False
    return CHECKS[request["meta"]["kind"]](request["meta"], record["out"])
