"""Layer tracer: wraps the public functions of each ``deutsch_paths`` module.

Every wrapped call records a span (id, parent id, function, request id,
start and end in ns) and adds to its function's totals: calls, inclusive
time, self time (duration minus the wrapped children it covers), errors and,
for some functions, a work count.  Spans stay in memory and are written out
at the end.  A function is replaced in every ``deutsch_paths`` module that
holds it, because ``cli``, ``verify``, ``roots``, ``closed`` and
``published`` import strip and series functions by name; ``ZSeries`` and
``IntPoly`` methods are patched on the class.

As a script it runs one CLI request under the tracer, with the pace sampler
of ``pace.py`` running, and writes the pace samples, the summary and the
spans to files:

    python3 perfbench/tracing.py OUT.json REQUEST_ID verify --suite all
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array


def _cells(table) -> int:
    """dp_counts work: n_max x (ladder + 1) cells, with the ladder the DP
    runs on (2 n_max for unbounded RL, since RL paths overshoot)."""
    n_max = len(table.rows) - 1
    if table.direction.value == "lr":
        ladder = n_max if table.height is None else min(table.height, n_max)
    else:
        ladder = 2 * n_max if table.height is None else table.height
    return n_max * (ladder + 1)


SELF = ("self_s",)
CALLS_SELF = ("calls", "self_s")
SUITES = ("dp_closed", "cramer", "area", "roots", "reversal", "paper_lists", "identities")

# (layer, module, attribute, reported stats, work counter); which end-to-end
# metric each layer should move, on which workload, is in baseline.json
LAYERS = [
    ("oracle", "oracle", "generate_closed", ("self_s", "paths"), len),
    *[("oracle", "oracle", name, SELF, None)
      for name in ("reverse_check", "enumerate_paths", "area_check")],
    *[("verify", "verify", f"suite_{s}", ("s",), None) for s in SUITES],
    ("strip", "strip", "dp_counts", ("self_s", "cells"), _cells),
    *[("strip", "strip", name, CALLS_SELF, None)
      for name in ("det_d", "seq_a", "seq_b", "delta", "stabilized", "bounded_f",
                   "bounded_g", "solve_system", "det_direct")],
    *[("series", "series", f"ZSeries.__{op}__", CALLS_SELF, None) for op in ("sub", "add", "mul")],
    *[("series", "series", name, CALLS_SELF, None)
      for name in ("ZSeries.shift", "ZSeries.inverse", "coeff_x", "zseries_of",
                   "IntPoly.divmod_by")],
    *[("closed", "closed", name, SELF, None)
      for name in ("area_convolution", "area_coeff", "count_rl_closed")],
    ("closed", "closed", "g_closed", ("calls",), None),
    *[("roots", "roots", name, SELF, None)
      for name in ("verify_an_bn", "verify_g_numeric", "verify_factorizations")],
    ("published", "published", "printed_deviations", SELF, None),
    ("cli", "cli", "main", SELF, None),
]
MAX_SPANS = 100_000  # spans kept in memory; later ones are counted as dropped


def function_name(attr: str) -> str:
    """``ZSeries.__sub__`` -> ``ZSeries.sub``."""
    owner, _, name = attr.rpartition(".")
    name = name.strip("_") if name.startswith("__") else name
    return f"{owner}.{name}" if owner else name


class Tracer:
    """Collects spans and per-function totals for the wrapped functions."""

    def __init__(self) -> None:
        self.names = [f"{layer}.{function_name(attr)}" for layer, _, attr, *_ in LAYERS]
        # per function: calls, inclusive ns, self ns, errors, work
        self.stats = [[0, 0, 0, 0, 0] for _ in LAYERS]
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.request = 0
        self.spans = array("q")  # flat (id, parent, function, request, start, end)
        self.dropped = 0
        self.next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, work):
        st = self.stats[index]
        stack = self.stack
        spans = self.spans
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span, 0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                t1 = now()
                stack.pop()
                dt = t1 - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if len(spans) < 6 * MAX_SPANS:
                    spans.extend((span, parent, index, self.request, t0, t1))
                else:
                    self.dropped += 1
            if work is not None:
                st[4] += work(result)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("deutsch_paths.cli")  # loads every module
        modules = [m for name, m in sys.modules.items()
                   if name == "deutsch_paths" or name.startswith("deutsch_paths.")]
        for index, (_, mod, attr, _, work) in enumerate(LAYERS):
            module = sys.modules[f"deutsch_paths.{mod}"]
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[name]
                self._patched.append((cls, name, original))
                setattr(cls, name, self._wrap(index, original, work))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(index, original, work)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-function totals: calls, s, self_s, errors, work."""
        return {
            "functions": {
                name: {"calls": c, "s": ns / 1e9, "self_s": self_ns / 1e9,
                       "errors": err, "work": work}
                for name, (c, ns, self_ns, err, work) in zip(self.names, self.stats)
            },
            "spans": len(self.spans) // 6,
            "dropped_spans": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        doc = {
            "functions": self.names,
            "fields": ["id", "parent", "function", "request", "start_ns", "end_ns"],
            "spans": self.spans.tolist(),
            "dropped_spans": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def merge(summaries: list[dict]) -> dict:
    """Add up the per-function totals of several summaries."""
    out: dict = {"functions": {}, "spans": 0, "dropped_spans": 0}
    for summ in summaries:
        out["spans"] += summ["spans"]
        out["dropped_spans"] += summ["dropped_spans"]
        for name, st in summ["functions"].items():
            acc = out["functions"].setdefault(name, dict.fromkeys(st, 0))
            for key, value in st.items():
                acc[key] += value
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The reported per-layer stats of a summary, keyed by metric name."""
    out = {}
    for layer, _, attr, stats, _ in LAYERS:
        name = f"{layer}.{function_name(attr)}"
        st = summary["functions"][name]
        for stat in stats:
            out[f"{name}.{stat}"] = st[stat] if stat in ("calls", "s", "self_s") else st["work"]
    return out


def main(argv: list[str]) -> int:
    import pace

    out, request, cli_argv = argv[0], int(argv[1]), argv[2:]
    from deutsch_paths import cli

    sampler = pace.Pace()
    sampler.start()
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    try:
        rc = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({"pace": sampler.stop(), "trace": tracer.summary()}, fh)
        tracer.write_spans(out.replace(".json", ".spans.json"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
