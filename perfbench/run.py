"""Benchmark of the deutsch-paths engine: end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads (see ``workloads.py``):

    verify-all       ``verify --suite all --format json``, each request in a
                     fresh interpreter
    unbounded-sweep  sweeps of unbounded series/triangle/area requests served
                     by one long-lived process
    bounded-strip    independent bounded triangle/series requests with small
                     height and long order, served by one long-lived process
    all              every workload in turn (a summary for people; the last
                     line then keys metrics by ``workload/metric``)

Each workload is one client in a closed loop with no think time, served by a
fresh worker process (``serve.py``); the benchmark and all its processes run
on one CPU.  ``--trace 0`` serves the first blocks of the seeded stream, as
many as take about ``--seconds`` of busy time at the seed commit's speed,
and reports the end-to-end metrics.  Latencies, throughput and set-up time
are scaled to a fixed reference speed by the machine's pace sampled around
each of them (``pace.py``), so that the swings of a shared machine's speed
cancel; the wall-clock figures are in the detail line.  ``--trace 1`` serves
a fixed number of blocks under the layer tracer (``tracing.py``), replays the
same blocks untraced to measure the tracing overhead, and reports the
per-layer metrics.  Every output is read and checked by an independent route
(``checks.py``) in this process, outside the worker's timer.

stderr gets a table of every metric with its unit and sample count and the
machine facts.  stdout gets a detail line and, last, the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

GUARD = 3  # a run stops early after GUARD times --seconds of busy time
SETUP_RUNS = 10  # per probe slot; a slot before and one after the worker
WORKER_TIMEOUT_S = 170
SETUP_PROBE = "from deutsch_paths.cli import build_parser; build_parser()"

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def local_pace() -> float:
    """Median time of a few runs of the reference loop, here and now."""
    return statistics.median(pace.reference() for _ in range(5))


def measure_setup(env: dict, runs: int) -> list[float]:
    """Fresh interpreter until ``deutsch_paths.cli`` is imported and the
    parser is built, timed ``runs`` times, each scaled to the reference
    speed by the reference loop run just before and after it."""
    times = []
    for _ in range(runs):
        before = local_pace()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True, cwd=ROOT)
        dt = time.perf_counter() - t0
        times.append(dt * statistics.mean(pace.REF_NOMINAL_S / ref for ref in (before, local_pace())))
    return times


def run_worker(env: dict, job: dict) -> tuple[list[dict], dict]:
    """Serves ``job`` in a fresh ``serve.py`` and reads each request's
    output while the worker waits.  Returns the records, each with the
    extracted output under ``out`` (None if the request failed), and the
    worker's summary."""
    import checks

    out_dir = Path(job["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    reqs = itertools.chain.from_iterable(workloads.stream(job["workload"], job["seed"]))
    proc = subprocess.Popen([sys.executable, str(HERE / "serve.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    records = []
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        while True:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker for {job['workload']} ended without a summary")
            doc = json.loads(line)
            if "blocks" in doc:
                break
            req = next(reqs)
            doc["req"] = req
            doc["out"] = None
            if doc["rc"] == 0:
                try:
                    doc["out"] = checks.extract(req, str(out_dir / "request.out"))
                except Exception as exc:  # unreadable output fails the request
                    doc["stderr"] += f"\nunreadable output: {exc!r}"
            records.append(doc)
            proc.stdin.write("\n")
            proc.stdin.flush()
        proc.stdin.close()
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
            raise RuntimeError(f"worker for {job['workload']} exited {proc.returncode}")
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    return records, doc


def count_failed(records: list[dict]) -> int:
    """Checks every record by an independent route; the number that failed."""
    import checks

    failed = 0
    for rec in records:
        if not checks.check(rec["req"], rec):
            failed += 1
            print(f"FAILED {' '.join(rec['req']['argv'])}: rc={rec['rc']} {rec['stderr']}",
                  file=sys.stderr)
    return failed


def latency_stats(lat_s: list[float]) -> dict:
    lat_ms = [x * 1e3 for x in lat_s]
    # the 95th percentile by linear interpolation between order statistics;
    # with fewer than 200 samples fewer than ten lie beyond it
    p95 = statistics.quantiles(lat_ms, n=20, method="inclusive")[18] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "throughput_rps": len(lat_s) / sum(lat_s),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p95_ms": p95,
    }


def _wall(records: list[dict]) -> list[float]:
    return [r["t1"] - r["t0"] for r in records]


def _scaled(records: list[dict], summary: dict) -> list[float]:
    """Each record's latency at the reference speed of ``pace.py``."""
    return [(r["t1"] - r["t0"]) * pace.scale(summary["pace"], r["t0"], r["t1"])
            for r in records]


def run_workload(workload: str, seed: int, seconds: int, trace: bool, machine: dict) -> dict:
    env = child_env()
    job = {"workload": workload, "seed": seed, "seconds": None, "blocks": None,
           "trace": False, "out_dir": str(SCRATCH / f"{workload}-seed{seed}")}
    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "machine": machine}
    # one untimed probe first, so bytecode caches exist before anything is timed
    measure_setup(env, 1)
    if not trace:
        nblocks = max(1, round(seconds * workloads.BLOCKS_PER_SECOND[workload]))
        setup = measure_setup(env, SETUP_RUNS)
        records, summary = run_worker(env, {**job, "blocks": nblocks, "seconds": GUARD * seconds})
        setup += measure_setup(env, SETUP_RUNS)
        wall = _wall(records)
        lat = _scaled(records, summary)
        metrics = latency_stats(lat)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = summary["peak_rss_kb"] / 1024
        units = END_TO_END_UNITS
        samples = {"throughput_rps": len(lat), "latency_p50_ms": len(lat),
                   "latency_p95_ms": len(lat), "setup_s": len(setup), "peak_rss_mb": 1}
        detail["wall"] = latency_stats(wall)
        detail["busy_s"] = {"wall": sum(wall), "scaled": sum(lat)}
        detail["pace_samples"] = len(summary["pace"])
        served = len(records)
    else:
        import tracing

        nblocks = workloads.TRACE_BLOCKS[workload]
        traced_dir = SCRATCH / "trace" / f"{workload}-seed{seed}"
        records, summary = run_worker(env, {**job, "blocks": nblocks, "trace": True,
                                            "out_dir": str(traced_dir)})
        plain, plain_summary = run_worker(env, {**job, "blocks": nblocks})
        traced_rps = latency_stats(_scaled(records, summary))["throughput_rps"]
        plain_rps = latency_stats(_scaled(plain, plain_summary))["throughput_rps"]
        trace_summary = summary["trace"]
        metrics = tracing.layer_metrics(trace_summary)
        metrics["cli.output_bytes"] = sum(r["bytes"] for r in records)
        metrics["trace.throughput_rps"] = traced_rps
        metrics["trace.overhead_ratio"] = plain_rps / traced_rps
        metrics["trace.errors"] = sum(f["errors"] for f in trace_summary["functions"].values())
        units = {name: _layer_unit(name) for name in metrics}
        samples = dict.fromkeys(metrics, len(records))
        detail["functions"] = trace_summary["functions"]
        detail["spans"] = {"kept": trace_summary["spans"], "dropped": trace_summary["dropped_spans"],
                           "dir": str(traced_dir.relative_to(ROOT))}
        served = len(records)
        records += plain
    failed = count_failed(records)
    attempted = len(records)
    reqs = [r["req"] for r in records[:served]]
    detail["requests"] = len(reqs)
    detail["repeat_share"] = workloads.repeat_shares(reqs)
    detail["failed_ratio"] = failed / attempted
    detail["samples"] = samples
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "output_bytes": "bytes", "throughput_rps": "1/s",
            "overhead_ratio": "ratio"}.get(stat, "count")


def print_table(out: dict) -> None:
    d = out["detail"]
    m = d["machine"]
    print(f"== {d['workload']} seed={d['seed']} trace={d['trace']}  "
          f"nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']}", file=sys.stderr)
    shares = " ".join(f"{k}={v:.3f}" for k, v in d["repeat_share"].items())
    print(f"   requests={d['requests']} failed_ratio={d['failed_ratio']:.4g} "
          f"repeat_share: {shares}", file=sys.stderr)
    for name, metric in out["result"]["metrics"].items():
        print(f"   {name:44s} {metric['value']:>14.6g} {metric['unit']:6s} "
              f"n={d['samples'][name]}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-all", "unbounded-sweep", "bounded-strip", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "deutsch_paths" / "cli.py").is_file():
        print(f"error: no deutsch_paths sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    machine = machine_facts()
    # one client: the benchmark and every process it starts share one CPU,
    # the one whose pace the reference loop samples
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    machine["cpu"] = cpu
    names = (["verify-all", "unbounded-sweep", "bounded-strip"]
             if args.workload == "all" else [args.workload])
    outs = {}
    for name in names:
        outs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), machine)
        print_table(outs[name])
        print(json.dumps(outs[name]["detail"]))
    if len(names) == 1:
        final = outs[names[0]]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outs.values()),
            "attempted": sum(o["result"]["attempted"] for o in outs.values()),
            "failed": sum(o["result"]["failed"] for o in outs.values()),
            "metrics": {f"{w}/{k}": v for w, o in outs.items()
                        for k, v in o["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
