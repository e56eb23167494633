"""Benchmark worker: serves one workload's request stream in a closed loop.

Run as a fresh process by ``run.py``.  The first line of stdin is the job, a
JSON object with the keys:

    workload   name of the workload (verify-all runs each request in a
               fresh interpreter, the others call ``cli.main`` in-process)
    seed       seed of the request stream (``workloads.stream``)
    blocks     serve this many blocks of the stream
    seconds    stop early at the first block boundary after this much busy
               time (null: no limit), so a slow commit cannot overrun
    trace      install the layer tracer (in-process) or run each request
               under ``tracing.py`` (fresh interpreters)
    out_dir    where each request's output and trace files go

Only serving a request is timed: opening its output file, the ``cli.main``
call (or the child process) and closing the file.  The output goes to
``out_dir/request.out``, written by the io layer and kept nowhere in memory.
After each request the worker writes a JSON record line to stdout and waits
for a line on stdin; meanwhile ``run.py`` reads what it checks from the
output file, in its own process, so neither the parse nor the check counts
in this process's time or peak memory.  The last line is the summary: blocks
served, peak RSS, the pace samples (``pace.py``) and, when traced, the layer
trace (``tracing.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pace
import workloads

HERE = Path(__file__).resolve().parent


class InProcess:
    """Calls ``cli.main(argv)`` in this process."""

    def __init__(self, tracer) -> None:
        from deutsch_paths import cli

        self.main = cli.main
        self.tracer = tracer

    def serve(self, index: int, req: dict, out_path: str) -> tuple[int, str]:
        err = io.StringIO()
        if self.tracer is not None:
            self.tracer.request = index
        with open(out_path, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = self.main(req["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed request, not a dead run
                rc = -1
                traceback.print_exc(file=err)
        return rc, err.getvalue()


class FreshInterpreter:
    """Runs each request as a new interpreter: under ``tracing.py`` when
    traced, else under ``pace.py``, which samples the machine's pace in the
    child.  Either writes ``out_dir/request-INDEX.json``."""

    def __init__(self, trace: bool, out_dir: str) -> None:
        self.trace = trace
        self.out_dir = out_dir

    def serve(self, index: int, req: dict, out_path: str) -> tuple[int, str]:
        side = os.path.join(self.out_dir, f"request-{index}.json")
        if self.trace:
            tool = [str(HERE / "tracing.py"), side, str(index)]
        else:
            tool = [str(HERE / "pace.py"), side]
        with open(out_path, "wb") as out:
            proc = subprocess.run([sys.executable, *tool, *req["argv"]],
                                  stdout=out, stderr=subprocess.PIPE)
        return proc.returncode, proc.stderr.decode()


def serve(job: dict, send, receive) -> dict:
    tracer = None
    sampler = None
    out_dir = job["out_dir"]
    if job["workload"] == "verify-all":
        server = FreshInterpreter(job["trace"], out_dir)
        rss_who = resource.RUSAGE_CHILDREN
    else:
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        sampler = pace.Pace()
        sampler.start()
        server = InProcess(tracer)
        rss_who = resource.RUSAGE_SELF
    out_path = os.path.join(out_dir, "request.out")
    busy = 0.0
    index = 0
    nblock = 0
    for block in workloads.stream(job["workload"], job["seed"]):
        if nblock == job["blocks"] or (job["seconds"] is not None and busy > job["seconds"]):
            break
        nblock += 1
        for req in block:
            t0 = time.perf_counter()
            rc, err = server.serve(index, req, out_path)
            t1 = time.perf_counter()
            busy += t1 - t0
            send({"t0": t0, "t1": t1, "rc": rc, "stderr": err[-2000:],
                  "bytes": os.path.getsize(out_path)})
            receive()
            index += 1
    result = {"blocks": nblock, "peak_rss_kb": resource.getrusage(rss_who).ru_maxrss}
    if sampler is not None:
        result["pace"] = sampler.stop()
    else:
        sides = []
        for i in range(index):
            with open(os.path.join(out_dir, f"request-{i}.json")) as fh:
                sides.append(json.load(fh))
        result["pace"] = [sample for side in sides for sample in side["pace"]]
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(out_dir, "spans.json"))
    elif job["trace"]:
        import tracing

        result["trace"] = tracing.merge([side["trace"] for side in sides])
    return result


def main() -> int:
    channel = sys.stdout
    job = json.loads(sys.stdin.readline())

    def send(doc: dict) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    send(serve(job, send, sys.stdin.readline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
