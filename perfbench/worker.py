"""One pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC.json holds {"ops": [argv, ...], "trace": bool}.  Each argv goes
to `llull.cli.main` in turn, as a user would type it, with stdout and
stderr captured.  While the ops run, a second thread (HostSpeed) wakes
every SAMPLE_GAP_S and times one short burst of fixed work, so that
run.py can divide out how fast the host ran Python during this very
pass.  The process reports, as one JSON line on stdout: per op the
exit code, output, wall and CPU seconds and the matrix it aggregated
from ballots (for the ingest oracle; the shim that keeps it adds one
call per op); the burst timings; its peak resident memory (see
peak_rss_mb); and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import threading
import time
import traceback

import numpy as np

import tracing

SAMPLE_GAP_S = 0.005
BURST_ITERATIONS = 100  # about 1 ms on a 2-vCPU VM
_GRID = np.arange(400.0).reshape(20, 20) / 400.0
_PAIRS = _GRID + _GRID.T


def reference_burst() -> float:
    """Fixed work of the kinds the program spends its time on.

    Splitting a ballot-like line and counting its tokens in a dict, as
    the parser does; reading numpy scalars one at a time, as the
    structure checks do; and a fixed-point step on a 20-vector, as the
    Zermelo sweep does.  It never changes, so its time tracks only the
    host's speed.
    """
    counts: dict[str, int] = {}
    line = "c03 > c11 = c07 > c19 > c02"
    p = np.full(20, 1.0 / 20)
    total = 0.0
    for i in range(BURST_ITERATIONS):
        for token in line.split(" "):
            counts[token] = counts.get(token, 0) + 1
        total += _GRID[i % 20, (i * 7) % 20]
        p = (_PAIRS / (p[:, None] + p[None, :])).sum(axis=1)
        p /= p.sum()
    return total + float(p[0])


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts, on the CPU it is on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


class HostSpeed(threading.Thread):
    """Times a reference burst every SAMPLE_GAP_S while the ops run.

    The host is shared, and how fast it runs Python changes by up to
    1.7x from one second to the next, on each CPU on its own.  The
    bursts take the GIL in turn with the ops on the same CPU (see
    pin_to_one_cpu), so they see the same changes.  Each burst is
    timed in this thread's CPU time, which the ops do not add to;
    others_cpu() is the CPU time of every other thread of the process.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            start = time.thread_time()
            reference_burst()
            self.samples.append(time.thread_time() - start)
            if self._done.wait(SAMPLE_GAP_S):
                return

    def others_cpu(self) -> float:
        return time.process_time() - time.clock_gettime(self._clock)

    def start(self) -> None:
        super().start()
        self._clock = time.pthread_getcpuclockid(self.ident)

    def stop(self) -> list[float]:
        self._done.set()
        self.join()
        return self.samples


def _record_aggregates(sink: list) -> None:
    """Keep every matrix the CLI aggregates from ballots; no timing."""
    import llull.cli

    aggregate = llull.cli.aggregate

    def recording(*args, **kwargs):
        matrix = aggregate(*args, **kwargs)
        sink.append(matrix)
        return matrix

    llull.cli.aggregate = recording


def peak_rss_mb() -> float:
    """High-water resident memory of this process since it started.

    ru_maxrss would do, except that Linux carries it across exec: a
    child started by a large parent reports the parent's peak.  The
    VmHWM line of /proc/self/status belongs to this image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec: dict) -> dict:
    import llull.cli

    recorder = tracing.Recorder() if spec["trace"] else None
    if recorder is not None:
        tracing.install(recorder)
    aggregated: list = []
    _record_aggregates(aggregated)
    pin_to_one_cpu()
    reference_burst()  # warm-up, untimed
    sampler = HostSpeed()
    sampler.start()
    ops = []
    for argv in spec["ops"]:
        aggregated.clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start, cpu_start = time.perf_counter(), sampler.others_cpu()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = llull.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        cpu_seconds = sampler.others_cpu() - cpu_start
        seconds = time.perf_counter() - start
        ops.append(
            {
                "code": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "seconds": seconds,
                "cpu_seconds": cpu_seconds,
                "matrix": aggregated[0].scores.tolist() if aggregated else None,
            }
        )
    report = {"ops": ops, "burst_s": sampler.stop(), "rss_mb": peak_rss_mb()}
    if recorder is not None:
        report["layers"] = tracing.layer_metrics(recorder)
        report["traced_roots"] = recorder.root_seconds()
    return report


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        print(json.dumps(run(json.load(handle))))
