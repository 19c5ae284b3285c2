"""The llull benchmark: seeded inputs, timed CLI passes, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ingest,wide,stiff,ties,all}
        --seed N --seconds S --trace {0,1}

The run writes its inputs under perfbench/_work/ and starts a fresh
interpreter for everything it measures, each with the environment
that manifest.json pins.

--trace 0 reports the end-to-end metrics:
* wall_rel: median over passes of the CPU seconds of one pass over
  the workload's input files, divided by the mean CPU seconds of the
  fixed reference burst that a second thread of the same worker timed
  every few milliseconds during that pass (worker.py).  The host this
  runs on is shared, and how fast it runs Python changes by up to 1.7x
  from one second to the next; the ratio cancels that, the raw seconds
  do not.  Each pass runs in its own worker process; passes repeat
  until their wall seconds add up to S, and at least MIN_PASSES times.
  A fresh process per pass keeps one pass's heap from slowing the
  next.  The raw wall_s of a pass and the mean burst seconds are
  printed too, above the result line.
* peak_rss_mb: median peak resident memory of those worker processes.
* ok_ratio: share of the input files whose every pass was accepted by
  the oracles (oracles.py), i.e. 1 - fail_ratio.
* setup_s: median wall time of `python -c "import llull.cli"`, timed
  SETUP_PER_PASS times before each pass, so that the samples spread
  over the whole run, after one untimed run that compiles the
  bytecode.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracing.py (medians over the traced passes),
plus trace.overhead_s, the traced minus the untraced median wall_s.

`attempted` counts the workload's input files and `failed` those that
failed on any pass, so both stay the same however many passes fit in
the run.  `correct` is false if any output was wrong, rather than a
classified domain error.  The last line of stdout is the JSON result;
the lines before it give each metric's median, quartiles and sample
count.  With --workload all every workload runs in turn and metric
names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ingest", "wide", "stiff", "ties")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PER_PASS = 3
# A run must end within 180 s; child timeouts leave room to clean up.
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass(frozen=True)
class Metric:
    median: float
    q1: float
    q3: float
    samples: int
    unit: str

    @classmethod
    def of(cls, values: list[float], unit: str) -> "Metric":
        if len(values) == 1:
            return cls(values[0], values[0], values[0], 1, unit)
        q1, _, q3 = statistics.quantiles(values, n=4)
        return cls(statistics.median(values), q1, q3, len(values), unit)

    def describe(self, name: str) -> str:
        return (
            f"{name} {self.median:.6g} {self.unit} "
            f"(q1 {self.q1:.6g}, q3 {self.q3:.6g}, n={self.samples})"
        )


def load_manifest() -> dict:
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


def pinned_env(manifest: dict) -> dict:
    env = dict(os.environ)
    for key in manifest["environment"]["unset"]:
        env.pop(key, None)
    env.update(manifest["environment"]["set"])
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


def _child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run cmd to completion within the run budget; returns its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:]} did not finish within the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


SETUP_CMD = [sys.executable, "-c", "import llull.cli"]


def measure_setup(env: dict, deadline: float, samples: list[float]) -> None:
    for _ in range(SETUP_PER_PASS):
        start = time.perf_counter()
        _child(SETUP_CMD, env, deadline)
        samples.append(time.perf_counter() - start)


def pass_seconds(report: dict) -> float:
    return sum(op["seconds"] for op in report["ops"])


def relative_cost(report: dict) -> float:
    """CPU seconds of the pass's ops over the mean reference burst time."""
    cpu = sum(op["cpu_seconds"] for op in report["ops"])
    return cpu / statistics.fmean(report["burst_s"])


def time_passes(ops, directory: str, seconds: float, trace: bool, env, deadline, setup):
    """Worker reports of the untraced and the traced passes.

    Untraced passes are each preceded by set-up samples, added to setup.
    """
    specs = {}
    for traced in (False, True):
        specs[traced] = os.path.join(directory, f"spec-{int(traced)}.json")
        with open(specs[traced], "w", encoding="utf-8") as handle:
            json.dump({"ops": [op.argv for op in ops], "trace": traced}, handle)
    plain: list[dict] = []
    traced: list[dict] = []
    elapsed = 0.0
    while (
        elapsed < seconds
        or len(plain) < (MIN_TRACED_PASSES if trace else MIN_PASSES)
        or len(traced) < (MIN_TRACED_PASSES if trace else 0)
    ):
        use_trace = trace and len(traced) < len(plain)
        if not trace:
            measure_setup(env, deadline, setup)
        report = json.loads(_child([sys.executable, WORKER, specs[use_trace]], env, deadline))
        (traced if use_trace else plain).append(report)
        elapsed += pass_seconds(report)
    return plain, traced


def check_outputs(ops, reports) -> tuple[dict[int, str], bool]:
    """First rejection reason per failed op index, and whether any output was wrong."""
    import oracles

    rejected: dict[int, str] = {}
    wrong = False
    for report in reports:
        for index, (op, outcome) in enumerate(zip(ops, report["ops"])):
            reason = oracles.check(op, outcome)
            if reason is not None:
                rejected.setdefault(index, reason)
                wrong = wrong or not oracles.is_documented_failure(outcome)
    return rejected, wrong


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, env, deadline, sizes, setup
):
    """Generate, time and check one workload; returns (summary lines, result, metrics)."""
    import inputs
    import tracing

    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        ops = inputs.make(workload, seed, os.path.relpath(directory, ROOT), sizes)
        plain, traced = time_passes(ops, directory, seconds, trace, env, deadline, setup)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    rejected, wrong = check_outputs(ops, plain + traced)
    lines = [
        f"{workload}: {os.path.basename(ops[i].argv[2])} failed: {reason}"
        for i, reason in rejected.items()
    ]
    walls = [pass_seconds(r) for r in plain]
    if trace:
        metrics = {
            name: Metric.of([r["layers"][name] for r in traced], tracing.unit(name))
            for name in traced[0]["layers"]
        }
        overhead = statistics.median(pass_seconds(r) for r in traced) - statistics.median(walls)
        metrics["trace.overhead_s"] = Metric(overhead, overhead, overhead, len(traced), "s")
        coverage = min(
            root / op["seconds"]
            for r in traced
            for root, op in zip(r["traced_roots"], r["ops"])
        )
        lines.append(f"{workload}: layer spans cover at least {coverage:.4f} of each traced op")
    else:
        ok_ratio = 1.0 - len(rejected) / len(ops)
        lines.append(f"{workload}: {Metric.of(walls, 's').describe('wall_s')}")
        bursts = [statistics.fmean(r["burst_s"]) for r in plain]
        lines.append(f"{workload}: {Metric.of(bursts, 's').describe('burst_s')}")
        metrics = {
            "wall_rel": Metric.of([relative_cost(r) for r in plain], "ratio"),
            "peak_rss_mb": Metric.of([r["rss_mb"] for r in plain], "MB"),
            "ok_ratio": Metric(ok_ratio, ok_ratio, ok_ratio, len(ops), "ratio"),
        }
        lines.append(
            f"{workload}: fail_ratio {1.0 - ok_ratio:.4g} ratio "
            f"({len(rejected)} of {len(ops)} input files failed; {len(plain)} passes)"
        )
    result = {"correct": not wrong, "attempted": len(ops), "failed": len(rejected)}
    return lines, result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke.py")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "llull", "cli.py")):
        sys.stderr.write(f"error: no llull sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    manifest = load_manifest()
    # This process generates the inputs with numpy; pin it like the children.
    os.environ.update(manifest["environment"]["set"])
    sys.path.insert(0, HERE)
    import inputs

    env = pinned_env(manifest)
    sizes = inputs.TINY if args.tiny else inputs.FULL
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    combined = {"correct": True, "attempted": 0, "failed": 0}
    metrics: dict[str, Metric] = {}
    lines: list[str] = []
    setup: list[float] = []
    try:
        _child(SETUP_CMD, env, deadline)  # compiles the bytecode; untimed
        for workload in workloads:
            wlines, result, wmetrics = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), env, deadline, sizes, setup
            )
            lines += wlines
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: m for name, m in wmetrics.items()})
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if setup:
        metrics["setup_s"] = Metric.of(setup, "s")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(m.describe(name))
    combined["metrics"] = {name: {"value": m.median, "unit": m.unit} for name, m in metrics.items()}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
