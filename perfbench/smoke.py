"""Smoke check of the benchmark itself, on tiny inputs.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Checks that
1. every workload emits every metric BENCHMARK.json names, with its
   unit, untraced and traced, and that two seeds give the same names;
2. the oracles accept real outputs and reject corrupted ones;
3. the layer spans of each traced op cover its wall time, and the
   layer self times add up to the spans;
4. run.py fails without printing a result where the program is absent.
Exits 0 when all hold; otherwise prints what failed and exits 1.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class SmokeFailure(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SmokeFailure(what)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


def check_metric_names(spec: dict) -> None:
    names = {}
    for seed in ("1", "2"):
        for trace in ("0", "1"):
            proc = bench("--workload", "all", "--seed", seed, "--seconds", "0",
                         "--trace", trace, "--tiny")
            expect(proc.returncode == 0, f"seed {seed} trace {trace} exited {proc.returncode}: "
                   f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] is True, f"seed {seed} trace {trace}: not correct")
            wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            for metric in wanted:
                keys = (
                    [metric["name"]]
                    if metric["name"] == "setup_s"
                    else [f"{w}.{metric['name']}" for w in run.WORKLOADS]
                )
                for key in keys:
                    expect(key in result["metrics"], f"{key} missing (trace {trace})")
                    expect(result["metrics"][key]["unit"] == metric["unit"], f"{key} unit")
            names[(seed, trace)] = sorted(result["metrics"])
    for trace in ("0", "1"):
        expect(names[("1", trace)] == names[("2", trace)],
               f"metric names differ by seed (trace {trace})")
    print("ok: every metric named, with its unit, for every workload and both seeds")


def one_pass(ops, trace: bool) -> dict:
    env = run.pinned_env(run.load_manifest())
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run.WORK, delete=False) as spec:
        json.dump({"ops": [op.argv for op in ops], "trace": trace}, spec)
    try:
        proc = subprocess.run([sys.executable, run.WORKER, spec.name], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
    finally:
        os.unlink(spec.name)
    expect(proc.returncode == 0, f"worker failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_oracles_and_spans() -> None:
    os.makedirs(run.WORK, exist_ok=True)
    directory = tempfile.mkdtemp(dir=run.WORK)
    try:
        ingest = inputs.make("ingest", 3, os.path.relpath(directory, ROOT), inputs.TINY)
        ties = inputs.make("ties", 3, os.path.relpath(directory, ROOT), inputs.TINY)
        report = one_pass(ingest + ties, trace=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    tally, analyze, too_large = report["ops"]
    expect(oracles.check(ingest[0], tally) is None, "real tally output rejected")
    expect(oracles.check(ties[0], analyze) is None, "real analyze output rejected")
    expect(oracles.is_documented_failure(too_large), "n=9 analyze is not a classified exit 3")

    def edited(outcome: dict, edit) -> dict:
        payload = json.loads(outcome["stdout"])
        edit(payload)
        return dict(outcome, stdout=json.dumps(payload))

    def shift_mass(p):
        p["fraction"][0] += 1e-6
        p["fraction"][1] -= 1e-6

    def double_first(p):
        p["fraction"][0] *= 2

    def loose_residual(p):
        p["diagnostics"]["residual"] = 1e-3

    def claim_order(p):
        p["order"] = ["c0", "c1", "c2", "c3"]

    off_by_one = copy.deepcopy(tally["matrix"])
    off_by_one[0][1] += 1.0 / (2 * ingest[0].voters)
    corruptions = {
        "fractions off by 1e-6": edited(tally, shift_mass),
        "fraction sum": edited(tally, double_first),
        "residual": edited(tally, loose_residual),
        "truncated output": dict(tally, stdout=tally["stdout"][:-20]),
        "traceback": dict(tally, code=None, stdout="", stderr="Traceback ...\n"),
        "aggregate one half-vote off": dict(tally, matrix=off_by_one),
    }
    for what, outcome in corruptions.items():
        expect(oracles.check(ingest[0], outcome) is not None, f"oracle missed: {what}")
    expect(not oracles.is_documented_failure(corruptions["traceback"]), "traceback accepted")
    expect(oracles.check(ties[0], edited(analyze, claim_order)) is not None,
           "oracle missed: order on ties")
    print("ok: oracles accept real outputs and reject corrupted ones")

    layers = report["layers"]
    timed = sum(v for k, v in layers.items() if tracing.unit(k) == "s")
    roots = report["traced_roots"]
    expect(abs(timed - sum(roots)) <= 1e-6, "self times do not add up to the spans")
    for root, op in zip(roots, report["ops"]):
        expect(0.9 * op["seconds"] <= root <= op["seconds"], "spans miss op time")
    print("ok: layer self times add up to the traced op time")


def check_refuses_empty_tree() -> None:
    os.makedirs(run.WORK, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = bench("--workload", "ties", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the program")
    print("ok: refuses to run without the program's sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        check_oracles_and_spans()
        check_refuses_empty_tree()
        check_metric_names(spec)
    except SmokeFailure as exc:
        print(f"FAILED: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
