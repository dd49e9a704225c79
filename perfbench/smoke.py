"""The benchmark's own smoke test.

Runs every workload at a tiny size through the untraced and the traced
modes (the traced one twice with one seed) and checks that every metric of
BENCHMARK.json is printed with its unit, that no step failed, that nothing
is flagged (such as a plan-cache miss or promotion during the timed steps),
that the Chrome trace parses, and that the count metrics repeat exactly.  It also
checks that a set ``REPRO_*`` knob is refused.  Run from the repository
root::

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, trace_path  # noqa: E402

#: Per-layer metrics that are counts of work and must repeat exactly.
COUNT_METRICS = (
    "frontend.ir_stms",
    "opt.deriv_stms",
    "opt.deriv_soacs",
    "exec.lower.instrs",
    "exec.lower.fused_stms",
    "exec.emit.source_bytes",
    "ir.cost_model.est_work",
    "ir.cost_model.est_bytes",
    "exec.run.calls_per_step",
    "exec.plan_cache.misses",
)
SEED = 3


def bench(workload: str, trace: int, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


def result_of(proc, what: str):
    check(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(res["correct"] is True, f"{what}: not correct")
    check(res["failed"] == 0 and res["attempted"] >= 1, f"{what}: failed steps")
    check(any(ln.startswith("error_rate 0.000000 fraction") for ln in lines),
          f"{what}: error_rate is not 0")
    flags = [ln for ln in lines if ln.startswith("FLAG")]
    check(not flags, f"{what}: {flags}")
    return res


def check_metrics(res, spec, what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for k, v in res["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{what}: {k} is not a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names a workload run.py does not have")
    for w in WORKLOADS:
        res = result_of(bench(w, 0), f"{w} untraced")
        check_metrics(res, spec["end_to_end"], f"{w} untraced")
        traced = []
        for rep in range(2):
            res = result_of(bench(w, 1), f"{w} traced #{rep}")
            check_metrics(res, spec["per_layer"], f"{w} traced #{rep}")
            with open(trace_path(w, SEED, "tiny")) as fh:
                events = json.load(fh)["traceEvents"]
            names = {e["name"] for e in events}
            check({"request", "exec.run", "exec.registry"} <= names, f"{w}: trace lacks spans")
            traced.append(res["metrics"])
        for k in COUNT_METRICS:
            a, b = traced[0][k]["value"], traced[1][k]["value"]
            check(a == b, f"{w}: count {k} differs between runs with one seed ({a} != {b})")
        print(f"smoke: {w} ok")
    env = dict(os.environ, REPRO_BACKEND="plan")
    proc = bench(WORKLOADS[0], 0, env)
    check(proc.returncode != 0 and not proc.stdout.strip(), "a set REPRO_* knob was not refused")
    print("smoke: REPRO_* refusal ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
