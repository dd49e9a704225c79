"""Repository benchmark: derivative step time, set-up and memory.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kmeans_newton --seed 1 --seconds 40 --trace 0

Workloads: ``kmeans_newton``, ``lstm_grad`` (see ``workloads.py`` for what
each one stresses).  With ``--trace 0`` the last
stdout line holds the end-to-end metrics of BENCHMARK.json, measured
untraced; with ``--trace 1`` it holds the per-layer metrics, from a traced
process plus an untraced one (for the ratios and the tracing overhead),
each measuring for half of ``--seconds``.  Each phase runs in a fresh
process.  Lines before the last give the
percentile and sample count of each timing and the error rate; the full
record and the Chrome trace go to ``.perfbench_out/`` in the checkout.

The program's outputs are checked every step against the applications'
hand-written derivatives; a step that raises, returns nothing or disagrees
counts as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("kmeans_newton", "lstm_grad")
#: The whole run, both phases included, must end within this many seconds
#: per measured second, plus a fixed margin: a worker measures for up to
#: twice its share of ``--seconds`` and builds for a quarter of it.
DEADLINE_PER_S, DEADLINE_MARGIN_S = 3.0, 50.0
#: Thread-pool variables of the BLAS/OpenMP runtimes NumPy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> Dict[str, str]:
    """The workers' environment: one BLAS/OpenMP thread each (one worker
    runs at a time, so threads never exceed ``nproc``) and a fixed hash
    seed, so the program's set and dict orders repeat from run to run."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, deadline: float) -> Dict[str, object]:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / (2 if args.trace else 1)),
        "--mode", mode,
        "--size", args.size,
    ]
    if mode == "traced":
        cmd += ["--trace-file", trace_path(args.workload, args.seed, args.size)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()), text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def trace_path(workload: str, seed: int, size: str) -> str:
    return os.path.join(OUT_DIR, f"{workload}-s{seed}-{size}.trace.json")


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(values: Dict[str, float], spec) -> Dict[str, Dict[str, object]]:
    """The metrics ``spec`` lists, with its units; a missing one raises."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(u: Dict[str, object]) -> Dict[str, float]:
    """The gated metrics: times in nominal seconds (see reference.py)."""
    return {
        "step_s": u["step_norm"]["median"],
        "step_tail_s": u["step_norm"]["tail"],
        "setup_s": u["setup_norm"]["median"],
        "primal_s": u["primal_norm"]["median"],
        "peak_rss_mb": u["peak_rss_mb"],
    }


def per_layer(u: Dict[str, object], t: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics; times and ratios here are wall-clock."""
    layers = dict(t["layers"])
    step_s = u["step"]["median"]
    layers["core.primal_s"] = u["primal"]["median"]
    layers["core.ad_overhead_x"] = step_s / layers["core.primal_s"]
    layers["baselines.vs_tape_x"] = step_s / layers["baselines.tape_fd_s"]
    layers["baselines.vs_manual_x"] = step_s / layers["baselines.manual_s"]
    layers["trace.overhead_x"] = t["step"]["median"] / step_s
    return layers


def report(phases: Dict[str, Dict[str, object]], attempted: int, failed: int) -> List[str]:
    """Human-readable lines: every timing with its sample count, quartiles
    and tail percentile, the error rate, and any flagged count."""
    lines = []
    u = phases["untraced"]
    fp = u["fingerprint"]
    lines.append("fingerprint " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for name, key, what in (("step_s", "step_norm", "nominal"), ("setup_s", "setup_norm", "nominal"),
                            ("primal_s", "primal_norm", "nominal"), ("step_s", "step", "wall"),
                            ("setup_s", "setup", "wall"), ("primal_s", "primal", "wall")):
        s = u[key]
        lines.append(f"{name} ({what}) median={s['median']:.6f} q1={s['q1']:.6f} "
                     f"q3={s['q3']:.6f} n={s['n']}")
    for key, what in (("step_norm", "nominal"), ("step", "wall")):
        s = u[key]
        lines.append(f"step_tail_s ({what}) {s['tail']:.6f} s = p{s['tail_percentile']:.1f} "
                     f"of {s['n']} steps")
    if s["n"] <= 10:
        lines.append("FLAG fewer than 11 steps: step_tail_s is the slowest step")
    lines.append(f"peak_rss_mb {u['peak_rss_mb']:.1f} MB")
    lines.append(f"error_rate {failed / attempted:.6f} fraction ({failed}/{attempted} steps)")
    for mode, p in phases.items():
        if p["oracle_self_check"] != "ok":
            lines.append(f"FLAG {mode}: oracle self-check failed: {p['oracle_self_check']}")
        for f in p["failures"]:
            lines.append(f"FLAG {mode}: {f}")
        win = p["step_window"]
        for key, what in (("plan_misses", "plan-cache misses"),
                          ("plan_promotions", "plan promotions")):
            if win[key]:
                lines.append(f"FLAG {mode}: {win[key]} {what} during the timed steps")
    t = phases.get("traced")
    if t is not None:
        for k in t["count_flags"]:
            lines.append(f"FLAG count {k} differs between cold builds of one run")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shapes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; REPRO_* knobs change "
              "the measured program", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_MARGIN_S + DEADLINE_PER_S * args.seconds
    modes = ("untraced", "traced") if args.trace else ("untraced",)
    try:
        phases = {m: run_worker(args, m, deadline) for m in modes}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    u = phases["untraced"]
    if any(p["step"] is None for p in phases.values()):
        print("benchmark failed: no step succeeded", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    lines = report(phases, attempted, failed)
    spec = load_spec()
    if args.trace:
        metrics = select(per_layer(u, phases["traced"]), spec["per_layer"])
    else:
        metrics = select(end_to_end(u), spec["end_to_end"])
    correct = failed == 0 and all(p["oracle_self_check"] == "ok" for p in phases.values())
    record = {"args": vars(args), "phases": phases, "metrics": metrics, "report": lines}
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-{args.size}"
                           f"-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
