"""One phase of one workload, in a fresh process (started by ``run.py``).

``--mode untraced`` measures the end-to-end numbers; ``--mode traced``
installs the span wrappers of ``spans.py`` and measures the per-layer
numbers.  The last line on stdout is this phase's JSON payload.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from typing import Dict, List

from reference import REFERENCES, normalised
from spans import Recorder, instrumented
from stats import Timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: At least this many timed steps, so ``step_tail_s`` has ten samples
#: beyond it even when one step takes longer than expected.
MIN_STEPS = 11
#: Untraced, cold builds (``setup_s`` is their median) take this share of
#: ``--seconds``, half before the timed loop and half after it, with at
#: least ``SETUP_MIN`` and at most ``SETUP_MAX`` builds in each half.
SETUP_SHARE = 0.25
SETUP_MIN, SETUP_MAX = 4, 40
#: Cold builds of the traced phase, which only needs their counts and spans.
TRACED_SETUP_REPS = 3
#: Warm-up steps run until one step neither misses the plan cache nor
#: promotes a plan, within these limits.
WARMUP_MIN, WARMUP_MAX = 2, 8
#: Repeats of one plan lookup while settling promotions; above the cost
#: model's largest promotion threshold (64 hits).
SETTLE_MAX = 80
#: Steps measured under tracemalloc after the traced loop.
ALLOC_STEPS = 2

#: Span name -> per-layer self-time metric.
LAYER_METRICS = {
    "frontend": "frontend.trace_s",
    "opt.optimize": "opt.optimize_s",
    "opt.acc_opt": "opt.acc_opt_s",
    "core.vjp": "core.vjp_s",
    "core.jvp": "core.jvp_s",
    "exec.lower": "exec.lower.s",
    "exec.emit": "exec.emit.s",
    "exec.plan_cache": "exec.plan_cache.s",
    "exec.run": "exec.run.s",
    "exec.registry": "exec.registry.dispatch_s",
    "ir.cost_model": "ir.cost_model.s",
    "baselines.manual": "baselines.manual_s",
    "baselines.tape": "baselines.tape_s",
    "baselines.tape_fd": "baselines.tape_fd_s",
}


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")


def fingerprint(seed: int, workload: str, size: str) -> Dict[str, object]:
    import numpy as np
    from repro.exec.registry import default_backend

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "backend": default_backend(),
        "workload": workload,
        "size": size,
        "seed": seed,
    }


def cache_counters() -> Dict[str, int]:
    from repro.exec.plan import plan_cache_stats
    from repro.opt.pipeline import opt_stats

    pc = plan_cache_stats()
    oc = opt_stats()["cache"]
    return {
        "plan_hits": pc["hits"] + pc["specialized_hits"],
        "plan_misses": pc["misses"],
        "plan_promotions": pc["promotions"],
        "opt_hits": oc["hits"],
        "opt_misses": oc["misses"],
    }


def _add_delta(acc: Dict[str, int], before: Dict[str, int], after: Dict[str, int]) -> None:
    for k in before:
        acc[k] = acc.get(k, 0) + after[k] - before[k]


@contextlib.contextmanager
def plan_lookups(calls: List[tuple]):
    """Record every ``plan_for`` call made inside the block, at the two
    places the program looks the function up."""
    import repro.exec.codegen as codegen
    import repro.exec.plan as plan

    def recording(fn):
        def wrapped(*args, **kwargs):
            calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)

        return wrapped

    saved = [(m, m.__dict__["plan_for"]) for m in (plan, codegen)]
    try:
        for m, fn in saved:
            m.plan_for = recording(fn)
        yield
    finally:
        for m, fn in saved:
            m.plan_for = fn


def settle_promotions(calls: List[tuple]) -> int:
    """Repeat each distinct recorded plan lookup until the cache serves it
    from its specialised (tier-2) plan, so that no promotion falls inside
    the timed loop.  A signature the cost model never promotes stops after
    ``SETTLE_MAX`` lookups.  Lookups lower plans but execute nothing.
    Returns the promotions made."""
    import numpy as np
    from repro.exec.plan import plan_cache_stats

    seen = set()
    promoted = 0
    for fn, args, kwargs in calls:
        fun, fargs = args[0], args[1]
        sig = tuple((np.shape(a), np.asarray(a).dtype.str) for a in fargs)
        key = (id(fn), id(fun), sig, repr(args[2:]), repr(sorted(kwargs.items())))
        if key in seen:
            continue
        seen.add(key)
        for _ in range(SETTLE_MAX):
            before = plan_cache_stats()
            fn(*args, **kwargs)
            after = plan_cache_stats()
            promoted += after["promotions"] - before["promotions"]
            if after["specialized_hits"] > before["specialized_hits"]:
                break
    return promoted


def clear_caches() -> None:
    from repro.exec.plan import clear_plan_cache
    from repro.opt.pipeline import clear_opt_cache

    clear_plan_cache()
    clear_opt_cache()


def count_instrs(body) -> int:
    """Plan-IR instructions in a lowered body, nested bodies included."""
    from repro.exec.lower import PBody

    n = 0
    for ins in body.instrs:
        n += 1
        for cls in type(ins).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                v = getattr(ins, slot, None)
                for sub in v if isinstance(v, (list, tuple)) else (v,):
                    if isinstance(sub, PBody):
                        n += count_instrs(sub)
    return n


def layer_counts(built) -> Dict[str, float]:
    """Work counts of the derivative a cold build produced; each must repeat
    exactly for the same seed."""
    import numpy as np
    import repro.exec.codegen as codegen
    from repro.exec.lower import lower_fun
    from repro.ir.cost_model import estimate_fun
    from repro.ir.traversal import count_soacs, count_stms

    derivs = [f for f, _ in built.derivs]
    irs = [lower_fun(f) for f in derivs]
    ests = [estimate_fun(f, [np.shape(a) for a in args]).total for f, args in built.derivs]
    return {
        "frontend.ir_stms": count_stms(built.primal_fun),
        "opt.deriv_stms": sum(count_stms(f) for f in derivs),
        "opt.deriv_soacs": sum(count_soacs(f) for f in derivs),
        "exec.lower.instrs": sum(count_instrs(ir.body) for ir in irs),
        "exec.lower.fused_stms": sum(ir.fused for ir in irs),
        "exec.emit.source_bytes": sum(len(codegen.compile_codegen(f).source) for f in derivs),
        "ir.cost_model.est_work": sum(e.work for e in ests),
        # The model counts f64 element traffic; the derivatives are all f64.
        "ir.cost_model.est_bytes": 8 * sum(e.mem for e in ests),
    }


class _NoRecorder:
    """Stands in for ``spans.Recorder`` in the untraced phase."""

    def request(self, rid, kind):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_phase(wl, mode: str, seconds: float, tiny: bool) -> Dict[str, object]:
    traced = mode == "traced"
    rec = Recorder() if traced else _NoRecorder()
    failures: List[str] = []
    out: Dict[str, object] = {}

    try:
        wl.self_check()
        out["oracle_self_check"] = "ok"
    except Exception as e:  # reported, and makes the run incorrect
        out["oracle_self_check"] = f"{type(e).__name__}: {e}"

    setup: List[float] = []
    setup_ref: List[float] = []
    step_ref: List[float] = []
    primal_ref: List[float] = []
    counts: List[Dict[str, float]] = []
    opt_window: Dict[str, int] = {}

    def cold_builds(reps: int, budget: float):
        """Build from empty caches at least ``reps`` times, and on until
        ``budget`` seconds have passed or ``SETUP_MAX`` builds are done;
        returns the last build."""
        t_begin = time.perf_counter()
        n = 0
        while n < reps or (n < SETUP_MAX and time.perf_counter() - t_begin < budget):
            n += 1
            clear_caches()
            gc.collect()
            c0 = cache_counters()
            t0 = time.perf_counter()
            with rec.request(f"setup-{len(setup)}", "setup"):
                built = wl.build()
            setup.append(time.perf_counter() - t0)
            setup_ref.append(_timed(REFERENCES["interp"]))
            _add_delta(opt_window, c0, cache_counters())
            if traced:
                with rec.paused():
                    counts.append(layer_counts(built))
        return built

    # Untraced, half the cold builds run after the loop, so that setup_s
    # samples the machine at two times, as the steps do.
    if tiny:
        halves = [(1, 0.0), (1, 0.0)]
    elif traced:
        halves = [(TRACED_SETUP_REPS, 0.0), (0, 0.0)]
    else:
        halves = [(SETUP_MIN, SETUP_SHARE * seconds / 2)] * 2
    steps: List[float] = []
    primals: List[float] = []
    base: Dict[str, List[float]] = {"manual": [], "tape": [], "tape_fd": []}
    step_window: Dict[str, int] = {}
    peaks: List[float] = []
    attempted = 0
    with instrumented(rec) if traced else contextlib.nullcontext():
        built = cold_builds(*halves[0])

        # -- warm-up ----------------------------------------------------------
        def warmup_step(k: int) -> Dict[str, int]:
            c0 = cache_counters()
            with rec.request(f"warmup-{k}", "warmup"):
                inp = wl.inputs(-1 - k)
                wl.step(built, inp)
                wl.primal(built, inp)
            d: Dict[str, int] = {}
            _add_delta(d, c0, cache_counters())
            return d

        # The first warm-up step records the plan lookups a step and the
        # primal make; repeating them drives every signature through its
        # tier-2 promotion, which otherwise comes only after up to 64 steps.
        lookups: List[tuple] = []
        with plan_lookups(lookups):
            warmup_step(0)
        with rec.paused():
            out["settled_promotions"] = settle_promotions(lookups)
        del lookups
        warm = 1
        while warm < WARMUP_MAX:
            d = warmup_step(warm)
            warm += 1
            if warm >= WARMUP_MIN and d["plan_misses"] == 0 and d["plan_promotions"] == 0:
                break
        out["warmup_steps"] = warm

        # -- timed closed loop ------------------------------------------------
        t_start = time.perf_counter()
        # Past this, a slowed-down program reports fewer steps instead of
        # overrunning the run's deadline.
        hard_stop = t_start + max(2 * seconds, 20.0)
        i = 0
        while (
            time.perf_counter() - t_start < seconds
            or attempted < MIN_STEPS
        ) and time.perf_counter() < hard_stop:
            inp = wl.inputs(i)
            gc.collect()
            attempted += 1
            c0 = cache_counters()
            res, err = None, None
            t0 = time.perf_counter()
            try:
                with rec.request(f"step-{i}", "step"):
                    res = wl.step(built, inp)
            except Exception as e:  # a failed request is counted, not fatal
                err = f"step {i} raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            _add_delta(step_window, c0, cache_counters())
            with rec.paused():
                if err is None and res is None:
                    err = f"step {i} returned nothing"
                if err is None:
                    try:
                        wl.check(inp, res)
                        wl.accept(res)
                        steps.append(dt)
                    except Exception as e:
                        err = f"step {i}: {type(e).__name__}: {e}"
                if err is not None:
                    failures.append(err)
                if not traced:
                    primals.append(_timed(lambda: wl.primal(built, inp)))
                    primal_ref.append(_timed(REFERENCES[wl.reference]))
                    if err is None:
                        step_ref.append(primal_ref[-1])
            if traced:
                with rec.request(f"baseline-{i}", "baseline"):
                    for name, fn in (("manual", wl.manual), ("tape", wl.tape),
                                     ("tape_fd", wl.tape_step)):
                        if fn is None:  # the tape's step is its gradient
                            continue
                        with rec.span(f"baselines.{name}"):
                            base[name].append(_timed(lambda: fn(inp)))
            i += 1

        if traced:
            with rec.paused():
                for j in range(ALLOC_STEPS):
                    inp = wl.inputs(i + j)
                    gc.collect()
                    tracemalloc.start()
                    try:
                        wl.step(built, inp)
                        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                    finally:
                        tracemalloc.stop()
        else:
            cold_builds(*halves[1])

    out.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        step_window=step_window,
        step=Timing.of(steps).summary() if steps else None,
        setup=Timing.of(setup).summary(),
    )
    if not traced:
        out["samples"] = {"step": steps, "step_ref": step_ref, "setup": setup,
                          "setup_ref": setup_ref, "primal": primals, "primal_ref": primal_ref}
        if steps:
            out["step_norm"] = normalised(steps, step_ref, wl.reference).summary()
        out["setup_norm"] = normalised(setup, setup_ref, "interp").summary()
        out["primal_norm"] = normalised(primals, primal_ref, wl.reference).summary()
        out["primal"] = Timing.of(primals).summary()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out
    out.update(layer_metrics(rec, counts, step_window, opt_window, peaks))
    if wl.tape_step is None:
        base["tape_fd"] = base["tape"]
        out["layers"]["baselines.tape_fd_s"] = out["layers"]["baselines.tape_s"]
    out["baselines"] = {k: Timing.of(v).summary() for k, v in base.items()}
    out["recorder"] = rec
    return out


def layer_metrics(rec, counts, step_window, opt_window, peaks) -> Dict[str, object]:
    import statistics

    per_req = rec.self_times()
    kinds = rec.kinds
    layers: Dict[str, float] = {}
    entered: Dict[str, int] = {}
    for span, metric in LAYER_METRICS.items():
        vals = [v[0] for (rid, name), v in per_req.items()
                if name == span and kinds[rid] != "warmup"]
        layers[metric] = statistics.median(vals) if vals else 0.0
        entered[metric] = len(vals)
    runs = [per_req.get((rid, "exec.run"), [0.0, 0])[1]
            for rid, kind in kinds.items() if kind == "step"]
    layers["exec.run.calls_per_step"] = statistics.median(runs) if runs else 0
    layers["exec.run.peak_alloc_mb"] = statistics.median(peaks)
    lookups = step_window["plan_hits"] + step_window["plan_misses"]
    layers["exec.plan_cache.hit_ratio"] = step_window["plan_hits"] / lookups if lookups else 0.0
    layers["exec.plan_cache.misses"] = step_window["plan_misses"]
    layers["exec.plan_cache.promotions"] = step_window["plan_promotions"]
    # The memo is consulted by the cold builds.
    ohits = opt_window["opt_hits"]
    olook = ohits + opt_window["opt_misses"]
    layers["opt.memo_hit_ratio"] = ohits / olook if olook else 0.0
    flags = [k for k in counts[0] if any(c[k] != counts[0][k] for c in counts)]
    layers.update(counts[-1])
    return {"layers": layers, "requests_per_layer": entered,
            "count_flags": flags, "counts_per_build": counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("untraced", "traced"), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace-file", default=None)
    a = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[a.workload](a.seed, a.size == "tiny")
    out = run_phase(wl, a.mode, a.seconds, a.size == "tiny")
    rec = out.pop("recorder", None)
    if rec is not None and a.trace_file:
        rec.write_chrome_trace(a.trace_file)
    out["fingerprint"] = fingerprint(a.seed, a.workload, a.size)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
