"""The unified observability layer (``repro.obs``).

Covers the PR 8 acceptance surface: span nesting/balance (including the
exception path), Chrome-trace export via ``REPRO_TRACE``, the per-
instruction ``"profile"`` emitter (bitwise parity with ``plan`` on the
fuzz corpus, report coverage on the GMM gradient), the metrics registry's
snapshot/delta/reset lifecycle, and the tracing-off overhead guard.
"""
import json
import time

import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.exec.plan import (
    PLAN_STATS,
    clear_plan_cache,
    plan_cache_stats,
    reset_plan_cache_stats,
)
from repro.obs import metrics, tracing
from test_fuzz_programs import _gen_program


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    """Every test starts with tracing off and no stale REPRO_* knobs."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    tracing.disable()
    yield
    tracing.disable()


def _sum_sq(xs):
    return rp.reduce(lambda a, b: a + b, 0.0, rp.map(lambda v: v * v, xs))


def _balance_check(evs):
    """Per-thread B/E balance with LIFO nesting."""
    stacks = {}
    for ev in evs:
        key = (ev["pid"], ev["tid"])
        if ev["ph"] == "B":
            stacks.setdefault(key, []).append(ev["name"])
        elif ev["ph"] == "E":
            assert stacks.get(key), f"E without B: {ev['name']}"
            assert stacks[key].pop() == ev["name"]
    assert all(not s for s in stacks.values()), f"unclosed spans: {stacks}"


# ---------------------------------------------------------------------------
# Tracing: spans, nesting, export
# ---------------------------------------------------------------------------


def test_span_noop_when_off():
    assert tracing.active() is None
    sp = tracing.span("anything")
    assert sp is tracing.span("other")  # the shared no-op singleton
    with sp:
        pass
    assert tracing.events() == []
    assert tracing.phase_totals() == {}


def test_spans_nest_and_balance():
    tracing.enable()
    with tracing.span("outer", cat="t"):
        with tracing.span("inner", cat="t", k=1):
            pass
        with tracing.span("inner", cat="t", k=2):
            pass
    evs = tracing.events()
    names = [(e["ph"], e["name"]) for e in evs]
    assert names == [
        ("B", "outer"),
        ("B", "inner"),
        ("E", "inner"),
        ("B", "inner"),
        ("E", "inner"),
        ("E", "outer"),
    ]
    _balance_check(evs)
    totals = tracing.phase_totals()
    assert totals["outer"]["count"] == 1
    assert totals["inner"]["count"] == 2
    assert totals["outer"]["seconds"] >= totals["inner"]["seconds"]


def test_spans_close_on_exception():
    tracing.enable()
    with pytest.raises(ValueError):
        with tracing.span("outer"):
            with tracing.span("inner"):
                raise ValueError("boom")
    evs = tracing.events()
    assert [(e["ph"], e["name"]) for e in evs] == [
        ("B", "outer"),
        ("B", "inner"),
        ("E", "inner"),
        ("E", "outer"),
    ]
    _balance_check(evs)


def test_events_repair_open_spans():
    tracing.enable()
    sp = tracing.span("open")
    sp.__enter__()
    evs = tracing.events()  # mid-span export: synthetic E appended
    _balance_check(evs)
    sp.__exit__(None, None, None)


def test_repro_trace_exports_chrome_json(tmp_path, monkeypatch):
    out = tmp_path / "trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(out))
    xs = np.linspace(0.0, 1.0, 32)
    fun = rp.trace_like(_sum_sq, (xs,), name="obs_trace_demo")
    clear_plan_cache()
    fc = rp.compile(fun)
    fc(xs)
    path = tracing.export()
    assert path == str(out)
    payload = json.loads(out.read_text())
    evs = payload["traceEvents"]
    _balance_check(evs)
    names = {e["name"] for e in evs}
    # the full pipeline shows up: API call, lowering, emission, execution
    assert {"call", "lower", "emit", "execute"} <= names
    ex = next(e for e in evs if e["name"] == "execute" and e["ph"] == "B")
    assert ex["args"]["fun"] == "obs_trace_demo"


def test_trace_includes_shard_chunk_spans(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "8")
    xs = np.linspace(0.0, 1.0, 64)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_shard_demo"))
    tracing.enable()
    fc(xs, backend="shard")
    evs = tracing.events()
    _balance_check(evs)
    chunks = [e for e in evs if e["ph"] == "B" and e["name"] == "shard:chunk"]
    assert len(chunks) >= 2
    for ev in chunks:
        assert ev["cat"] == "shard"
        assert ev["args"]["mode"] == "thread"
        assert ev["args"]["extent"] >= 1
        assert "worker" in ev["args"]
    # distinct worker threads carried distinct tids
    assert len({e["tid"] for e in chunks}) >= 1


def test_tracing_under_codegen_backend(monkeypatch):
    # The plan backend runs generated code; its execute spans say so.
    monkeypatch.setenv("REPRO_BACKEND", "plan")
    xs = np.linspace(-1.0, 1.0, 16)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_cg_demo"))
    clear_plan_cache()
    tracing.enable()
    got = fc(xs)
    assert np.allclose(got, np.sum(xs * xs))
    names = {e["name"] for e in tracing.events()}
    assert {"call", "execute"} <= names
    ex = next(
        e
        for e in tracing.events()
        if e["name"] == "execute" and e["ph"] == "B"
    )
    assert ex["args"]["emitter"] == "plan"
    assert {"emit", "compile"} <= names


def test_collecting_restores_off_state():
    assert tracing.active() is None
    with tracing.collecting():
        assert tracing.active() is not None
        with tracing.span("x"):
            pass
        assert tracing.phase_totals()["x"]["count"] == 1
    assert tracing.active() is None


# ---------------------------------------------------------------------------
# Profile emitter
# ---------------------------------------------------------------------------


def test_profile_emitter_bitwise_identical_on_fuzz_corpus(monkeypatch):
    from repro.obs import profiler

    profiler.reset_profile()
    for seed in (0, 1, 7, 23, 101, 4096):
        xs = np.random.default_rng(seed).standard_normal(7) * 0.8
        fun = rp.trace_like(_gen_program(seed), (xs,), name=f"fuzz{seed}")
        fc = rp.compile(fun)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        ref = fc(xs)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        got = fc(xs)
        assert np.array_equal(np.asarray(ref), np.asarray(got)), seed
    summary = profiler.profile_summary()
    assert summary["calls"] > 0 and summary["seconds"] >= 0.0


def test_profile_times_the_generated_code():
    """A profiled plan is the plain plan's generated source plus one clock
    read around each top-level instruction — nothing else differs."""
    from repro.exec.plan import plan_for

    xs = np.linspace(0.0, 1.0, 16)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_src_demo"))
    plain = plan_for(fc.fun, (xs,), emitter="plan")
    prof = plan_for(fc.fun, (xs,), emitter="profile")
    lines = prof.source.splitlines()
    timers = [ln for ln in lines if "_clock()" in ln or "_prof(" in ln]
    n_top = sum(ln.strip().startswith("_prof(") for ln in lines)
    assert n_top >= 1 and len(timers) == 2 * n_top
    assert [ln for ln in lines if ln not in timers] == plain.source.splitlines()


def test_profile_report_gmm_gradient(monkeypatch):
    from repro.apps import datagen, gmm
    from repro.obs import profiler

    monkeypatch.setenv("REPRO_PROFILE", "1")
    n, d, K = 256, 8, 8
    args = datagen.gmm_instance(n, d, K)[:4]
    fc = rp.compile(gmm.build_ir(n, d, K))
    g = rp.grad(fc, wrt=[0, 1, 2])
    g(*args)  # warm the plan cache outside the measured window
    profiler.reset_profile()
    tracing.enable()
    for _ in range(3):
        g(*args)
    rep = profiler.profile_report(top_k=10)
    assert rep["entries"], "no instructions attributed"
    # >=90% of execute-span time lands on named plan instructions
    assert rep["coverage"] is not None and rep["coverage"] >= 0.9
    for e in rep["entries"]:
        assert e["label"] and e["kind"]
        assert e["measured_rank"] >= 1
        assert "est_work" in e and "est_rank" in e and "mispredicted" in e
    txt = profiler.format_profile_report(rep)
    assert "est work" in txt and "%" in txt


def test_write_profile_json(tmp_path, monkeypatch):
    from repro.obs import profiler

    xs = np.linspace(0.0, 1.0, 16)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_wp_demo"))
    monkeypatch.setenv("REPRO_PROFILE", "1")
    fc(xs)
    out = tmp_path / "profile.json"
    path = profiler.write_profile(str(out))
    rep = json.loads(out.read_text())
    assert path == str(out)
    assert rep["total_s"] >= 0.0 and isinstance(rep["entries"], list)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_metrics_snapshot_delta_roundtrip():
    metrics.inc("obs_test_counter", 2, stage="a")
    with metrics.timer("obs_test_timer"):
        time.sleep(0.001)
    metrics.set_gauge("obs_test_gauge", 42)
    before = obs.snapshot()
    metrics.inc("obs_test_counter", 3, stage="a")
    metrics.inc("obs_test_counter", 1, stage="b")
    with metrics.timer("obs_test_timer"):
        pass
    after = obs.snapshot()
    d = obs.delta(before, after)
    assert d["counters"]["obs_test_counter{stage=a}"] == 3
    assert d["counters"]["obs_test_counter{stage=b}"] == 1
    assert d["timers"]["obs_test_timer"]["count"] == 1
    # round-trip: applying the delta to `before` reproduces `after`
    k = "obs_test_counter{stage=a}"
    assert before["counters"][k] + d["counters"][k] == after["counters"][k]


def test_snapshot_covers_all_stats_surfaces():
    snap = obs.snapshot()
    for section in ("plan_cache", "shard", "fusion", "opt", "backend_calls"):
        assert section in snap, section
    assert snap["plan_cache"].keys() >= {"hits", "misses"}
    assert "passes" in snap["opt"] and "cache" in snap["opt"]


def test_reset_plan_cache_stats_keeps_plans():
    xs = np.linspace(0.0, 1.0, 8)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_reset_demo"))
    fc(xs)
    fc(xs)
    assert plan_cache_stats()["entries"] >= 1
    assert PLAN_STATS["hits"] + PLAN_STATS["misses"] > 0
    reset_plan_cache_stats()
    st = plan_cache_stats()
    assert st["hits"] == st["misses"] == 0
    assert st["emitters"] == {}
    assert st["entries"] >= 1  # counters cleared, cached plans kept


def test_reset_all_zeroes_every_surface():
    xs = np.linspace(0.0, 1.0, 8)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_resetall_demo"))
    fc(xs, backend="shard")
    metrics.inc("obs_resetall_counter")
    tracing.enable()
    with tracing.span("x"):
        pass
    obs.reset_all()
    snap = obs.snapshot()
    for k in ("hits", "misses", "specialized_hits", "promotions"):
        assert snap["plan_cache"][k] == 0
    for k in ("sharded_calls", "batched_calls", "fallback_calls", "chunks"):
        assert snap["shard"][k] == 0
    assert all(v == 0 for v in snap["backend_calls"].values())
    assert snap["counters"] == {}
    assert tracing.phase_totals() == {}


# ---------------------------------------------------------------------------
# Overhead guard: tracing off must stay <2% on a hot scalar loop
# ---------------------------------------------------------------------------


def test_tracing_off_overhead_under_two_percent():
    assert tracing.active() is None

    def loop(x):
        return rp.fori_loop(64, lambda i, a: a * 0.999 + x, x)

    fc = rp.compile(rp.trace_like(loop, (0.5,), name="obs_overhead_demo"))
    fc(0.5, backend="plan")  # warm the plan cache

    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        fc(0.5, backend="plan")
    per_call = (time.perf_counter() - t0) / reps

    # Cost of the instrumentation when off: one span() no-op resolution
    # (plus the kwargs dict) per instrumented site.  A plan-backend call
    # crosses two sites (api call + execute).
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        with tracing.span("x", cat="exec", fun="f", emitter="plan"):
            pass
    per_span = (time.perf_counter() - t0) / n

    sites_per_call = 2
    overhead = per_span * sites_per_call
    assert overhead < 0.02 * per_call, (
        f"tracing-off overhead {overhead * 1e6:.2f}us/call vs "
        f"call time {per_call * 1e6:.2f}us"
    )
