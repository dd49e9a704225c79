"""The plan emitter (``exec/codegen.py``): bitwise parity between generic
and specialised tiers, cache accounting for code objects, the
``REPRO_CODEGEN_DUMP`` knob, codegen-compiled shard chunks, and that fused
runs free their dead temporaries."""
import tracemalloc
import os

import numpy as np
import pytest

import repro as rp
from helpers import run_both
from repro.exec.codegen import CodegenPlan, compile_codegen
from repro.exec.plan import (
    Plan,
    clear_plan_cache,
    compile_plan,
    plan_cache_stats,
    plan_for,
)
from repro.util import ExecError

rng = np.random.default_rng(29)


def _sum_kernel():
    def f(v):
        return rp.sum(rp.map(lambda x: rp.sin(x) * x, v)) + rp.astype(
            rp.size(v), rp.F64
        )

    return rp.compile(rp.trace_like(f, (np.ones(4),)))


#: The construct battery from the plan-cache suite: every SOAC
#: strategy/extent fast path, control flow, accumulators, and the
#: specialised folds.
_BATTERY = [
    ("size_iota_replicate", lambda v: rp.sum(
        rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(rp.size(v)))
    ) * rp.sum(v), (np.ones(5),), (rng.standard_normal(7),)),
    ("reduce_nonempty", lambda v: rp.sum(v) + rp.reduce(
        lambda a, b: rp.maximum(a, b), -1.0e9, v
    ), (np.ones(6),), (rng.standard_normal(9),)),
    ("reduce_empty", lambda v: rp.sum(v), (np.zeros(0),), (np.zeros(0),)),
    ("reduce_one", lambda v: rp.sum(v) * 3.0, (np.ones(1),),
     (rng.standard_normal(1),)),
    ("scan_hist", lambda inds, vals: rp.sum(
        rp.scan(lambda a, b: a + b, 0.0, vals)
    ) + rp.sum(rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, vals)),
     (np.array([0, 1, 2]), np.ones(3)),
     (np.array([3, 1, -1, 2, 0]), rng.standard_normal(5))),
    ("loop_while_if", lambda x, v: rp.cond(
        x > 0.0,
        lambda: rp.fori_loop(3, lambda i, a: a + rp.sum(v), x),
        lambda: rp.while_loop(lambda a: a < 4.0, lambda a: a + 1.0, x),
    ), (0.5, np.ones(4)), (-2.5, rng.standard_normal(6))),
    ("update_scatter_concat", lambda v, inds: rp.sum(
        rp.concat(rp.update(v, 1, 9.0),
                  rp.reverse(rp.scatter(rp.zeros_like(v), inds, v)))
    ), (np.ones(4), np.array([0, 2, 1, 3])),
     (rng.standard_normal(4), np.array([3, 0, 2, 1]))),
    ("nested_map_redomap", lambda m: rp.map(
        lambda r: rp.sum(rp.map(lambda x: rp.exp(x) * x, r)), m
    ), (np.ones((3, 4)),), (rng.standard_normal((5, 2)),)),
]


# ---------------------------------------------------------------------------
# Bitwise parity: generic vs specialised
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,f,ex,args", _BATTERY, ids=[b[0] for b in _BATTERY])
def test_codegen_generic_and_specialized_bitwise_battery(name, f, ex, args):
    fc = rp.compile(rp.trace_like(f, ex))
    run_both(fc, *args)  # ref/plan/shard agreement
    fun = fc.fun
    plan = compile_plan(fun)
    generic = compile_codegen(fun)
    spec = compile_codegen(fun, args)
    rp_ = plan.run(tuple(args))
    rg = generic.run(tuple(args))
    rs = spec.run(tuple(args))
    assert len(rp_) == len(rg) == len(rs)
    for a, b, c in zip(rp_, rg, rs):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        np.testing.assert_array_equal(np.asarray(a), np.asarray(c))


def test_codegen_gradients_bitwise_vs_plan():
    def f(v, w):
        s = rp.sum(v * w)
        wh = rp.while_loop(lambda a: a < 10.0, lambda a: a * 2.0, 1.0 + 0.0 * s)
        return s * wh + rp.sum(rp.scan(lambda a, b: a + b, 0.0, v))

    v, w = rng.standard_normal(8), rng.standard_normal(8)
    fc = rp.compile(rp.trace_like(f, (v, w)))
    g = rp.grad(fc)
    want = g(v, w, backend="plan")
    # The plan backend's generic plan vs a specialised compile_codegen build
    # of the same derivative.
    spec = compile_codegen(g.adfun.fun, (v, w, 1.0))
    got = spec.run((v, w, 1.0))[1:]
    for a, b in zip(want, got):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_codegen_batched_bitwise_vs_plan():
    fun = rp.trace_like(lambda v, w: rp.sum(v * w) * rp.sum(v + w),
                        (np.ones(6), np.ones(6)))
    B = 4
    vb = rng.standard_normal((B, 6))
    w = rng.standard_normal(6)
    rp_ = Plan(fun).run_batched((vb, w), (True, False), B)
    cg = CodegenPlan(fun).run_batched((vb, w), (True, False), B)
    for a, b in zip(rp_, cg):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_specialized_codegen_rejects_other_shapes_loudly():
    fc = _sum_kernel()
    spec = compile_codegen(fc.fun, (np.ones(4),))
    with pytest.raises(ExecError, match="specialised for argument 0"):
        spec.run((np.ones(7),))
    with pytest.raises(ExecError, match="batched flags"):
        spec.run_batched((np.ones((2, 4)),), (True,), 2)


# ---------------------------------------------------------------------------
# Cache-tier accounting: code objects ride the same two-tier cache
# ---------------------------------------------------------------------------


def test_codegen_shape_sweep_one_code_object_per_signature():
    fc = _sum_kernel()
    clear_plan_cache()
    sizes = (3, 4, 5, 6, 7, 8)
    for n in sizes:
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            fc(x, backend="plan"), fc(x, backend="ref"),
            rtol=1e-12, atol=1e-12,
        )
    st = plan_cache_stats()
    assert st["misses"] == 1, f"sweep re-compiled codegen plans: {st}"
    assert st["hits"] + st["specialized_hits"] == len(sizes) - 1
    em = st["emitters"]["plan"]
    assert em["plans"] == 1
    assert em["code_objects"] == 1
    assert em["source_bytes"] > 0
    assert em["compile_s"] >= 0.0 and em["emit_s"] >= 0.0


def test_codegen_promotion_counts_specialised_code_objects(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE", "1")
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE_AFTER", "2")
    fc = _sum_kernel()
    clear_plan_cache()
    x = rng.standard_normal(6)
    results = [np.asarray(fc(x, backend="plan")) for _ in range(5)]
    st = plan_cache_stats()
    assert st["promotions"] == 1
    assert st["specialized_entries"] == 1
    em = st["emitters"]["plan"]
    assert em["plans"] == 2  # one generic + one promoted specialised
    assert em["code_objects"] == 2
    for r in results[1:]:  # bitwise across the generic->specialised switch
        np.testing.assert_array_equal(results[0], r)


def test_plan_and_profile_emitters_get_separate_cache_rows():
    from repro.obs.profiler import ProfilePlan

    fc = _sum_kernel()
    clear_plan_cache()
    x = rng.standard_normal(5)
    p1 = plan_for(fc.fun, (x,), emitter="plan")
    p2 = plan_for(fc.fun, (x,), emitter="profile")
    st = plan_cache_stats()
    assert st["entries"] == 2 and st["misses"] == 2
    assert type(p1) is Plan and isinstance(p2, ProfilePlan)
    assert plan_for(fc.fun, (x,), emitter="profile") is p2  # cached repeat
    np.testing.assert_array_equal(p1.run((x,))[0], p2.run((x,))[0])
    assert set(st["emitters"]) >= {"plan", "profile"}


def test_unknown_emitter_raises_listing_the_registered_set():
    fc = _sum_kernel()
    with pytest.raises(ExecError, match="unknown plan emitter"):
        plan_for(fc.fun, (np.ones(4),), emitter="llvm")


def test_clear_plan_cache_resets_emitter_stats():
    fc = _sum_kernel()
    fc(np.ones(4), backend="plan")
    assert plan_cache_stats()["emitters"]
    clear_plan_cache()
    assert plan_cache_stats()["emitters"] == {}


# ---------------------------------------------------------------------------
# REPRO_CODEGEN_DUMP
# ---------------------------------------------------------------------------


def test_codegen_dump_writes_generated_source(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_DUMP", str(tmp_path))
    fc = _sum_kernel()
    generic = compile_codegen(fc.fun)
    spec = compile_codegen(fc.fun, (np.ones(4),))
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 2
    assert any("_generic_" in f for f in files)
    assert any("_spec_" in f for f in files)
    for f, plan in zip(files, (generic, spec)):
        text = (tmp_path / f).read_text()
        assert "def _plan_main(" in text
        assert plan.source in text


# ---------------------------------------------------------------------------
# Shard chunks on codegen
# ---------------------------------------------------------------------------


def test_shard_chunks_run_codegen_compiled(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_MAX_TASKS", "4")

    def f(v):
        return rp.map(lambda x: rp.tanh(x) * 2.0, v)

    fc = rp.compile(rp.trace_like(f, (np.ones(8),)))
    clear_plan_cache()
    xs = rng.standard_normal(11)  # chunk extents 5 and 6
    r_shard = fc(xs, backend="shard")
    np.testing.assert_array_equal(np.asarray(r_shard),
                                  np.asarray(fc(xs, backend="plan")))
    em = plan_cache_stats()["emitters"]
    assert em["plan"]["code_objects"] >= 1


# ---------------------------------------------------------------------------
# Dead temporaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ops", [20, 60])
def test_fused_run_frees_dead_temporaries(ops):
    """A map body that is one fused run of ``ops`` scalar ops keeps only a
    few arrays of the map's extent alive, however long the run: each
    intermediate dies as soon as its consumer has run."""
    n = 100_000

    def body(x):
        y = x
        for _ in range(ops // 2):
            y = y * 1.0001 + 0.5
        return y

    xs = np.linspace(0.0, 1.0, n)
    fc = rp.compile(rp.trace_like(lambda v: rp.map(body, v), (xs,)))
    fc(xs, backend="plan")  # build the plan outside the measured window
    tracemalloc.start()
    try:
        out = fc(xs, backend="plan")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(out, body(xs), rtol=1e-12)
    assert peak < 6 * 8 * n, f"peak {peak / (8 * n):.1f} arrays of extent n"
