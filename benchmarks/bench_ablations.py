"""Ablations A1–A10 (per DESIGN.md):

A1  §6.1 accumulator→reduce on the matmul adjoint (the GMM/LSTM lever);
A2  §4.3 strip-mining time–space trade-off (checkpoint memory vs re-exec);
A3  §4.1 perfect nests ⇒ no re-execution (DCE kills the forward sweeps);
A4  §5.1 specialised reduce rules vs the general two-scan rule;
A5  SOAC fusion on/off on the GMM gradient (the pass-registry flag);
A6  shard on/off on the GMM full Jacobian (batched forward seeds as the
    shard axis, plan backend vs the sharded executor);
A7  plan-cache tier-2 specialisation on/off: a ≥5-signature shape sweep of
    one Fun (one tier-1 generic lowering) and Table 1 workloads, generic
    vs shape-specialised plans;
A8  static cost model on/off: cost-guided fusion (REPRO_FUSE_COST=on) vs
    monotone fusion (=always) on the Table 5 GMM gradient and Table 3
    kmeans gradient, and cost-derived shard chunk sizing vs the static
    REPRO_SHARD_MIN_CHUNK/REPRO_SHARD_MAX_TASKS knobs on a map-kind shard
    program — guided must be parity-safe (bitwise) and no slower;
A9  the plan emitter: hot times of the A8 GMM gradient and two
    dispatch-bound scalar loops, the rendered source size and compile cost,
    and the guard that verification never runs on a cached-plan call;
A10 execution schedules: the cost model's default schedule vs forced
    REPRO_SCHEDULE overrides (all-sequential(64) on plan — bitwise parity
    asserted — and parallel(2) on shard — allclose) on the GMM full
    Jacobian and the LSTM scan; every row records the schedule it ran
    under and the cost-model-chosen schedule of the dominant statement.
"""
import os

import numpy as np
import pytest

import repro as rp
from repro.apps import ba, datagen, gmm, kmeans, lstm
from repro.core.api import vjp
from repro.exec.cost import CostRecorder
from repro.exec.interp import RefInterp
from repro.frontend.function import Compiled
from repro.ir import count_soacs, count_stms
from repro.opt.pipeline import AD_SAFE_PASSES, optimize_fun
from repro.core.vjp import vjp_fun
from common import BENCH_BACKEND, ba_setup, bench_row, timeit, write_table

rng = np.random.default_rng(0)


# --- A1: accumulator optimisation ------------------------------------------------

MM = (224, 128, 160)


@pytest.fixture(scope="module")
def mm_adjoints():
    n, k, m = MM
    f = rp.compile(rp.trace_like(lambda a, b: rp.matmul(a, b), (np.ones((n, k)), np.ones((k, m)))))
    raw = vjp(f, acc_opt=False)
    opt = vjp(f, acc_opt=True)
    A = rng.standard_normal((n, k))
    B = rng.standard_normal((k, m))
    S = rng.standard_normal((n, m))
    return raw, opt, (A, B, S)


def test_ablation_a1_acc_opt_off(benchmark, mm_adjoints):
    raw, opt, args = mm_adjoints
    benchmark(lambda: raw(*args))


def test_ablation_a1_acc_opt_on(benchmark, mm_adjoints):
    raw, opt, args = mm_adjoints
    benchmark(lambda: opt(*args))
    t_raw = timeit(lambda: raw(*args))
    t_opt = timeit(lambda: opt(*args))
    write_table(
        "ablation_a1_accopt",
        [
            "A1: matmul adjoint — §6.1 accumulator→reduce rewrite",
            f"shape {MM}: atomic-updates {t_raw:.3f}s, rewritten {t_opt:.3f}s, speedup {t_raw/t_opt:.2f}x",
            "paper: 'nearly one order of magnitude at application level' on GPU;",
            "the win grows with the summed dimension (atomics→dense reduction).",
        ],
        rows=[
            bench_row("acc_opt_off", seconds=t_raw),
            bench_row("acc_opt_on", seconds=t_opt),
        ],
    )
    assert t_opt < t_raw


# --- A2: strip-mining ---------------------------------------------------------------


def _stripmine_grad(sm: int):
    def f(x):
        return rp.fori_loop(1024, lambda i, a: rp.sin(a) * x, x, stripmine=sm)

    return rp.grad(rp.compile(rp.trace_like(f, (1.0,))))


def _peak_and_work(g):
    rec = CostRecorder()
    RefInterp(rec).run(g.adfun.fun, [0.8, 1.0])
    c = rec.snapshot()
    return c.peak_alloc, c.work


@pytest.mark.parametrize("sm", [0, 8, 32])
def test_ablation_a2_stripmine(benchmark, sm):
    g = _stripmine_grad(sm)
    benchmark(lambda: g(0.8))
    if sm == 32:
        rows = ["A2: strip-mining a 1024-iteration loop — §4.3 time-space trade-off",
                f"{'factor':>7s} {'peak ckpt':>10s} {'work':>10s}"]
        for k in (0, 8, 32):
            p, w = _peak_and_work(_stripmine_grad(k))
            rows.append(f"{k:7d} {p:10d} {w:10d}")
        rows.append("memory drops ~f-fold per level; work grows by one extra forward sweep")
        jrows = []
        for k in (0, 8, 32):
            p_, w_ = _peak_and_work(_stripmine_grad(k))
            jrows.append(bench_row(f"stripmine_{k}", peak_alloc=p_, work=w_))
        write_table("ablation_a2_stripmine", rows, rows=jrows)
        p0, w0 = _peak_and_work(_stripmine_grad(0))
        p32, w32 = _peak_and_work(_stripmine_grad(32))
        assert p32 < p0 / 4 and w32 < 4 * w0


# --- A3: perfect nests / DCE ----------------------------------------------------------


def test_ablation_a3_dce_perfect_nest(benchmark):
    def f(ass):
        return rp.map(lambda as_: rp.map(lambda a: a * a, as_), ass)

    fun = optimize_fun(rp.trace_like(f, (np.ones((16, 64)),)))
    raw = vjp_fun(fun)
    opt = optimize_fun(raw)
    ass = rng.standard_normal((16, 64))
    seed = np.ones((16, 64))
    prim = Compiled(fun, optimize=False)
    craw = Compiled(raw, optimize=False)
    copt = Compiled(opt, optimize=False)
    benchmark(lambda: copt(ass, seed))
    wp = prim.cost(ass).work
    wr = craw.cost(ass, seed).work
    wo = copt.cost(ass, seed).work
    write_table(
        "ablation_a3_dce",
        [
            "A3: perfect map nest (Fig. 2) — re-executed forward sweeps are dead code",
            f"primal work {wp}; adjoint work before DCE {wr} ({wr/wp:.2f}x); after DCE {wo} ({wo/wp:.2f}x)",
            f"statements: {count_stms(raw)} -> {count_stms(opt)}",
            "paper: perfect nests suffer no re-computation overhead after optimisation",
        ],
        rows=[
            bench_row("primal", work=wp),
            bench_row("adjoint_pre_dce", work=wr),
            bench_row("adjoint_post_dce", work=wo),
        ],
    )
    assert wo < wr
    assert wo <= 6 * wp


# --- A4: specialised reduce rules ----------------------------------------------------------


def test_ablation_a4_reduce_special_vs_general(benchmark):
    n = 50_000
    xs = rng.standard_normal(n) + 2.0

    f_special = rp.compile(rp.trace_like(lambda v: rp.sum(v), (xs,)))
    # An opaque addition defeats operator recognition → the general
    # two-scan rule is used.
    # minimum(a+b, huge) is semantically (+) on finite data but defeats
    # operator recognition, forcing the general two-scan rule.
    f_general = rp.compile(
        rp.trace_like(lambda v: rp.reduce(lambda a, b: rp.minimum(a + b, 1e300), 0.0, v), (xs,))
    )
    g_s = rp.grad(f_special)
    g_g = rp.grad(f_general)
    np.testing.assert_allclose(g_s(xs), g_g(xs), rtol=1e-10)
    benchmark(lambda: g_s(xs))
    t_s = timeit(lambda: g_s(xs))
    t_g = timeit(lambda: g_g(xs))
    write_table(
        "ablation_a4_reduce_special",
        [
            "A4: reduce(+) adjoint — §5.1.1 special case vs general two-scan rule",
            f"n={n}: special {t_s*1000:.1f} ms, general {t_g*1000:.1f} ms ({t_g/t_s:.1f}x slower)",
            "paper: the general rule needs ≥5 global memory accesses/element vs 1;",
            "our gap is amplified because unrecognised scan operators execute",
            "sequentially in the simulator (a real GPU keeps them parallel).",
        ],
        rows=[
            bench_row("reduce_special", seconds=t_s),
            bench_row("reduce_general", seconds=t_g),
        ],
    )
    assert t_s < t_g


# --- A5: SOAC fusion on/off ---------------------------------------------------------


GMM_A5 = (128, 8, 8)


@pytest.fixture(scope="module")
def gmm_fusion_pair():
    n, d, K = GMM_A5
    args = datagen.gmm_instance(n, d, K, 0)[:4]
    fun = gmm.build_ir(n, d, K)
    g_on = vjp(rp.compile(fun), wrt=[0, 1, 2])
    g_off = vjp(rp.compile(fun, passes=AD_SAFE_PASSES), wrt=[0, 1, 2], passes=AD_SAFE_PASSES)
    return args, g_on, g_off


@pytest.mark.parametrize("fused", [True, False])
def test_ablation_a5_fusion(benchmark, fused, gmm_fusion_pair):
    args, g_on, g_off = gmm_fusion_pair
    g = g_on if fused else g_off
    seeds = args + (1.0,)
    benchmark(lambda: g(*seeds, backend=BENCH_BACKEND))
    if not fused:
        t_on = timeit(lambda: g_on(*seeds, backend=BENCH_BACKEND))
        t_off = timeit(lambda: g_off(*seeds, backend=BENCH_BACKEND))
        s_on, s_off = count_soacs(g_on.fun), count_soacs(g_off.fun)
        write_table(
            "ablation_a5_fusion",
            [
                "A5: SOAC fusion on/off — GMM gradient (pass-registry flag)",
                f"shape {GMM_A5}: fused {t_on*1000:.1f} ms / {s_on} SOACs, "
                f"unfused {t_off*1000:.1f} ms / {s_off} SOACs",
                "fusion inlines producers into consumers (redomap shapes), so the",
                "post-AD gradient materialises fewer intermediates per pass.",
            ],
            rows=[
                bench_row("fusion_on", seconds=t_on, soacs=s_on),
                bench_row("fusion_off", seconds=t_off, soacs=s_off),
            ],
        )
        assert s_on < s_off


# --- A6: sharded execution on/off ---------------------------------------------------

GMM_A6 = (256, 8, 16)  # n, d, K -> K*d = 128 forward basis seeds


@pytest.fixture(scope="module")
def gmm_full_jacobian():
    """The GMM full Jacobian w.r.t. the means: all K·d forward basis seeds
    stacked on a leading batch axis (`call_batched`), which is exactly the
    axis the shard backend partitions across workers."""
    n, d, K = GMM_A6
    alphas, means, icf, x = datagen.gmm_instance(n, d, K, 0)[:4]
    fwd = rp.jvp(rp.compile(gmm.build_ir(n, d, K)))
    m = K * d
    seeds = np.eye(m).reshape(m, K, d)
    zeros = (np.zeros_like(alphas), np.zeros_like(icf), np.zeros_like(x))

    def jac(backend):
        out = fwd.call_batched(
            (alphas, means, icf, x, zeros[0], seeds, zeros[1], zeros[2]),
            (False, False, False, False, False, True, False, False),
            m,
            backend=backend,
        )
        return np.asarray(out[-1]).reshape(m)

    return jac


@pytest.mark.parametrize("sharded_on", [False, True])
def test_ablation_a6_shard(benchmark, sharded_on, gmm_full_jacobian, monkeypatch):
    from repro.exec.shard import shard_stats, shutdown_shard_pool

    jac = gmm_full_jacobian
    workers = min(4, os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_SHARD_WORKERS", str(workers))
    backend = "shard" if sharded_on else "plan"
    benchmark(lambda: jac(backend))
    if sharded_on:
        np.testing.assert_allclose(jac("shard"), jac("plan"), rtol=1e-9, atol=1e-12)
        t_plan = timeit(lambda: jac("plan"))
        t_shard = timeit(lambda: jac("shard"))
        st = shard_stats()
        shutdown_shard_pool()
        speedup = t_plan / t_shard
        write_table(
            "ablation_a6_shard",
            [
                "A6: shard on/off — GMM full Jacobian wrt means (batched fwd seeds)",
                f"shape {GMM_A6}, {GMM_A6[1] * GMM_A6[2]} seeds: "
                f"plan {t_plan * 1000:.1f} ms, shard {t_shard * 1000:.1f} ms "
                f"({speedup:.2f}x, {st['workers']} {st['mode']} workers, "
                f"cpu_count={os.cpu_count()})",
                "the stacked seed axis is partitioned across the worker pool;",
                "the win tracks the physical core count (>=1.5x expected at 4+",
                "cores; a 1-core box records ~1.0x and that is the honest number).",
            ],
            rows=[
                bench_row("plan", seconds=t_plan, backend="plan"),
                bench_row("shard", seconds=t_shard, backend="shard",
                          workers=st["workers"], mode=st["mode"]),
            ],
        )
        # The >=1.5x acceptance bar only applies where the hardware can
        # deliver it; smaller boxes record the measurement without asserting.
        if (os.cpu_count() or 1) >= 4 and st["mode"] == "thread":
            assert speedup >= 1.5


# --- A7: plan-cache tier-2 specialisation on/off -------------------------------------

#: ≥5 distinct shape signatures of ONE Fun.  The app IRs bake their extents
#: at trace time (iota constants), so the sweep uses a size-polymorphic
#: GMM-style log-sum-exp kernel; the Table 1 workloads below measure the
#: specialised-vs-generic wall clock at their (fixed) bench sizes.
A7_SIZES = (24, 32, 48, 64, 96)


@pytest.fixture(scope="module")
def a7_workloads():
    rng7 = np.random.default_rng(7)

    def kernel(xs, ws):
        return rp.sum(
            rp.map(lambda x: rp.log(rp.sum(rp.map(lambda w: rp.exp(x * w), ws))), xs)
        )

    g_sweep = vjp(
        rp.compile(rp.trace_like(kernel, (np.ones(8), np.ones(16)))), wrt=[0, 1]
    )
    sweep_args = [
        (rng7.standard_normal(n), rng7.standard_normal(16), 1.0) for n in A7_SIZES
    ]
    n, d, K = GMM_A5
    gmm_args = datagen.gmm_instance(n, d, K, 0)[:4] + (1.0,)
    g_gmm = vjp(rp.compile(gmm.build_ir(n, d, K)), wrt=[0, 1, 2])
    (gc, gp, gw, feats), _fc, _jv, jv_raw = ba_setup(16, 64, 256)
    ba_jac = lambda: ba.jacobian_ad(jv_raw, gc, gp, gw, feats, backend="plan")
    return (g_sweep, sweep_args), (g_gmm, gmm_args), ba_jac


def test_ablation_a7_plan_specialize(benchmark, a7_workloads, monkeypatch):
    from repro.exec.plan import clear_plan_cache, plan_cache_stats

    (g_sweep, sweep_args), (g_gmm, gmm_args), ba_jac = a7_workloads

    def sweep():
        for a in sweep_args:
            g_sweep(*a, backend="plan")

    def table1():
        g_gmm(*gmm_args, backend="plan")
        ba_jac()

    def measure():
        clear_plan_cache()
        sweep(); table1()  # lower the generic plans
        sweep(); table1()  # hit (and, when enabled, promote)
        t_sweep = timeit(sweep)
        t_t1 = timeit(table1)
        res = [np.asarray(g_sweep(*a, backend="plan")[1]) for a in sweep_args]
        return t_sweep, t_t1, res, plan_cache_stats()

    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE", "0")
    tg_sweep, tg_t1, res_gen, st_gen = measure()
    # the tier-1 acceptance invariant: one generic lowering serves all
    # >=5 signatures of the swept Fun (checked in isolation)
    clear_plan_cache()
    sweep()
    st_iso = plan_cache_stats()
    assert st_iso["misses"] == 1, st_iso
    assert st_iso["hits"] == len(A7_SIZES) - 1, st_iso

    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE", "1")
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE_AFTER", "1")
    ts_sweep, ts_t1, res_spec, st_spec = measure()
    assert st_spec["promotions"] >= len(A7_SIZES), st_spec
    assert st_spec["spec_folds"] > 0, st_spec
    # specialised and generic plans agree bitwise
    for a, b in zip(res_gen, res_spec):
        np.testing.assert_array_equal(a, b)

    benchmark(sweep)
    write_table(
        "ablation_a7_specialize",
        [
            "A7: plan-cache tier-2 specialisation on/off (REPRO_PLAN_SPECIALIZE)",
            f"shape sweep {A7_SIZES} of one Fun: generic {tg_sweep*1000:.1f} ms, "
            f"specialised {ts_sweep*1000:.1f} ms ({tg_sweep/ts_sweep:.2f}x); "
            f"1 generic lowering, {st_spec['promotions']} promotions, "
            f"{st_spec['spec_folds']} folds",
            f"Table 1 (GMM grad {GMM_A5} + BA jac (16,64,256)): generic "
            f"{tg_t1*1000:.1f} ms, specialised {ts_t1*1000:.1f} ms "
            f"({tg_t1/ts_t1:.2f}x)",
            "tier 1 lowers once per rank/dtype signature (misses==1 across the",
            "sweep); tier 2 folds Size/iota/extent constants per concrete shape",
            "and must be wall-clock no slower than generic (bitwise-equal results).",
        ],
        rows=[
            bench_row("sweep/generic", seconds=tg_sweep, backend="plan"),
            bench_row("sweep/specialized", seconds=ts_sweep, backend="plan",
                      promotions=st_spec["promotions"],
                      spec_folds=st_spec["spec_folds"]),
            bench_row("table1_gmm_ba/generic", seconds=tg_t1, backend="plan"),
            bench_row("table1_gmm_ba/specialized", seconds=ts_t1, backend="plan"),
        ],
    )
    # "no slower than generic", with headroom for interpreter noise
    assert ts_sweep <= tg_sweep * 1.25, (ts_sweep, tg_sweep)
    assert ts_t1 <= tg_t1 * 1.25, (ts_t1, tg_t1)


# --- A8: cost-model-guided decisions vs static heuristics ----------------------------

#: Table 5 GMM gradient shape and Table 3 kmeans gradient shape, scaled down
#: like every other ablation (the decision *parity* is what A8 asserts; the
#: wall-clock ratio is recorded honestly at these sizes).
GMM_A8 = (128, 8, 8)
KMEANS_A8 = (8, 512, 4)


def _a8_fusion_pair(monkeypatch, mode):
    """Trace + differentiate the A8 workloads under one REPRO_FUSE_COST
    mode.  The optimisation memo keys on the mode, so flipping the env var
    between builds cannot serve stale fused programs."""
    monkeypatch.setenv("REPRO_FUSE_COST", mode)
    n, d, K = GMM_A8
    gmm_args = datagen.gmm_instance(n, d, K, 0)[:4] + (1.0,)
    g_gmm = vjp(rp.compile(gmm.build_ir(n, d, K)), wrt=[0, 1, 2])
    k, kn, kd = KMEANS_A8
    pts, ctr = datagen.kmeans_instance(k, kn, kd, 0)
    g_km = vjp(rp.compile(kmeans.build_ir(kn, k, kd)), wrt=[1])
    return (g_gmm, gmm_args), (g_km, (pts, ctr))


def test_ablation_a8_cost_model(benchmark, monkeypatch):
    from repro.opt.fusion import fusion_stats, reset_fusion_stats
    from repro.exec.shard import reset_shard_stats, shard_stats, shutdown_shard_pool

    # -- part 1: cost-guided vs monotone fusion --------------------------------
    reset_fusion_stats()
    (gg_on, gmm_args), (gk_on, km_args) = _a8_fusion_pair(monkeypatch, "on")
    st_fuse = fusion_stats()
    (gg_mono, _), (gk_mono, _) = _a8_fusion_pair(monkeypatch, "always")
    s_on = count_soacs(gg_on.fun) + count_soacs(gk_on.fun)
    s_mono = count_soacs(gg_mono.fun) + count_soacs(gk_mono.fun)

    def run_pair(gg, gk):
        out = []
        for g, args in ((gg, gmm_args), (gk, km_args + (1.0,))):
            res = g(*args, backend=BENCH_BACKEND)
            out.extend(np.asarray(r) for r in (res if isinstance(res, tuple) else (res,)))
        return out

    res_on, res_mono = run_pair(gg_on, gk_on), run_pair(gg_mono, gk_mono)
    for a, b in zip(res_on, res_mono):
        np.testing.assert_array_equal(a, b)  # guided == monotone, bitwise

    t_on = timeit(lambda: run_pair(gg_on, gk_on))
    t_mono = timeit(lambda: run_pair(gg_mono, gk_mono))

    # -- part 2: cost-derived chunking vs the static knobs --------------------
    workers = min(4, os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_SHARD_WORKERS", str(workers))
    xs = rng.standard_normal(200_000)
    fc = rp.compile(
        rp.trace_like(
            lambda v: rp.map(lambda x: rp.sin(x) * rp.exp(-x * x) + x * 0.5, v), (xs,)
        )
    )

    def shard_run():
        return np.asarray(fc(xs, backend="shard"))

    def measure(min_chunk, max_tasks):
        """One configuration: warm twice (plan cache, pool, ufunc caches),
        then take the median of 7 repeats — both configs measured the same
        way so neither rides the other's warm-up."""
        if min_chunk is None:
            monkeypatch.delenv("REPRO_SHARD_MIN_CHUNK", raising=False)
            monkeypatch.delenv("REPRO_SHARD_MAX_TASKS", raising=False)
        else:
            monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", min_chunk)
            monkeypatch.setenv("REPRO_SHARD_MAX_TASKS", max_tasks)
        reset_shard_stats()
        res = shard_run()
        chunks = shard_stats()["chunks"]
        shard_run()
        return res, chunks, timeit(shard_run, repeats=7)

    r_guided, chunks_guided, t_guided = measure(None, None)
    r_static, chunks_static, t_static = measure("1024", "16")
    shutdown_shard_pool()
    # map-kind shard points recombine by concatenation: chunk geometry can
    # never change the numbers, so guided chunking is bitwise-safe.
    np.testing.assert_array_equal(r_guided, r_static)

    benchmark(lambda: run_pair(gg_on, gk_on))
    write_table(
        "ablation_a8_cost_model",
        [
            "A8: static cost model — guided vs cost-blind decisions",
            f"fusion (GMM {GMM_A8} + kmeans {KMEANS_A8} gradients): guided "
            f"{t_on*1000:.1f} ms / {s_on} SOACs, monotone {t_mono*1000:.1f} ms "
            f"/ {s_mono} SOACs ({t_mono/t_on:.2f}x, cost_rejected="
            f"{st_fuse['cost_rejected']})",
            f"shard chunking (200k-elem map, {workers} workers): derived "
            f"{t_guided*1000:.1f} ms / {chunks_guided} chunks, static knobs "
            f"{t_static*1000:.1f} ms / {chunks_static} chunks "
            f"({t_static/t_guided:.2f}x)",
            "guided fusion accepts exactly the candidates the estimator",
            "predicts to cut traffic (identical decisions on these programs,",
            "bitwise-equal results); chunk counts now derive from estimated",
            "per-element work against REPRO_COST_TASK_GRAIN instead of the",
            "static REPRO_SHARD_MIN_CHUNK floor (kept as an override).",
        ],
        rows=[
            bench_row("fusion/guided", seconds=t_on, soacs=s_on,
                      cost_rejected=st_fuse["cost_rejected"]),
            bench_row("fusion/monotone", seconds=t_mono, soacs=s_mono),
            bench_row("chunking/derived", seconds=t_guided, backend="shard",
                      chunks=chunks_guided, workers=workers),
            bench_row("chunking/static_knobs", seconds=t_static, backend="shard",
                      chunks=chunks_static, workers=workers),
        ],
    )
    # guided must be >= 1.0x monotone/static up to timing noise
    assert t_on <= t_mono * 1.15, (t_on, t_mono)
    assert t_guided <= t_static * 1.25, (t_guided, t_static)
    assert s_on == s_mono  # the gate accepted every profitable fusion


# --- A9: the plan emitter (rendered source, compile cost, verify guard) -------

#: Two regimes.  The GMM gradient (A8 scale) is array-bound: NumPy kernels
#: dominate.  The scalar loops are dispatch-bound: almost every instruction
#: is a handful of FLOPs, so what the rendered source does per instruction
#: *is* the cost.
GMM_A9 = GMM_A8
A9_FORI_ITERS = 512
A9_WHILE_LIMIT = 1000.0


def test_ablation_a9_codegen(benchmark):
    from repro.exec.plan import clear_plan_cache, plan_cache_stats

    n, d, K = GMM_A9
    gmm_args = datagen.gmm_instance(n, d, K, 0)[:4] + (1.0,)
    g_gmm = vjp(rp.compile(gmm.build_ir(n, d, K)), wrt=[0, 1, 2])

    def scalar_fori(x, v):
        def body(i, a):
            s = rp.sin(a) * 0.5 + rp.cos(a * a) * 0.25
            return a + s * rp.sum(v) * 1e-3
        return rp.fori_loop(A9_FORI_ITERS, body, x)

    def scalar_while(x):
        return rp.while_loop(
            lambda a: a < A9_WHILE_LIMIT, lambda a: a + rp.sin(a) * 0.1 + 1.0, x
        )

    fori_args = (0.1, rng.standard_normal(4))
    fc_fori = rp.compile(rp.trace_like(scalar_fori, fori_args))
    while_args = (0.0,)
    fc_while = rp.compile(rp.trace_like(scalar_while, while_args))

    workloads = [
        ("gmm_grad", lambda: g_gmm(*gmm_args, backend="plan"), 3),
        ("scalar_fori", lambda: fc_fori(*fori_args, backend="plan"), 7),
        ("scalar_while", lambda: fc_while(*while_args, backend="plan"), 7),
    ]

    clear_plan_cache()
    times = {}
    for name, run, reps in workloads:
        run()  # build the plan outside the timed repeats
        times[name] = timeit(run, repeats=reps)

    em = plan_cache_stats()["emitters"]["plan"]
    benchmark(lambda: fc_fori(*fori_args, backend="plan"))

    lines = [
        "A9: the plan emitter — plan IR rendered to one compiled Python",
        "function per plan; hot call times, rendered source and compile cost.",
    ]
    rows = []
    for name, t in times.items():
        lines.append(f"{name:12s} plan {t*1000:8.2f} ms")
        rows.append(bench_row(f"{name}/plan", seconds=t, backend="plan"))
    lines.append(
        f"plan cache: {em['code_objects']} code objects, "
        f"{em['source_bytes']} source bytes, compile {em['compile_s']*1000:.1f} ms"
    )
    rows.append(bench_row("codegen_cache", backend="plan",
                          code_objects=em["code_objects"],
                          source_bytes=em["source_bytes"],
                          compile_s=em["compile_s"]))
    write_table("ablation_a9_codegen", lines, rows=rows)

    # Verification-cost guard: every REPRO_VERIFY layer runs at *compile*
    # time, so hot cached-plan calls must be unaffected by the knob — the
    # verify counters stand still across the timed region, and wall clock
    # with boundary checking on stays within 2% of verification disabled
    # (plus a small absolute slack: these calls are sub-millisecond).
    from repro.ir.verify import VERIFY_STATS

    def run_hot():
        return fc_fori(*fori_args, backend="plan")

    env0 = os.environ.get("REPRO_VERIFY")
    try:
        run_hot()  # plan cache is hot from the timings above
        c0 = None
        t_off = t_bnd = float("inf")
        # Interleave the two modes and compare minima: min-of-rounds is
        # robust to machine drift where one median block vs another is not.
        for _ in range(3):
            os.environ["REPRO_VERIFY"] = "off"
            t_off = min(t_off, timeit(run_hot, repeats=7))
            os.environ["REPRO_VERIFY"] = "boundary"
            if c0 is None:
                c0 = dict(VERIFY_STATS)
            t_bnd = min(t_bnd, timeit(run_hot, repeats=7))
        assert dict(VERIFY_STATS) == c0, "verifier ran on a cached-plan call"
        assert t_bnd <= t_off * 1.02 + 2e-4, (t_bnd, t_off)
    finally:
        if env0 is None:
            os.environ.pop("REPRO_VERIFY", None)
        else:
            os.environ["REPRO_VERIFY"] = env0


# --- A10: execution schedules (cost-model default vs forced overrides) ----------

#: GMM sizes reuse A6 (the batched-seed shard axis); the LSTM sizes keep the
#: scan long enough that the recurrence, not setup, dominates.
GMM_A10 = GMM_A6
LSTM_A10 = (4, 24, 12, 16)  # bs, n, d, h


def test_ablation_a10_schedule(benchmark, monkeypatch):
    from repro.exec.shard import shutdown_shard_pool
    from repro.ir.cost_model import choose_schedule, stm_work
    from repro.ir.schedule import SCHEDULABLE, format_schedule

    monkeypatch.delenv("REPRO_SCHEDULE", raising=False)
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")

    # GMM full Jacobian w.r.t. the means: all K·d forward basis seeds
    # stacked on a leading batch axis (the axis shard partitions).
    n, d, K = GMM_A10
    alphas, means, icf, x = datagen.gmm_instance(n, d, K, 0)[:4]
    fwd = rp.jvp(rp.compile(gmm.build_ir(n, d, K)))
    m = K * d
    seeds = np.eye(m).reshape(m, K, d)
    zeros = (np.zeros_like(alphas), np.zeros_like(icf), np.zeros_like(x))

    def gmm_jac(fc, backend):
        out = fc.call_batched(
            (alphas, means, icf, x, zeros[0], seeds, zeros[1], zeros[2]),
            (False, False, False, False, False, True, False, False),
            m,
            backend=backend,
        )
        return np.asarray(out[-1]).reshape(m)

    # LSTM sequence loss: the scan-carried recurrence.
    bs, ln, ld, lh = LSTM_A10
    xs, wx, wh, b, wy, h0, c0, tg = datagen.lstm_instance(bs, ln, ld, lh, 0)
    lc = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    largs = (xs, wx, wh, b, wy, tg)

    def lstm_loss(fc, backend):
        return np.asarray(fc(*largs, backend=backend))

    workloads = [
        ("gmm_jacobian", fwd, gmm_jac),
        ("lstm_scan", lc, lstm_loss),
    ]
    lines = [
        "A10: cost-model default schedule vs forced REPRO_SCHEDULE overrides.",
        "sequential(64) runs on plan and must be bitwise-equal to the default;",
        "parallel(2) runs on shard at 2 pinned workers (allclose).  'chosen'",
        "is the cost model's pick for the workload's dominant statement.",
    ]
    rows = []
    for name, base, run in workloads:
        stms = [s for s in base.fun.body.stms if isinstance(s.exp, SCHEDULABLE)]
        chosen = "-"
        if stms:
            dom = max(stms, key=stm_work)
            chosen = format_schedule(choose_schedule(dom, workers=2))

        ref = run(base, "plan")
        t_def = timeit(lambda: run(base, "plan"))
        rows.append(bench_row(f"{name}/default", seconds=t_def, backend="plan",
                              schedule="(cost model)", chosen_schedule=chosen))

        # schedules are applied at compile time, so forced variants rebuild
        # from the already-optimised fun under the REPRO_SCHEDULE override
        monkeypatch.setenv("REPRO_SCHEDULE", "sequential(64)")
        seq = Compiled(base.fun, optimize=False)
        np.testing.assert_array_equal(run(seq, "plan"), ref)
        t_seq = timeit(lambda: run(seq, "plan"))
        rows.append(bench_row(f"{name}/sequential(64)", seconds=t_seq,
                              backend="plan", schedule="sequential(64)",
                              chosen_schedule=chosen))

        monkeypatch.setenv("REPRO_SCHEDULE", "parallel(2)·vectorized")
        par = Compiled(base.fun, optimize=False)
        np.testing.assert_allclose(run(par, "shard"), ref, rtol=1e-9, atol=1e-12)
        t_par = timeit(lambda: run(par, "shard"))
        rows.append(bench_row(f"{name}/parallel(2)", seconds=t_par,
                              backend="shard",
                              schedule="parallel(2)·vectorized",
                              chosen_schedule=chosen))
        monkeypatch.delenv("REPRO_SCHEDULE")

        lines.append(
            f"{name:14s} chosen {chosen:24s} default {t_def*1000:8.2f} ms, "
            f"sequential(64) {t_seq*1000:8.2f} ms, "
            f"parallel(2) {t_par*1000:8.2f} ms"
        )
    shutdown_shard_pool()
    benchmark(lambda: lstm_loss(lc, "plan"))
    write_table("ablation_a10_schedule", lines, rows=rows)
