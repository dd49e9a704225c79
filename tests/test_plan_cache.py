"""Two-tier plan cache: tier-1 shape-sweep behaviour, tier-2 promotion and
bitwise generic/specialised parity (including on the shard chunk path),
multi-thread hammer under the now-locked cache, the ``BoundedLRU`` stored-
``None`` regression, and the registry-level default backend."""
import threading

import numpy as np
import pytest

import repro as rp
from helpers import run_both
from repro.exec.plan import (
    clear_plan_cache,
    compile_plan,
    plan_cache_stats,
    plan_for,
)
from repro.exec.registry import default_backend
from repro.util import BoundedLRU, ExecError, ReproError

rng = np.random.default_rng(11)


def _sum_kernel():
    def f(v):
        return rp.sum(rp.map(lambda x: rp.sin(x) * x, v)) + rp.astype(
            rp.size(v), rp.F64
        )

    return rp.compile(rp.trace_like(f, (np.ones(4),)))


# ---------------------------------------------------------------------------
# Tier 1: generic lowerings are per rank/dtype signature, not per shape
# ---------------------------------------------------------------------------


def test_shape_sweep_one_generic_lowering_per_signature():
    fc = _sum_kernel()
    clear_plan_cache()
    sizes = (3, 4, 5, 6, 7, 8)  # >= 5 distinct concrete signatures
    for n in sizes:
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            fc(x, backend="plan"), fc(x, backend="ref"), rtol=1e-12, atol=1e-12
        )
    st = plan_cache_stats()
    assert st["misses"] == 1, f"sweep re-lowered generic plans: {st}"
    assert st["hits"] + st["specialized_hits"] == len(sizes) - 1
    assert st["entries"] == 1
    # A different dtype is a different rank/dtype signature: one more miss,
    # and still only one regardless of how many float32 extents follow.
    for n in (3, 4, 5):
        fc(rng.standard_normal(n).astype(np.float32), backend="plan")
    st2 = plan_cache_stats()
    assert st2["misses"] == 2, st2


def test_sweep_hits_grow_and_misses_stay_flat_on_derivatives():
    fc = _sum_kernel()
    g = rp.grad(fc)
    clear_plan_cache()
    for n in (4, 6, 8, 10, 12):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            g(x, backend="plan"), g(x, backend="ref"), rtol=1e-10, atol=1e-10
        )
    st = plan_cache_stats()
    assert st["misses"] == 1, st  # one derivative Fun, one generic lowering
    assert st["hits"] + st["specialized_hits"] == 4


# ---------------------------------------------------------------------------
# Tier 2: promotion + bitwise agreement with the generic plan
# ---------------------------------------------------------------------------


def test_promotion_after_n_hits_and_results_stay_identical(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE", "1")
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE_AFTER", "2")
    fc = _sum_kernel()
    clear_plan_cache()
    x = rng.standard_normal(6)
    results = [np.asarray(fc(x, backend="plan")) for _ in range(5)]
    st = plan_cache_stats()
    assert st["misses"] == 1
    assert st["promotions"] == 1  # promoted on the 2nd generic hit
    assert st["specialized_hits"] == 2  # calls 4 and 5
    assert st["specialized_entries"] == 1
    for r in results[1:]:  # bitwise across the generic->specialised switch
        np.testing.assert_array_equal(results[0], r)


def test_specialization_can_be_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE", "0")
    fc = _sum_kernel()
    clear_plan_cache()
    x = rng.standard_normal(6)
    for _ in range(6):
        fc(x, backend="plan")
    st = plan_cache_stats()
    assert st["promotions"] == 0 and st["specialized_entries"] == 0
    assert st["hits"] == 5


#: Programs covering every construct the specialised lowering touches (Size
#: folds, iota prebuild, constant extents, extent-picked reduce strategies)
#: plus control flow / accumulators the static inference must walk soundly.
_BATTERY = [
    ("size_iota_replicate", lambda v: rp.sum(
        rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(rp.size(v)))
    ) * rp.sum(v), (np.ones(5),), (rng.standard_normal(7),)),
    ("reduce_nonempty", lambda v: rp.sum(v) + rp.reduce(
        lambda a, b: rp.maximum(a, b), -1.0e9, v
    ), (np.ones(6),), (rng.standard_normal(9),)),
    ("reduce_empty", lambda v: rp.sum(v), (np.zeros(0),), (np.zeros(0),)),
    ("reduce_one", lambda v: rp.sum(v) * 3.0, (np.ones(1),), (rng.standard_normal(1),)),
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
        rp.concat(rp.update(v, 1, 9.0), rp.reverse(rp.scatter(rp.zeros_like(v), inds, v)))
    ), (np.ones(4), np.array([0, 2, 1, 3])),
     (rng.standard_normal(4), np.array([3, 0, 2, 1]))),
    ("nested_map_redomap", lambda m: rp.map(
        lambda r: rp.sum(rp.map(lambda x: rp.exp(x) * x, r)), m
    ), (np.ones((3, 4)),), (rng.standard_normal((5, 2)),)),
]


@pytest.mark.parametrize("name,f,ex,args", _BATTERY, ids=[b[0] for b in _BATTERY])
def test_specialized_generic_bitwise_parity_battery(name, f, ex, args):
    fc = rp.compile(rp.trace_like(f, ex))
    run_both(fc, *args)  # ref/plan/shard agreement on these programs
    fun = fc.fun
    generic = compile_plan(fun)
    spec = compile_plan(fun, args)
    rg = generic.run(tuple(args))
    rs = spec.run(tuple(args))
    assert len(rg) == len(rs)
    for a, b in zip(rg, rs):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_specialized_plan_rejects_other_shapes_loudly():
    """A specialised plan run outside its signature must raise, not fold its
    baked constants into silently wrong numbers."""
    fc = _sum_kernel()
    spec = compile_plan(fc.fun, (np.ones(4),))
    np.testing.assert_allclose(
        np.asarray(spec.run((np.arange(4.0),))[0]),
        np.asarray(fc(np.arange(4.0), backend="ref")),
    )
    with pytest.raises(ExecError, match="specialised for argument 0"):
        spec.run((np.ones(7),))
    with pytest.raises(ExecError, match="batched flags"):
        spec.run_batched((np.ones((2, 4)),), (True,), 2)


def test_specialized_batched_plans_bitwise(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_SPECIALIZE_AFTER", "1")

    def f(m):
        return rp.map(lambda r: rp.sum(rp.map(lambda x: rp.tanh(x * x), r)), m)

    fc = rp.compile(rp.trace_like(f, (np.ones((3, 4)),)))
    j = rp.jacobian(fc)
    x = rng.standard_normal((3, 4))
    clear_plan_cache()
    ref = j(x, backend="ref")
    first = j(x, backend="plan")  # generic plans
    for _ in range(3):  # later calls ride promoted specialised plans
        np.testing.assert_array_equal(first, j(x, backend="plan"))
    np.testing.assert_allclose(first, ref, rtol=1e-10, atol=1e-10)
    assert plan_cache_stats()["promotions"] >= 1


# ---------------------------------------------------------------------------
# Shard integration: chunk plans ride tier 1 (and specialise per extent)
# ---------------------------------------------------------------------------


def test_shard_chunk_plans_share_one_generic_lowering(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_MAX_TASKS", "4")

    def f(v):
        return rp.map(lambda x: rp.tanh(x) * 2.0, v)

    fc = rp.compile(rp.trace_like(f, (np.ones(8),)))
    clear_plan_cache()
    xs = rng.standard_normal(11)  # chunk extents 5 and 6 — distinct shapes
    np.testing.assert_array_equal(
        fc(xs, backend="shard"), np.asarray(fc(xs, backend="plan"))
    )
    st = plan_cache_stats()
    shard_misses = st["misses"]
    # A different total extent (different chunk extents again) must not
    # re-lower the chunk plan: tier 1 keys on rank/dtype only.
    xs2 = rng.standard_normal(13)
    np.testing.assert_array_equal(
        fc(xs2, backend="shard"), np.asarray(fc(xs2, backend="plan"))
    )
    assert plan_cache_stats()["misses"] == shard_misses


def test_shard_thread_mode_parity_under_locked_cache(monkeypatch):
    """Concurrent shard calls resolve plans from pool workers; under the
    locked cache the stats stay exact and results stay correct."""
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MODE", "thread")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "8")
    monkeypatch.setenv("REPRO_SHARD_MAX_TASKS", "4")

    def f(v):
        return rp.sum(rp.map(lambda x: rp.exp(x) * x, v))

    fc = rp.compile(rp.trace_like(f, (np.ones(8),)))
    xs = {n: rng.standard_normal(n) for n in (33, 47, 61)}
    # Chunking is worker-count-independent, so concurrent shard results must
    # be *bitwise* equal to a quiet shard run (they may differ from the flat
    # plan reduce in the last ulp — different partial association order).
    expected = {n: float(np.asarray(fc(x, backend="shard"))) for n, x in xs.items()}
    for n, x in xs.items():
        np.testing.assert_allclose(
            expected[n], np.asarray(fc(x, backend="plan")), rtol=1e-12
        )
    clear_plan_cache()
    errors = []
    barrier = threading.Barrier(4)

    def worker(t):
        try:
            barrier.wait()
            for i in range(12):
                n = sorted(xs)[(t + i) % len(xs)]
                got = float(np.asarray(fc(xs[n], backend="shard")))
                if got != expected[n]:  # chunking is worker-count-independent
                    errors.append((t, i, n, got, expected[n]))
        except Exception as e:  # pragma: no cover - surfaced by the assert
            errors.append(repr(e))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors, errors[:3]


def test_plan_cache_thread_hammer():
    """8 threads x 40 calls racing one cache: with the lock, every call is
    accounted for exactly once and the sweep still lowers one generic plan."""
    fc = _sum_kernel()
    fun = fc.fun
    sizes = (3, 4, 5, 6, 7, 8)
    xs = {n: np.arange(float(n)) for n in sizes}
    expected = {n: float(np.asarray(fc(xs[n], backend="ref"))) for n in sizes}
    clear_plan_cache()
    nthreads, niter = 8, 40
    errors = []
    barrier = threading.Barrier(nthreads)

    def worker(t):
        try:
            barrier.wait()
            for i in range(niter):
                n = sizes[(t + i) % len(sizes)]
                (r,) = plan_for(fun, (xs[n],)).run((xs[n],))
                if not np.isclose(float(np.asarray(r)), expected[n]):
                    errors.append((t, i, n))
        except Exception as e:  # pragma: no cover - surfaced by the assert
            errors.append(repr(e))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors, errors[:3]
    st = plan_cache_stats()
    total = nthreads * niter
    assert st["hits"] + st["misses"] + st["specialized_hits"] == total, st
    assert st["misses"] == 1, st  # one rank/dtype signature -> one lowering


# ---------------------------------------------------------------------------
# BoundedLRU: a stored None is a hit, not a miss (regression)
# ---------------------------------------------------------------------------


def test_bounded_lru_stored_none_is_a_hit_and_refreshes():
    lru = BoundedLRU()
    miss = object()
    lru.put("a", None, 10)
    assert lru.get("a", miss) is None  # present, not the default
    lru.put("b", 1, 10)
    assert lru.get("a", miss) is None  # refreshes "a" as most-recent
    lru.put("c", 2, 2)  # capacity 2: evicts LRU "b", keeps refreshed "a"
    assert lru.get("a", miss) is None
    assert lru.get("b", miss) is miss
    assert lru.get("c", miss) == 2


def test_bounded_lru_default_is_returned_on_miss():
    lru = BoundedLRU()
    assert lru.get("nope") is None
    sentinel = object()
    assert lru.get("nope", sentinel) is sentinel


# ---------------------------------------------------------------------------
# Registry-level default backend (REPRO_BACKEND)
# ---------------------------------------------------------------------------


def test_default_backend_honours_env_and_validates(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend() == "plan"
    monkeypatch.setenv("REPRO_BACKEND", "ref")
    assert default_backend() == "ref"
    monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
    with pytest.raises(ReproError, match="registered backends"):
        default_backend()


def test_all_entry_points_share_the_default(monkeypatch):
    def f(v):
        return rp.sum(rp.map(lambda x: x * x, v))

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    x = np.arange(3.0)
    g = rp.grad(fc)
    h = rp.hessian_diag(fc)
    j = rp.jacobian(rp.compile(rp.trace_like(lambda v: rp.map(lambda a: a * a, v), (np.ones(3),))))
    monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
    for call in (lambda: fc(x), lambda: g(x), lambda: h(x), lambda: j(x)):
        with pytest.raises(ReproError, match="registered backends"):
            call()
    monkeypatch.setenv("REPRO_BACKEND", "ref")
    np.testing.assert_allclose(fc(x), 5.0)
    np.testing.assert_allclose(g(x), 2 * x)
    np.testing.assert_allclose(h(x), 2 * np.ones(3))
