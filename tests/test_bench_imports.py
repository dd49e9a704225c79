"""Import-smoke coverage for the benchmark suite.

``bench_*.py`` files are not collected by pytest's default ``test_*``
pattern, so signature drift in the app/AD APIs they call would otherwise go
unnoticed until someone runs the benchmarks by hand.  Importing each module
executes its setup-level code (grids, paper tables, IR builders referenced
at module scope) without running any benchmark.
"""
import importlib
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(scope="module", autouse=True)
def _bench_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_bench_modules_discovered():
    # The paper's tables 1-6 plus ablations and the shared common module.
    assert len(BENCH_MODULES) >= 7


@pytest.mark.parametrize("mod", BENCH_MODULES)
def test_bench_module_imports(mod):
    importlib.import_module(mod)


def test_common_exposes_plan_backend_wiring():
    common = importlib.import_module("common")
    from repro.exec.registry import available_backends

    # any registered backend is a valid bench target (REPRO_BENCH_BACKEND)
    assert common.BENCH_BACKEND in available_backends()


def test_shard_stats_shape_for_bench_ablations():
    """The A6 shard ablation keys off ``shard_stats()``; make sure the
    counters exist, expose the worker/mode configuration, and move when a
    batched call is sharded."""
    import numpy as np

    import repro as rp
    from repro.exec.shard import shard_stats, shutdown_shard_pool

    st = shard_stats()
    assert {
        "sharded_calls",
        "batched_calls",
        "fallback_calls",
        "chunks",
        "pool_builds",
        "pool_errors",
        "workers",
        "mode",
    } <= set(st)
    assert st["workers"] >= 1 and st["mode"] in ("thread", "process")
    before = st["batched_calls"] + st["fallback_calls"]
    jac = rp.jacobian(
        rp.compile(rp.trace_like(lambda x: rp.map(lambda v: v * v, x), (np.ones(4),)))
    )
    jac(np.ones(4), backend="shard")
    st = shard_stats()
    assert st["batched_calls"] + st["fallback_calls"] > before
    shutdown_shard_pool()


def test_opt_stats_shape_for_bench_ablations():
    """The A5 fusion ablation keys off the pass registry and ``opt_stats``;
    make sure the counters exist, cover every registered pass, and move when
    the pipeline runs."""
    import numpy as np

    import repro as rp
    from repro.opt.pipeline import opt_stats, optimize_fun

    st = opt_stats()
    assert {"passes", "cache", "enabled"} <= set(st)
    assert {"simplify", "cse", "fuse", "dce"} <= set(st["passes"])
    for c in st["passes"].values():
        assert {"fired", "changed"} <= set(c)
    before = st["passes"]["fuse"]["fired"]
    fun = rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * 2.0, xs)), (np.ones(3),))
    optimize_fun(fun, cache=False)
    assert opt_stats()["passes"]["fuse"]["fired"] > before


def test_cost_model_shape_for_bench_ablation_a8():
    """The A8 cost-model ablation keys off ``fusion_stats``, the
    REPRO_FUSE_COST mode surfaced in ``opt_stats``, and the shard chunk
    counters; make sure the wiring exists and moves."""
    import numpy as np

    import repro as rp
    from repro.ir.cost_model import estimate_fun, soac_elem_cost, task_grain
    from repro.opt.fusion import fuse_cost_mode, fusion_stats, reset_fusion_stats
    from repro.opt.pipeline import opt_stats, optimize_fun

    assert fuse_cost_mode() in ("on", "off", "always")
    st = opt_stats()
    assert {"fuse_cost_mode", "fusion"} <= set(st)
    assert {"vertical", "horizontal", "cost_rejected"} <= set(st["fusion"])

    reset_fusion_stats()
    fun = rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * 2.0, xs)), (np.ones(3),))
    optimize_fun(fun, cache=False)
    assert fusion_stats()["vertical"] >= 1

    fe = estimate_fun(fun, [(3,)])
    assert fe.total.work > 0 and fe.soacs
    assert task_grain() >= 1
    assert soac_elem_cost(fun.body.stms[0].exp) is not None


def test_bench_rows_carry_their_own_measurement():
    """Rows built after several ``timeit`` calls each carry the phases of
    the measurement they were given, not of whichever ran last."""
    import numpy as np

    import repro as rp

    common = importlib.import_module("common")
    fc = rp.compile(rp.trace_like(lambda v: rp.sum(v * v), (np.ones(4),)))
    x = np.arange(4.0)
    fc(x, backend="plan")
    t_ours = common.timeit(lambda: fc(x, backend="plan"), repeats=3)
    t_numpy = common.timeit(lambda: float(np.sum(x * x)), repeats=2)
    ours = common.bench_row("ours", seconds=t_ours)
    base = common.bench_row("numpy", seconds=t_numpy)
    assert ours["phases"]["execute"]["count"] == 3
    assert base["phases"].get("execute", {}).get("count", 0) == 0
    assert type(ours["seconds"]) is float and ours["seconds"] == t_ours
    # A number derived from measurements belongs to none of them.
    assert "phases" not in common.bench_row("ratio", seconds=t_ours / t_numpy)
