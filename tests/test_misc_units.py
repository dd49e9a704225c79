"""Remaining unit coverage: util, pretty-printer constructs, datagen
determinism, cost ratios, API shapes."""
import numpy as np
import pytest

import repro as rp
from repro.apps import datagen
from repro.exec.cost import Cost
from repro.ir import pretty
from repro.util import ADError, NameSupply, ReproError, fresh


def test_name_supply_unique_and_stem_stable():
    s = NameSupply()
    a = s.fresh("x")
    b = s.fresh("x")
    assert a != b
    c = s.fresh(a)  # re-freshening strips the numeric suffix
    assert c.startswith("x_")
    assert c.count("_") == 1


def test_fresh_global():
    assert fresh("q") != fresh("q")


def test_pretty_covers_all_constructs():
    def f(xs, inds):
        n = rp.size(xs)
        s = rp.scan(lambda a, b: a + b, 0.0, xs)
        h = rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, xs)
        sc = rp.scatter(rp.zeros_like(xs), inds, s)
        r = rp.reverse(xs)
        cc = rp.concat(xs, r)
        lp = rp.fori_loop(3, lambda i, a: a + xs[i % n], 0.0, stripmine=2)
        w = rp.while_loop(lambda v: v < 5.0, lambda v: v + 1.0, 0.0, bound=8)
        br = rp.cond(w > 1.0, lambda: lp, lambda: w)
        return rp.sum(s) + rp.sum(h) + rp.sum(sc) + rp.sum(cc) + br

    fun = rp.trace_like(f, (np.ones(4), np.array([0, 1, 2, 3])))
    txt = pretty(fun)
    for kw in ("scan", "reduce_by_index", "scatter", "reverse(", "concat(",
               "loop (", "@stripmine", "while", "@bound", "if ", "length_0"):
        assert kw in txt, kw


def test_pretty_vjp_shows_accumulators():
    f = rp.compile(rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * xs[0], xs)), (np.ones(3),)))
    txt = rp.vjp(f).show()
    assert "withacc" in txt and "upd " in txt


def test_datagen_deterministic():
    a1 = datagen.gmm_instance(10, 3, 2, seed=5)
    a2 = datagen.gmm_instance(10, 3, 2, seed=5)
    for x, y in zip(a1[:4], a2[:4]):
        np.testing.assert_array_equal(x, y)
    b1 = datagen.sparse_kmeans_instance(20, 8, 3, seed=1)
    b2 = datagen.sparse_kmeans_instance(20, 8, 3, seed=1)
    for x, y in zip(b1, b2):
        np.testing.assert_array_equal(x, y)


def test_gmm_shapes_table5a():
    assert datagen.GMM_SHAPES["D0"] == (1000, 64, 200)
    assert datagen.GMM_SHAPES["D5"] == (10000, 128, 200)


def test_cost_ratio_helper():
    a = Cost(work=100)
    b = Cost(work=25)
    assert a.ratio(b) == 4.0
    assert Cost(mem_reads=3, mem_writes=4).mem == 7


def test_grad_requires_scalar_output():
    f = rp.compile(rp.trace_like(lambda xs: rp.map(lambda x: x, xs), (np.ones(3),)))
    with pytest.raises(ADError):
        rp.grad(f)


def test_hessian_diag_requires_float_wrt():
    f = rp.compile(rp.trace_like(lambda xs, n: rp.sum(xs), (np.ones(3), np.int64(2))))
    with pytest.raises(ADError):
        rp.hessian_diag(f, wrt=1)


def test_vjp_seed_scaling_linearity():
    f = rp.compile(rp.trace_like(lambda x: rp.sin(x), (1.0,)))
    rev = rp.vjp(f)
    _, g1 = rev(1.0, 1.0)
    _, g3 = rev(1.0, 3.0)
    assert abs(g3 - 3 * g1) < 1e-14


def test_jvp_int_params_have_no_tangent_slot():
    f = rp.compile(rp.trace_like(lambda x, n: x * rp.astype(n, rp.F64), (1.0, np.int64(3))))
    fwd = rp.jvp(f)
    # params: x, n, dx (no dn)
    assert len(fwd.fun.params) == 3
    out = fwd(2.0, 3, 1.0)
    assert out[-1] == 3.0


def test_compiled_repr_and_name():
    f = rp.compile(rp.trace_like(lambda x: x, (1.0,), name="idfun"))
    assert f.name.startswith("idfun") and "idfun" in repr(f)


def _knob_program():
    return rp.trace_like(lambda v: rp.map(lambda x: x * 2.0 + 1.0, v), (np.ones(8),))


def _compile_fresh():
    from repro.opt.pipeline import clear_opt_cache

    clear_opt_cache()
    return rp.compile(_knob_program())


def _shard_call():
    fc = rp.compile(_knob_program())
    return fc(np.ones(8), backend="shard")


def _default_call():
    fc = rp.compile(_knob_program())
    return fc(np.ones(8))


@pytest.mark.parametrize(
    "var,bad,run,message",
    [
        ("REPRO_VERIFY", "ful", _compile_fresh,
         r"REPRO_VERIFY='ful': expected one of off, boundary, full"),
        ("REPRO_FUSE_COST", "maybe", _compile_fresh,
         r"REPRO_FUSE_COST='maybe': expected one of on, always, off"),
        ("REPRO_SHARD_MODE", "procs", _shard_call,
         r"REPRO_SHARD_MODE='procs': expected one of thread, process"),
        ("REPRO_BACKEND", "vec", _default_call,
         r"unknown backend 'vec'; registered backends: ref, plan, shard"),
    ],
    ids=["REPRO_VERIFY", "REPRO_FUSE_COST", "REPRO_SHARD_MODE", "REPRO_BACKEND"],
)
def test_invalid_knob_values_fail_loudly(monkeypatch, var, bad, run, message):
    """A misspelt knob value raises, naming the variable (or value) and the
    valid set, instead of silently running with the default."""
    monkeypatch.setenv(var, bad)
    with pytest.raises(ReproError, match=message):
        run()
