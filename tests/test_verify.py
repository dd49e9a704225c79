"""Mutation corpus for the static verifier (ir/verify, exec/verify_plan).

Each test programmatically corrupts well-formed IR — the exact corruptions a
buggy rewrite pass could produce — and asserts the verifier rejects it with a
``VerifyError`` naming the pass and (where applicable) the offending
statement.  The last section runs the fuzz-program corpus end-to-end under
``REPRO_VERIFY=full`` on every executor and checks the cached-plan /
counter behaviour of the hooks.
"""
import numpy as np
import pytest

import repro as rp
from repro.ir import (
    F64,
    I64,
    Fun,
    Lambda,
    Var,
    VerifyError,
    array,
    verify_fun,
    verify_mode,
    verify_stats,
)
from repro.ir.ast import (
    AtomExp,
    BinOp,
    Body,
    Const,
    Map,
    Loop,
    Reduce,
    Replicate,
    Scatter,
    Stm,
    UnOp,
    UpdAcc,
    WithAcc,
)
from repro.ir.schedule import Parallel
from repro.ir.types import AccType
from repro.ir.verify import VERIFY_STATS
from repro.exec.lower import ILoop, IRun, PlanIR, Ref, lower_fun
from repro.exec.plan import clear_plan_cache, plan_cache_stats, plan_for
from repro.exec.verify_plan import verify_codegen_source, verify_plan_ir
from repro.util import ReproError
from helpers import run_both
from test_fuzz_programs import _gen_program

A = array(F64)
AI = array(I64)
ACC = AccType(F64, 1)


def _reject(fun, match, *, full=False, where="opt:evil"):
    with pytest.raises(VerifyError, match=match) as exc:
        verify_fun(fun, where=where, full=full)
    assert f"after pass {where!r}" in str(exc.value)
    return exc.value


# ---------------------------------------------------------------------------
# Layer 1: SSA / types / accumulator discipline / schedules
# ---------------------------------------------------------------------------


def test_use_before_def_rejected():
    x = Var("x", F64)
    y = Var("y", F64)
    z = Var("z", F64)
    body = Body(
        (Stm((z,), BinOp("add", y, y)), Stm((y,), BinOp("mul", x, x))),
        (z,),
    )
    err = _reject(Fun("f", (x,), body), "use of 'y' before its definition")
    # The error names the statement doing the premature read.
    assert "let (z)" in str(err)


def test_shadowing_rejected():
    xs = Var("xs", A)
    inner = Var("xs", F64)  # a rewrite reusing a live outer name
    ys = Var("ys", A)
    lam = Lambda((inner,), Body((), (inner,)))
    body = Body((Stm((ys,), Map(lam, (xs,))),), (ys,))
    _reject(Fun("f", (xs,), body), "shadows a definition live in an enclosing")


def test_type_wrong_rewrite_rejected():
    x = Var("x", F64)
    n = Var("n", I64)
    y = Var("y", F64)
    body = Body((Stm((y,), BinOp("add", x, n)),), (y,))
    _reject(Fun("f", (x, n), body), "element types differ")


def test_duplicated_accumulator_use_rejected():
    a = Var("a", A)
    p = Var("p", ACC)
    u1 = Var("u1", ACC)
    u2 = Var("u2", ACC)
    lam_body = Body(
        (
            Stm((u1,), UpdAcc(p, (Const(0, I64),), Const(1.0, F64))),
            Stm((u2,), UpdAcc(p, (Const(1, I64),), Const(2.0, F64))),
        ),
        (u2,),
    )
    a2 = Var("a2", A)
    body = Body((Stm((a2,), WithAcc((a,), Lambda((p,), lam_body))),), (a2,))
    _reject(Fun("f", (a,), body), "used more than once")


def test_acc_wrong_region_result_rejected():
    # Nested withacc whose lambda returns the *outer* region's accumulator
    # in the leading (own-region) result position — a §5.4 escape.
    a = Var("a", A)
    z = Var("z", A)
    pa = Var("pa", ACC)
    pz = Var("pz", ACC)
    z2 = Var("z2", A)
    sec = Var("sec", ACC)
    inner = Stm((z2, sec), WithAcc((z,), Lambda((pz,), Body((), (pa, pz)))))
    a2 = Var("a2", A)
    body = Body(
        (Stm((a2,), WithAcc((a,), Lambda((pa,), Body((inner,), (pa,))))),),
        (a2,),
    )
    _reject(
        Fun("f", (a, z), body),
        "must return this region's own accumulator",
    )


def test_acc_function_param_rejected():
    p = Var("p", ACC)
    fun = Fun("bad", (p,), Body((), (Const(1.0, F64),)))
    _reject(fun, "function parameters may not be accumulators")


def test_frozen_array_read_rejected():
    a = Var("a", A)
    pa = Var("pa", ACC)
    t = Var("t", A)
    u = Var("u", ACC)
    lam_body = Body(
        (
            Stm((t,), UnOp("neg", a)),  # read of `a` while its acc is live
            Stm((u,), UpdAcc(pa, (), t)),
        ),
        (u, t),
    )
    a2 = Var("a2", A)
    t2 = Var("t2", A)
    body = Body(
        (Stm((a2, t2), WithAcc((a,), Lambda((pa,), lam_body))),), (t2,)
    )
    _reject(Fun("f", (a,), body), "read while an accumulator view")


def test_loop_acc_not_threaded_rejected():
    # A loop-carried accumulator whose body returns a *different* region's
    # accumulator in its position.
    a = Var("a", A)
    b = Var("b", A)
    pa = Var("pa", ACC)
    pb = Var("pb", ACC)
    carried = Var("l", ACC)
    i = Var("i", I64)
    lout = Var("lout", ACC)
    loop = Stm(
        (lout,),
        Loop((carried,), (pb,), i, Const(2, I64), Body((), (pa,))),
    )
    b2 = Var("b2", A)
    inner = Stm((b2,), WithAcc((b,), Lambda((pb,), Body((loop,), (lout,)))))
    a2 = Var("a2", A)
    body = Body(
        (Stm((a2,), WithAcc((a,), Lambda((pa,), Body((inner,), (pa,))))),),
        (a2,),
    )
    _reject(Fun("f", (a, b), body), "not threaded linearly")


def test_racy_scatter_schedule_rejected():
    dest = Var("dest", A)
    inds = Var("inds", AI)
    vals = Var("vals", A)
    out = Var("out", A)
    body = Body(
        (Stm((out,), Scatter(dest, inds, vals, schedule=(Parallel(2),))),),
        (out,),
    )
    err = _reject(
        Fun("f", (dest, inds, vals), body), "scatter writes may collide"
    )
    assert "parallel(2)" in str(err)
    assert "let (out)" in str(err)


def test_scatter_replicated_indices_rejected_in_full():
    dest = Var("dest", A)
    vals = Var("vals", A)
    inds = Var("inds", AI)
    out = Var("out", A)
    body = Body(
        (
            Stm((inds,), Replicate(Const(4, I64), Const(0, I64))),
            Stm((out,), Scatter(dest, inds, vals)),
        ),
        (out,),
    )
    fun = Fun("f", (dest, vals), body)
    verify_fun(fun, where="opt:evil")  # boundary layers cannot see it
    _reject(fun, "replicate a single index", full=True)


def test_parallel_reduce_unrecognized_op_rejected():
    xs = Var("xs", A)
    pa = Var("pa", F64)
    pb = Var("pb", F64)
    r = Var("r", F64)
    s = Var("s", F64)
    lam = Lambda((pa, pb), Body((Stm((r,), BinOp("sub", pa, pb)),), (r,)))
    body = Body(
        (
            Stm(
                (s,),
                Reduce(lam, (Const(0.0, F64),), (xs,), schedule=(Parallel(2),)),
            ),
        ),
        (s,),
    )
    _reject(Fun("f", (xs,), body), "not a recognised associative")


def test_parallel_map_free_accumulator_rejected_in_full():
    # A parallel split whose lambda updates a free accumulator: every chunk
    # would race on the same underlying buffer.
    a = Var("a", A)
    xs = Var("xs", A)
    pa = Var("pa", ACC)
    x = Var("x", F64)
    u = Var("u", ACC)
    y = Var("y", F64)
    map_lam = Lambda(
        (x,),
        Body(
            (
                Stm((u,), UpdAcc(pa, (Const(0, I64),), x)),
                Stm((y,), BinOp("mul", x, x)),
            ),
            (y,),
        ),
    )
    ys = Var("ys", A)
    wa_body = Body(
        (Stm((ys,), Map(map_lam, (xs,), schedule=(Parallel(2),))),),
        (pa, ys),
    )
    a2 = Var("a2", A)
    ys2 = Var("ys2", A)
    body = Body(
        (Stm((a2, ys2), WithAcc((a,), Lambda((pa,), wa_body))),), (ys2,)
    )
    fun = Fun("f", (a, xs), body)
    _reject(fun, "free accumulator 'pa' threads through the split", full=True)


# ---------------------------------------------------------------------------
# Layer 2: plan-IR checker + codegen source sanity
# ---------------------------------------------------------------------------


def _lowered(prog, args, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "off")  # lower without the hook…
    fun = rp.trace_like(prog, args)
    ir = lower_fun(fun)
    verify_plan_ir(ir)  # …then prove the pristine plan is green
    return ir


def _first_run(ir: PlanIR) -> IRun:
    for instr in ir.body.instrs:
        if isinstance(instr, IRun):
            return instr
    raise AssertionError("no fused run in lowered plan")


def test_plan_slot_double_assign_rejected(monkeypatch):
    ir = _lowered(lambda x: x * x + 1.0, (2.0,), monkeypatch)
    run = _first_run(ir)
    idx, _slot, name = run.exports[0]
    run.exports = ((idx, ir.param_slots[0], name),)  # clobber a live param
    with pytest.raises(VerifyError, match="assigned twice along one"):
        verify_plan_ir(ir)


def test_plan_read_undefined_slot_rejected(monkeypatch):
    ir = _lowered(lambda x: x * x + 1.0, (2.0,), monkeypatch)
    run = _first_run(ir)
    for op in run.ops:
        refs = [x for x in op.xs if isinstance(x, Ref) and x.slot is not None]
        if refs:
            refs[0].slot = 10**6
            break
    else:
        raise AssertionError("no slot-reading op in the run")
    with pytest.raises(VerifyError, match="read of undefined slot"):
        verify_plan_ir(ir)


def test_plan_run_export_out_of_range_rejected(monkeypatch):
    ir = _lowered(lambda x: x * x + 1.0, (2.0,), monkeypatch)
    run = _first_run(ir)
    _idx, slot, name = run.exports[0]
    run.exports = ((len(run.ops) + 7, slot, name),)
    with pytest.raises(VerifyError, match="outside\n?\\s*the run"):
        verify_plan_ir(ir)


def test_plan_loop_arity_rejected(monkeypatch):
    ir = _lowered(
        lambda x: rp.fori_loop(3, lambda i, a: a * x, x), (2.0,), monkeypatch
    )
    loop = next(i for i in ir.body.instrs if isinstance(i, ILoop))
    loop.body.result = ()
    with pytest.raises(VerifyError, match="loop body returns 0 values"):
        verify_plan_ir(ir)


def test_plan_duplicate_param_slot_rejected(monkeypatch):
    ir = _lowered(lambda x, y: x + y, (1.0, 2.0), monkeypatch)
    ir.param_slots = (ir.param_slots[0], ir.param_slots[0])
    with pytest.raises(VerifyError, match="parameter slot .* duplicated"):
        verify_plan_ir(ir)


def test_codegen_free_name_rejected():
    src = "def _plan_main(x):\n    return np.sin(x)\n"
    with pytest.raises(VerifyError, match="free name 'np'"):
        verify_codegen_source("f", src, {})


def test_codegen_syntax_error_rejected():
    with pytest.raises(VerifyError, match="does not parse"):
        verify_codegen_source("f", "def _plan_main(:\n", {})


def test_codegen_real_source_passes_and_counts(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "full")
    clear_plan_cache()
    fun = rp.trace_like(lambda x: rp.sum(rp.map(lambda v: v * v, x)), (np.ones(5),))
    before = VERIFY_STATS["codegen_checks"]
    p = plan_for(fun, (np.ones(5),), None)
    assert VERIFY_STATS["codegen_checks"] == before + 1
    (r,) = p.run((np.arange(5.0),))
    assert r == pytest.approx(np.sum(np.arange(5.0) ** 2))


# ---------------------------------------------------------------------------
# Hook behaviour: modes, counters, cached-plan reuse
# ---------------------------------------------------------------------------


def test_verification_is_on_under_pytest():
    # conftest defaults REPRO_VERIFY to "boundary"; the CI full-verify leg
    # legitimately overrides it to "full" — either way, never "off".
    assert verify_mode() in ("boundary", "full")
    assert verify_stats()["mode"] == verify_mode()


def test_off_mode_runs_no_checks(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "off")
    clear_plan_cache()
    before = dict(VERIFY_STATS)
    fun = rp.trace_like(lambda x: x * 3.0, (1.5,))
    plan_for(fun, (1.5,)).run((1.5,))
    assert dict(VERIFY_STATS) == before


def test_unknown_mode_raises(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "paranoid")
    with pytest.raises(ReproError, match=r"REPRO_VERIFY='paranoid': expected one of"):
        verify_mode()


def test_cached_plan_reuse_skips_reverification(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "full")
    clear_plan_cache()
    fun = rp.trace_like(lambda x: rp.sum(x) * 2.0, (np.ones(6),))
    before = VERIFY_STATS["plan_checks"]
    p1 = plan_for(fun, (np.ones(6),))
    after_first = VERIFY_STATS["plan_checks"]
    assert after_first == before + 1  # verification happens at lowering…
    p2 = plan_for(fun, (np.ones(6),))
    assert p2 is p1
    p2.run((np.arange(6.0),))
    assert VERIFY_STATS["plan_checks"] == after_first  # …never on reuse

    stats = plan_cache_stats()["verify"]
    assert stats["mode"] == "full"
    assert stats["plan_checks"] >= after_first - before


def test_verify_section_in_metrics_snapshot():
    from repro.obs import metrics

    snap = metrics.snapshot()
    assert "verify" in snap
    assert snap["verify"]["mode"] == verify_mode()


def test_verify_failures_counted():
    x = Var("x", F64)
    y = Var("y", F64)
    z = Var("z", F64)
    bad = Fun(
        "f",
        (x,),
        Body((Stm((z,), BinOp("add", y, y)), Stm((y,), BinOp("mul", x, x))), (z,)),
    )
    before = (VERIFY_STATS["fun_checks"], VERIFY_STATS["failures"])
    with pytest.raises(VerifyError):
        verify_fun(bad, where="opt:evil")
    assert VERIFY_STATS["fun_checks"] == before[0] + 1
    assert VERIFY_STATS["failures"] == before[1] + 1


# ---------------------------------------------------------------------------
# Fuzz corpus under REPRO_VERIFY=full on every executor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8, 13, 21])
def test_fuzz_corpus_green_under_full_verification(seed, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "full")
    prog = _gen_program(seed)
    xs = np.random.default_rng(seed).standard_normal(6) * 0.8
    fc = rp.compile(rp.trace_like(prog, (xs,)))  # verifies every opt pass
    run_both(fc, xs)  # ref + plan + shard agree
    want = fc(xs)
    (got,) = plan_for(fc.fun, (xs,)).run((xs,))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    rp.grad(fc)(xs)  # jvp/vjp boundaries + post-AD optimization under full
