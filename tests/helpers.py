"""Shared test utilities: finite differences, gradient checking, dual-backend
execution, and jvp/vjp consistency checks."""
from __future__ import annotations

from typing import Sequence

import numpy as np

import repro as rp

#: Every registered backend takes part in the parity checks; ``shard``
#: mostly falls back to ``plan`` at test sizes (extents below
#: ``REPRO_SHARD_MIN_CHUNK``), which still exercises its dispatch and
#: analysis paths — ``tests/test_exec_shard.py`` lowers the chunking
#: threshold to force genuine multi-worker execution.
BACKENDS = ("ref", "plan", "shard")


def run_both(fc, *args):
    """Run a compiled function on every backend and assert agreement with
    the reference interpreter (the semantics oracle)."""
    r_ref = fc(*args, backend="ref")
    rr = r_ref if isinstance(r_ref, tuple) else (r_ref,)
    for be in BACKENDS[1:]:
        r_be = fc(*args, backend=be)
        rv = r_be if isinstance(r_be, tuple) else (r_be,)
        assert len(rr) == len(rv), f"backend {be}: result arity mismatch"
        for a, b in zip(rr, rv):
            np.testing.assert_allclose(
                np.asarray(a), np.asarray(b), rtol=1e-10, atol=1e-10,
                err_msg=f"backend {be} disagrees with ref",
            )
    return r_ref


def fd_grad(fc, args, k: int, eps: float = 1e-6):
    """Central-difference gradient of a scalar-valued compiled function with
    respect to float argument ``k``."""
    a = np.array(args[k], dtype=float)
    out = np.zeros_like(a)
    it = np.nditer(a, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        ap = [np.array(x, dtype=float) if np.asarray(x).dtype.kind == "f" else x for x in args]
        am = [np.array(x, dtype=float) if np.asarray(x).dtype.kind == "f" else x for x in args]
        ap[k][idx] += eps
        am[k][idx] -= eps
        out[idx] = (fc(*ap) - fc(*am)) / (2 * eps)
    return out


def check_grad(f, args, tol: float = 1e-4, wrt=None, backends=BACKENDS):
    """Trace ``f``, compute its reverse-mode gradient, and compare against
    central differences on every float argument and both backends."""
    fun = rp.trace_like(f, args)
    fc = rp.compile(fun)
    g = rp.grad(fc, wrt=wrt)
    float_idx = [
        i for i, a in enumerate(args)
        if np.asarray(a).dtype.kind == "f" and (wrt is None or i in wrt)
    ]
    for be in backends:
        ga = g(*args, backend=be)
        ga = ga if isinstance(ga, tuple) else (ga,)
        for slot, k in enumerate(float_idx):
            fd = fd_grad(fc, args, k)
            np.testing.assert_allclose(
                np.asarray(ga[slot]), fd, rtol=tol, atol=tol,
                err_msg=f"grad mismatch: backend={be} arg={k}",
            )
    return fc, g


def check_jvp_vjp_consistency(f, args, seed: int = 0, tol: float = 1e-9):
    """⟨ȳ, J·ẋ⟩ must equal ⟨Jᵀ·ȳ, ẋ⟩ for random ẋ, ȳ."""
    rng = np.random.default_rng(seed)
    fun = rp.trace_like(f, args)
    fc = rp.compile(fun)
    fwd = rp.jvp(fc)
    rev = rp.vjp(fc)
    n_out = len(fun.body.result)
    tangents = [
        rng.standard_normal(np.asarray(a).shape)
        for a in args
        if np.asarray(a).dtype.kind == "f"
    ]
    out_f = fwd(*args, *tangents)
    out_f = out_f if isinstance(out_f, tuple) else (out_f,)
    primals, dys = out_f[:n_out], out_f[n_out:]
    seeds = [
        rng.standard_normal(np.asarray(p).shape)
        for p in primals
        if np.asarray(p).dtype.kind == "f"
    ]
    out_r = rev(*args, *seeds)
    out_r = out_r if isinstance(out_r, tuple) else (out_r,)
    xbars = out_r[n_out:]
    lhs = sum(float((np.asarray(s) * np.asarray(d)).sum()) for s, d in zip(seeds, dys))
    rhs = sum(float((np.asarray(xb) * np.asarray(t)).sum()) for xb, t in zip(xbars, tangents))
    assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs)), (lhs, rhs)
