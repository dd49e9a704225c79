"""Dead-code elimination.

DCE is what realises the paper's §4.1 claim: the redundantly re-executed
forward sweeps of perfectly-nested scopes bind results that nothing in the
return sweep uses, so they are dead code and the differentiated program
carries no re-execution overhead (Fig. 2's ``xss``/``xs``/``xs'``/``x``).

Bodies are processed backwards from their result atoms.  Multi-result
``Map``/``If`` statements with partially-dead results are *shrunk* (dead
columns dropped), which is how the dead primal outputs of AD-generated maps
disappear.  Accumulator updates are handled by ordinary liveness: the
linearity discipline guarantees a live ``WithAcc`` keeps its whole update
chain alive, and a dead ``WithAcc`` result means the updates were
unobservable.
"""
from __future__ import annotations

from typing import List, Set, Tuple

from ..ir.ast import (
    Body,
    Exp,
    Fun,
    If,
    Lambda,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Scan,
    Stm,
    Var,
    WhileLoop,
    WithAcc,
)
from ..ir.traversal import exp_atoms

__all__ = ["dce_fun", "dce_body"]


def _dce_lambda(lam: Lambda) -> Tuple[Lambda, Set[str]]:
    body, free = _dce(lam.body)
    return Lambda(lam.params, body), free - {p.name for p in lam.params}


def _dce_exp(e: Exp) -> Tuple[Exp, Set[str]]:
    """Recurse into nested bodies; also returns the names their kept code
    reads from the enclosing scope."""
    if isinstance(e, Map):
        lam, free = _dce_lambda(e.lam)
        return Map(lam, e.arrs, e.accs), free
    if isinstance(e, Reduce):
        lam, free = _dce_lambda(e.lam)
        return Reduce(lam, e.nes, e.arrs), free
    if isinstance(e, Scan):
        lam, free = _dce_lambda(e.lam)
        return Scan(lam, e.nes, e.arrs), free
    if isinstance(e, ReduceByIndex):
        lam, free = _dce_lambda(e.lam)
        return ReduceByIndex(e.num_bins, lam, e.nes, e.inds, e.vals), free
    if isinstance(e, Loop):
        body, free = _dce(e.body)
        free -= {p.name for p in e.params} | {e.ivar.name}
        return Loop(e.params, e.inits, e.ivar, e.n, body, e.stripmine, e.checkpoint), free
    if isinstance(e, WhileLoop):
        cond, free = _dce_lambda(e.cond)
        body, bfree = _dce(e.body)
        free |= bfree - {p.name for p in e.params}
        return WhileLoop(e.params, e.inits, cond, body, e.bound), free
    if isinstance(e, If):
        then, free = _dce(e.then)
        els, efree = _dce(e.els)
        return If(e.cond, then, els), free | efree
    if isinstance(e, WithAcc):
        lam, free = _dce_lambda(e.lam)
        return WithAcc(e.arrs, lam), free
    return e, set()


def _shrink_map(e: Map, keep: List[bool]) -> Map:
    """Drop dead (non-accumulator) results of a Map."""
    n_acc = len(e.accs)
    body = e.lam.body
    res = list(body.result[:n_acc])
    for r, k in zip(body.result[n_acc:], keep[n_acc:]):
        if k:
            res.append(r)
    return Map(Lambda(e.lam.params, Body(body.stms, tuple(res))), e.arrs, e.accs)


def _shrink_if(e: If, keep: List[bool]) -> If:
    tres = tuple(r for r, k in zip(e.then.result, keep) if k)
    fres = tuple(r for r, k in zip(e.els.result, keep) if k)
    return If(e.cond, Body(e.then.stms, tres), Body(e.els.stms, fres))


def _dce(body: Body) -> Tuple[Body, Set[str]]:
    """DCE ``body``; also returns its free names.  Each nested body reports
    its free names as it is processed, so no statement is walked twice."""
    live: Set[str] = {a.name for a in body.result if isinstance(a, Var)}
    free = set(live)
    out: List[Stm] = []
    for stm in reversed(body.stms):
        keep = [v.name in live for v in stm.pat]
        if not any(keep):
            continue
        e = stm.exp
        pat = stm.pat
        if not all(keep):
            # Partial liveness: shrink shrinkable expressions.
            if isinstance(e, Map) and all(keep[: len(e.accs)]):
                e = _shrink_map(e, keep)
                pat = tuple(v for v, k in zip(stm.pat, keep) if k)
            elif isinstance(e, If):
                e = _shrink_if(e, keep)
                pat = tuple(v for v, k in zip(stm.pat, keep) if k)
        e, uses = _dce_exp(e)
        uses |= {a.name for a in exp_atoms(e) if isinstance(a, Var)}
        live |= uses
        free -= {v.name for v in pat}
        free |= uses
        out.append(Stm(pat, e))
    return Body(tuple(reversed(out)), body.result), free


def dce_body(body: Body) -> Body:
    return _dce(body)[0]


def dce_fun(fun: Fun) -> Fun:
    return Fun(fun.name, fun.params, dce_body(fun.body))
