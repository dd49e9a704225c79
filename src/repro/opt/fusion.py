"""SOAC fusion engine.

The paper notes its AD rules were "tuned to preserve fusion opportunities";
this pass realises them.  Covered cases, all on producer ``map``s with no
accumulators whose results have exactly one consumer statement:

* **vertical map→map** — the producer is inlined into the consumer's element
  function, eliminating the intermediate arrays;
* **vertical map→reduce / map→scan / map→hist** — the producer's element
  function is folded into the (single-operand) consumer's operator, yielding
  a *redomap*-shaped SOAC: a ``(1+m) -> 1`` lambda of the form
  ``\\acc x.. -> acc `op` g(x..)``.  These shapes are accepted by the
  typechecker, recognised by the executors
  (``ir.analysis.recognize_redomap_lambda``) so the bulk ufunc fast paths
  survive fusion, and split back into ``map`` + canonical operator by
  ``unfuse_fun`` before AD (whose reduce/scan/hist rules assume associative
  operators);
* **horizontal map‖map** — sibling maps over a witnessed-equal extent (they
  share at least one array argument) merge into one multi-result map.

Safety conditions per case: no accumulators on the producer, a single
consumer statement, results consumed only in element-array positions
(``arrs``/``vals`` — never free in the consumer lambda, its neutral
elements, or its index array), and — for the redomap cases — the fused
operator must round-trip through ``recognize_redomap_lambda`` so it stays
both fast and un-fusable.  Applied bottom-up and to a fixed point by the
pass pipeline driver.

Cost gating (``REPRO_FUSE_COST``)
---------------------------------

Each candidate fusion is additionally gated by the static cost model
(``ir.cost_model.fusion_wins``): the fused statement must be predicted to
carry less total work + memory traffic than the pair it replaces.  Modes:

* ``on`` (default) — cost-guided: a candidate that the estimator predicts
  to be a regression is skipped (counted in
  ``fusion_stats()["cost_rejected"]``);
* ``always`` — fuse every legal candidate (the pre-cost-model monotone
  behaviour; the A8 ablation baseline);
* ``off`` — disable the pass entirely (equivalent to
  ``REPRO_OPT_PASSES=-fuse``, kept as a one-knob ablation convenience).

Because the engine already requires single-use producers, the gate accepts
every fusion the monotone engine would perform on real programs — guided
and monotone decisions are bitwise-identical there — and exists to keep
that true by construction as the engine grows more speculative cases.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.analysis import recognize_redomap_lambda
from ..ir.cost_model import fusion_wins
from ..ir.ast import (
    BinOp,
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
from ..ir.traversal import (
    free_vars,
    free_vars_exp,
    inline_lambda,
    rename_var,
)
from ..ir.types import rank_of, with_rank
from ..obs import metrics as _obs_metrics
from ..util import ADError, BoundedLRU, env_choice, fresh

__all__ = [
    "fuse_fun",
    "fuse_body",
    "unfuse_fun",
    "unfuse_body",
    "fuse_cost_mode",
    "fusion_stats",
    "reset_fusion_stats",
]


def fuse_cost_mode() -> str:
    """``REPRO_FUSE_COST``: ``on`` (cost-guided, default), ``always``
    (monotone — fuse every legal candidate), or ``off`` (pass disabled)."""
    return env_choice("REPRO_FUSE_COST", "on", ("on", "always", "off"))


#: Fusion decision counters: candidates that fused (by direction) and
#: candidates the cost gate rejected.  Reset via ``reset_fusion_stats``.
FUSE_STATS = _obs_metrics.counter_group(
    "fusion", {"vertical": 0, "horizontal": 0, "cost_rejected": 0}
)


def fusion_stats() -> Dict[str, int]:
    return dict(FUSE_STATS)


def reset_fusion_stats() -> None:
    FUSE_STATS.reset()
    _REJECTED_SEEN.clear()


_obs_metrics.register_source("fusion", fusion_stats, reset_fusion_stats)


#: Candidates the gate already rejected, by structural identity — the
#: fixed-point driver and the pipeline's rounds re-discover (and re-reject)
#: the same pair every scan, which must not inflate ``cost_rejected``.
_REJECTED_SEEN = BoundedLRU()
_REJECTED_SEEN_CAP = 1024


def _gate(before: List[Stm], after: List[Stm], guided: bool) -> bool:
    """Apply the cost gate to one candidate rewrite (monotone mode skips)."""
    if not guided or fusion_wins(before, after):
        return True
    key = (tuple(before), tuple(after))
    if _REJECTED_SEEN.get(key) is None:
        _REJECTED_SEEN.put(key, True, _REJECTED_SEEN_CAP)
        FUSE_STATS["cost_rejected"] += 1
    return False


def _uses_in_body(body: Body) -> Dict[str, int]:
    """Total number of syntactic uses of each name in a body (recursive)."""
    counts: Dict[str, int] = {}

    def exp(e: Exp) -> None:
        for v in free_vars_exp(e).values():
            counts[v.name] = counts.get(v.name, 0) + 1

    for stm in body.stms:
        exp(stm.exp)
    for a in body.result:
        if isinstance(a, Var):
            counts[a.name] = counts.get(a.name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Vertical fusion
# ---------------------------------------------------------------------------


def _splice(
    prod_stm: Stm,
    cons_lam: Lambda,
    cons_arrs: Tuple[Var, ...],
    n_lead: int,
) -> Optional[Tuple[Tuple[Var, ...], Body, Tuple[Var, ...]]]:
    """Inline a producer map into a consumer element function.

    ``cons_lam``'s parameters are ``n_lead`` leading non-element parameters
    (reduce/scan/hist accumulators) followed by one element parameter per
    array of ``cons_arrs`` and, optionally, trailing extras (map
    accumulators).  Returns ``(params, body, arrs)`` for the fused lambda:
    consumer element parameters fed by the producer are replaced by the
    producer's (spliced, refreshed) results, driven by the producer's own
    arrays and parameters.
    """
    prod = prod_stm.exp
    assert isinstance(prod, Map) and not prod.accs
    if not prod.arrs:
        return None
    produced = {v.name: i for i, v in enumerate(prod_stm.pat)}
    if not any(a.name in produced for a in cons_arrs):
        return None
    pparams = tuple(rename_var(p) for p in prod.lam.params)
    pbody = inline_lambda(prod.lam, pparams)
    lead = tuple(rename_var(p) for p in cons_lam.params[:n_lead])
    elem_params = cons_lam.params[n_lead:n_lead + len(cons_arrs)]
    extra = tuple(rename_var(p) for p in cons_lam.params[n_lead + len(cons_arrs):])
    args: List = list(lead)
    keep_arrs: List[Var] = []
    keep_params: List[Var] = []
    for a, p in zip(cons_arrs, elem_params):
        if a.name in produced:
            args.append(pbody.result[produced[a.name]])
        else:
            np_ = rename_var(p)
            keep_arrs.append(a)
            keep_params.append(np_)
            args.append(np_)
    args.extend(extra)
    try:
        cbody = inline_lambda(cons_lam, args)
    except TypeError:
        # A producer result was a constant consumed in a Var-only position.
        return None
    params = lead + pparams + tuple(keep_params) + extra
    body = Body(pbody.stms + cbody.stms, cbody.result)
    return params, body, tuple(prod.arrs) + tuple(keep_arrs)


def _fuse_vertical(prod_stm: Stm, cons: Exp) -> Optional[Exp]:
    """The fused consumer expression, or None if the pair cannot fuse."""
    if isinstance(cons, Map):
        sp = _splice(prod_stm, cons.lam, cons.arrs, 0)
        if sp is None:
            return None
        params, body, arrs = sp
        return Map(Lambda(params, body), arrs, cons.accs)
    if isinstance(cons, (Reduce, Scan)):
        if len(cons.nes) != 1:
            return None
        sp = _splice(prod_stm, cons.lam, cons.arrs, 1)
        if sp is None:
            return None
        params, body, arrs = sp
        lam = Lambda(params, body)
        # Gate: the fused operator must stay recognisable so the executors
        # keep their bulk fast path and unfuse_fun can split it before AD.
        if recognize_redomap_lambda(lam) is None:
            return None
        return Reduce(lam, cons.nes, arrs) if isinstance(cons, Reduce) else Scan(
            lam, cons.nes, arrs
        )
    if isinstance(cons, ReduceByIndex):
        if len(cons.nes) != 1:
            return None
        sp = _splice(prod_stm, cons.lam, cons.vals, 1)
        if sp is None:
            return None
        params, body, vals = sp
        lam = Lambda(params, body)
        if recognize_redomap_lambda(lam) is None:
            return None
        return ReduceByIndex(cons.num_bins, lam, cons.nes, cons.inds, vals)
    return None


def _consumable_positions(e: Exp) -> Optional[Tuple[Var, ...]]:
    """The element-array variables of a fusable consumer (None otherwise)."""
    if isinstance(e, Map):
        return e.arrs
    if isinstance(e, (Reduce, Scan)):
        return e.arrs
    if isinstance(e, ReduceByIndex):
        return e.vals
    return None


def _forbidden_names(e: Exp) -> Set[str]:
    """Names a producer result may NOT occupy in a fusable consumer: every
    position other than the element arrays (free in the lambda, neutral
    elements, accumulators, index array, bin count)."""
    out: Set[str] = set(free_vars(e.lam))
    if isinstance(e, Map):
        out |= {a.name for a in e.accs}
        return out
    out |= {a.name for a in e.nes if isinstance(a, Var)}
    if isinstance(e, ReduceByIndex):
        out.add(e.inds.name)
        if isinstance(e.num_bins, Var):
            out.add(e.num_bins.name)
    return out


def _vertical_step(stms: List[Stm], uses: Dict[str, int], guided: bool) -> bool:
    """Perform one vertical fusion in ``stms`` (in place); True if fused."""
    for i, stm in enumerate(stms):
        e = stm.exp
        if not isinstance(e, Map) or e.accs or not e.arrs:
            continue
        if not all(uses.get(v.name, 0) == 1 for v in stm.pat):
            continue
        names = {v.name for v in stm.pat}
        consumer_idx = None
        for j in range(i + 1, len(stms)):
            used = {v.name for v in free_vars_exp(stms[j].exp).values()}
            if used & names:
                if consumer_idx is not None:
                    consumer_idx = None
                    break
                consumer_idx = j
        if consumer_idx is None:
            continue
        ce = stms[consumer_idx].exp
        arrs = _consumable_positions(ce)
        if arrs is None:
            continue
        # Results may only be consumed as element arrays — never free in the
        # consumer's lambdas, neutral elements, index array or bin count —
        # and each at most one array position (conservative).
        if _forbidden_names(ce) & names:
            continue
        if sum(1 for a in arrs if a.name in names) != len(names):
            continue
        fused = _fuse_vertical(stm, ce)
        if fused is None:
            continue
        new_stm = Stm(stms[consumer_idx].pat, fused)
        if not _gate([stm, stms[consumer_idx]], [new_stm], guided):
            continue
        stms[consumer_idx] = new_stm
        del stms[i]
        FUSE_STATS["vertical"] += 1
        return True
    return False


# ---------------------------------------------------------------------------
# Horizontal fusion
# ---------------------------------------------------------------------------


def _horizontal_step(stms: List[Stm], guided: bool) -> bool:
    """Merge one pair of sibling maps over a shared array (in place)."""
    for i, s1 in enumerate(stms):
        e1 = s1.exp
        if not isinstance(e1, Map) or e1.accs:
            continue
        names1 = {v.name for v in s1.pat}
        arrs1 = {a.name for a in e1.arrs}
        between: Set[str] = set()
        for j in range(i + 1, len(stms)):
            s2 = stms[j]
            e2 = s2.exp
            fv2 = set(free_vars_exp(s2.exp))
            if (
                isinstance(e2, Map)
                and not e2.accs
                and arrs1 & {a.name for a in e2.arrs}  # extent witness
                and not (fv2 & names1)  # not a vertical candidate
                and not (fv2 & between)  # movable up to position i
            ):
                p2 = tuple(rename_var(p) for p in e2.lam.params)
                b2 = inline_lambda(e2.lam, p2)
                b1 = e1.lam.body
                lam = Lambda(
                    tuple(e1.lam.params) + p2,
                    Body(b1.stms + b2.stms, b1.result + b2.result),
                )
                merged = Stm(s1.pat + s2.pat, Map(lam, e1.arrs + e2.arrs))
                if not _gate([s1, s2], [merged], guided):
                    between.update(v.name for v in s2.pat)
                    continue
                stms[i] = merged
                del stms[j]
                FUSE_STATS["horizontal"] += 1
                return True
            between.update(v.name for v in s2.pat)
    return False


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def fuse_body(body: Body, mode: Optional[str] = None) -> Body:
    mode = mode or fuse_cost_mode()
    if mode == "off":
        return body
    guided = mode == "on"
    stms = list(body.stms)
    changed = True
    while changed:
        uses = _uses_in_body(Body(tuple(stms), body.result))
        changed = _vertical_step(stms, uses, guided)
        if not changed:
            changed = _horizontal_step(stms, guided)
    out: List[Stm] = []
    for stm in stms:
        out.append(Stm(stm.pat, _fuse_exp(stm.exp)))
    return Body(tuple(out), body.result)


def _fuse_lambda(lam: Lambda) -> Lambda:
    return Lambda(lam.params, fuse_body(lam.body))


def _fuse_exp(e: Exp) -> Exp:
    if isinstance(e, Map):
        return Map(_fuse_lambda(e.lam), e.arrs, e.accs)
    if isinstance(e, Reduce):
        return Reduce(_fuse_lambda(e.lam), e.nes, e.arrs)
    if isinstance(e, Scan):
        return Scan(_fuse_lambda(e.lam), e.nes, e.arrs)
    if isinstance(e, ReduceByIndex):
        return ReduceByIndex(e.num_bins, _fuse_lambda(e.lam), e.nes, e.inds, e.vals)
    if isinstance(e, Loop):
        return Loop(e.params, e.inits, e.ivar, e.n, fuse_body(e.body), e.stripmine, e.checkpoint)
    if isinstance(e, WhileLoop):
        return WhileLoop(e.params, e.inits, _fuse_lambda(e.cond), fuse_body(e.body), e.bound)
    if isinstance(e, If):
        return If(e.cond, fuse_body(e.then), fuse_body(e.els))
    if isinstance(e, WithAcc):
        return WithAcc(e.arrs, _fuse_lambda(e.lam))
    return e


def fuse_fun(fun: Fun) -> Fun:
    if fuse_cost_mode() == "off":
        return fun
    return Fun(fun.name, fun.params, fuse_body(fun.body))


# ---------------------------------------------------------------------------
# Unfusion (before AD)
# ---------------------------------------------------------------------------


def _is_trivial_map_part(mlam: Lambda) -> bool:
    """True for ``\\x -> x`` map parts (a canonical binop operator)."""
    return (
        not mlam.body.stms
        and len(mlam.params) == 1
        and isinstance(mlam.body.result[0], Var)
        and mlam.body.result[0].name == mlam.params[0].name
    )


def _unfuse_redomap(stm: Stm) -> List[Stm]:
    """Split a redomap-shaped reduce/scan/hist back into map + canonical op."""
    e = stm.exp
    if not isinstance(e, (Reduce, Scan, ReduceByIndex)) or len(e.nes) != 1:
        return [stm]
    arrs = e.vals if isinstance(e, ReduceByIndex) else e.arrs
    canonical = len(arrs) == 1 and len(e.lam.params) == 2
    rm = recognize_redomap_lambda(e.lam)
    if rm is None:
        if canonical:
            return [stm]
        raise ADError(
            f"AD requires canonical (k+k) -> k {type(e).__name__} operators; "
            f"this ({len(e.nes)}+{len(arrs)}) -> {len(e.nes)} operator is not "
            "redomap-shaped (\\acc x.. -> acc `op` g(x..)), so it cannot be "
            "split into map + canonical operator — rewrite it that way to "
            "differentiate it"
        )
    op, mlam = rm
    if canonical and _is_trivial_map_part(mlam):
        return [stm]
    v = mlam.body.result[0]
    et = v.type
    tvar = Var(fresh("fusx"), with_rank(et, rank_of(et) + 1))
    map_stm = Stm((tvar,), Map(mlam, arrs))
    acc = Var(fresh("fusa"), et)
    x = Var(fresh("fusb"), et)
    r = Var(fresh("fusr"), et)
    op_lam = Lambda((acc, x), Body((Stm((r,), BinOp(op, acc, x)),), (r,)))
    if isinstance(e, Reduce):
        new: Exp = Reduce(op_lam, e.nes, (tvar,))
    elif isinstance(e, Scan):
        new = Scan(op_lam, e.nes, (tvar,))
    else:
        new = ReduceByIndex(e.num_bins, op_lam, e.nes, e.inds, (tvar,))
    return [map_stm, Stm(stm.pat, new)]


def unfuse_body(body: Body) -> Body:
    out: List[Stm] = []
    for stm in body.stms:
        stm = Stm(stm.pat, _unfuse_exp(stm.exp))
        out.extend(_unfuse_redomap(stm))
    return Body(tuple(out), body.result)


def _unfuse_lambda(lam: Lambda) -> Lambda:
    return Lambda(lam.params, unfuse_body(lam.body))


def _unfuse_exp(e: Exp) -> Exp:
    if isinstance(e, Map):
        return Map(_unfuse_lambda(e.lam), e.arrs, e.accs)
    if isinstance(e, Reduce):
        return Reduce(_unfuse_lambda(e.lam), e.nes, e.arrs)
    if isinstance(e, Scan):
        return Scan(_unfuse_lambda(e.lam), e.nes, e.arrs)
    if isinstance(e, ReduceByIndex):
        return ReduceByIndex(e.num_bins, _unfuse_lambda(e.lam), e.nes, e.inds, e.vals)
    if isinstance(e, Loop):
        return Loop(e.params, e.inits, e.ivar, e.n, unfuse_body(e.body), e.stripmine, e.checkpoint)
    if isinstance(e, WhileLoop):
        return WhileLoop(e.params, e.inits, _unfuse_lambda(e.cond), unfuse_body(e.body), e.bound)
    if isinstance(e, If):
        return If(e.cond, unfuse_body(e.then), unfuse_body(e.els))
    if isinstance(e, WithAcc):
        return WithAcc(e.arrs, _unfuse_lambda(e.lam))
    return e


def unfuse_fun(fun: Fun) -> Fun:
    """Split every redomap-shaped SOAC back into ``map`` + canonical operator.

    The AD entry points run this before differentiating: the reduce/scan/
    hist rules assume canonical associative operators, which fusion's
    redomap shapes are not.  Fusion re-fuses the AD output afterwards —
    exactly the "AD preserves fusion opportunities" round trip of the paper.
    """
    return Fun(fun.name, fun.params, unfuse_body(fun.body))
