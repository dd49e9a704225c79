"""Layer-1 static verifier: pass-boundary checking of the array IR.

The paper's correctness story rests on invariants the rewrite engine must
preserve — SSA scoping, type preservation, schedule legality, and the §5.4
accumulator discipline.  This module packages them as one entry point,
``verify_fun``, invoked at pipeline boundaries behind the ``REPRO_VERIFY``
knob:

* ``off``       — no verification (production default; the hooks cost one
  environment lookup per *compile stage*, never per call);
* ``boundary``  — verify at stage boundaries: after tracing, after the whole
  optimisation pipeline, after AD transforms, after schedule application and
  at lowering (the default under pytest, see ``tests/conftest.py``);
* ``full``      — additionally verify after every individual optimisation
  pass (failures name the pass that fired), run the parallel-safety
  analysis (layer 3, below) and the plan/codegen checks of
  ``exec/verify_plan.py`` (layer 2).

Checks performed by ``verify_fun``:

* **SSA well-formedness** — every binder is unique across the whole function
  (the flat-environment invariant the executors rely on; a ``WhileLoop``'s
  condition lambda deliberately shares the loop's parameters) and every use
  is lexically dominated by its definition;
* **type preservation** — ``typecheck.check_fun``;
* **accumulator discipline** — ``validate.validate_fun`` (region/escape
  analysis);
* **schedule legality** — every attached schedule re-checked with
  ``schedule.check_schedule``.

Layer 3, ``verify_parallel_safety``, statically proves every ``parallel(w)``
directive race-free: the directive's legality conditions, no free
accumulator threading through the split, a commutative combine operator for
parallel reductions, and a scatter/``ufunc.at`` index-overlap analysis that
refuses provably-overlapping writes.  Violations raise ``VerifyError``
naming the pass and the offending statement.

Counters are surfaced through the ``obs`` metrics registry under the
``verify`` section; each verification runs inside a ``verify`` tracing span.
"""
from __future__ import annotations

from typing import Dict, Optional, Set

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..util import IRError, ReproError, env_choice
from .analysis import (
    OP_IDENTITY,
    recognize_binop_lambda,
    recognize_redomap_lambda,
)
from .ast import (
    AtomExp,
    Body,
    Const,
    Exp,
    Fun,
    If,
    Lambda,
    Loop,
    Map,
    Reduce,
    Replicate,
    Scatter,
    Stm,
    Var,
    WhileLoop,
)
from .schedule import Parallel, check_schedule, format_schedule
from .traversal import exp_atoms, exp_lambdas, free_vars
from .typecheck import check_fun
from .types import AccType
from .validate import validate_fun

__all__ = [
    "VerifyError",
    "VERIFY_STATS",
    "verify_mode",
    "verify_fun",
    "maybe_verify_fun",
    "verify_parallel_safety",
    "verify_stats",
    "reset_verify_stats",
]


class VerifyError(IRError):
    """An IR invariant violation caught by the static verifier.

    The message names the pipeline location (``where`` — e.g. ``opt:fuse``,
    ``vjp``, ``schedule``, ``lower``) and the offending statement, so a
    failing pass is attributable without a bisection.
    """

    def __init__(self, msg: str, where: str = "", stm: Optional[Stm] = None):
        self.where = where
        self.stm = stm
        loc = f" after pass {where!r}" if where else ""
        at = ""
        if stm is not None:
            pat = ", ".join(v.name for v in stm.pat)
            at = f" in statement 'let ({pat}) = {type(stm.exp).__name__}'"
        super().__init__(f"IR verification failed{loc}{at}: {msg}")


_MODES = ("off", "boundary", "full")


def verify_mode() -> str:
    """The active verification mode: ``REPRO_VERIFY`` ∈ off|boundary|full."""
    return env_choice("REPRO_VERIFY", "off", _MODES)


# ---------------------------------------------------------------------------
# Stats (obs metrics registry section "verify")
# ---------------------------------------------------------------------------

VERIFY_STATS = _metrics.counter_group(
    "verify",
    {
        "fun_checks": 0,
        "plan_checks": 0,
        "codegen_checks": 0,
        "parallel_checks": 0,
        "failures": 0,
    },
)


def verify_stats() -> Dict[str, object]:
    """Verifier counters plus the active mode (one snapshot section)."""
    return {**VERIFY_STATS, "mode": verify_mode()}


def reset_verify_stats() -> None:
    for k in VERIFY_STATS:
        VERIFY_STATS[k] = 0


_metrics.register_source("verify", verify_stats, reset_verify_stats)


# ---------------------------------------------------------------------------
# SSA well-formedness
# ---------------------------------------------------------------------------


def _check_ssa(fun: Fun, where: str) -> None:
    """Def-before-use plus no-shadowing along every lexical path.

    The flat-environment executors key registers by *name*, so a binder may
    never rebind a name that is live in an enclosing scope (the inner write
    would clobber the outer register).  Sibling scopes may reuse names —
    AD's redundant-execution rewrites do — because the earlier binding is
    dead by the time the later scope runs.
    """

    def bind(v: Var, scope: Set[str], stm: Optional[Stm]) -> None:
        if v.name in scope:
            raise VerifyError(
                f"binder {v.name!r} shadows a definition live in an "
                f"enclosing scope",
                where,
                stm,
            )
        scope.add(v.name)

    def use(a, scope: Set[str], stm: Optional[Stm]) -> None:
        if isinstance(a, Var) and a.name not in scope:
            raise VerifyError(
                f"use of {a.name!r} before its definition", where, stm
            )

    def walk_body(body: Body, scope: Set[str]) -> None:
        scope = set(scope)
        for stm in body.stms:
            walk_exp(stm.exp, scope, stm)
            for v in stm.pat:
                bind(v, scope, stm)
        for a in body.result:
            use(a, scope, None)

    def walk_lambda(lam: Lambda, scope: Set[str], stm: Optional[Stm]) -> None:
        inner = set(scope)
        for p in lam.params:
            bind(p, inner, stm)
        walk_body(lam.body, inner)

    def walk_exp(e: Exp, scope: Set[str], stm: Optional[Stm]) -> None:
        for a in exp_atoms(e):
            use(a, scope, stm)
        if isinstance(e, WhileLoop):
            inner = set(scope)
            pnames = {p.name for p in e.params}
            for p in e.params:
                bind(p, inner, stm)
            # The condition lambda shares the loop's binders by construction
            # (frontend/ops.py, traversal.refresh) — re-binding those names
            # is not shadowing.  Any *other* name it binds is a new binder.
            cinner = set(inner)
            for p in e.cond.params:
                if p.name not in pnames:
                    bind(p, cinner, stm)
            walk_body(e.cond.body, cinner)
            walk_body(e.body, inner)
        elif isinstance(e, Loop):
            inner = set(scope)
            for p in e.params:
                bind(p, inner, stm)
            bind(e.ivar, inner, stm)
            walk_body(e.body, inner)
        elif isinstance(e, If):
            walk_body(e.then, scope)
            walk_body(e.els, scope)
        else:
            for lam in exp_lambdas(e):
                walk_lambda(lam, scope, stm)

    scope0: Set[str] = set()
    for p in fun.params:
        bind(p, scope0, None)
    walk_body(fun.body, scope0)


# ---------------------------------------------------------------------------
# Schedule legality
# ---------------------------------------------------------------------------


def _check_schedules(fun: Fun, where: str) -> None:
    def walk_body(body: Body) -> None:
        for stm in body.stms:
            sched = getattr(stm.exp, "schedule", ())
            if sched:
                err = check_schedule(stm.exp, sched, n_pat=len(stm.pat))
                if err is not None:
                    raise VerifyError(
                        f"illegal schedule "
                        f"{format_schedule(tuple(sched))!r}: {err}",
                        where,
                        stm,
                    )
            walk_exp(stm.exp)

    def walk_exp(e: Exp) -> None:
        for lam in exp_lambdas(e):
            walk_body(lam.body)
        if isinstance(e, (Loop, WhileLoop)):
            walk_body(e.body)
        elif isinstance(e, If):
            walk_body(e.then)
            walk_body(e.els)

    walk_body(fun.body)


# ---------------------------------------------------------------------------
# Layer 3: parallel-safety analysis
# ---------------------------------------------------------------------------

#: Operators whose chunk partials recombine in any order — required for a
#: parallel reduce, where worker completion order is nondeterministic.
#: (Floating-point reassociation is accepted, as in the paper's backend.)
COMMUTATIVE_OPS = frozenset(OP_IDENTITY)


def _resolve_def(name: str, defs: Dict[str, Exp]) -> Optional[Exp]:
    """Chase copies to the defining expression of ``name`` (same body only)."""
    seen: Set[str] = set()
    e = defs.get(name)
    while (
        isinstance(e, AtomExp)
        and isinstance(e.x, Var)
        and e.x.name not in seen
    ):
        seen.add(e.x.name)
        e = defs.get(e.x.name)
    return e


def _scatter_overlap(e: Scatter, defs: Dict[str, Exp]) -> Optional[str]:
    """A reason when the scatter's writes provably overlap.

    ``Iota``-derived (and reversed-iota) indices are provably duplicate-free;
    a ``Replicate`` of one index is provably all-duplicates — the
    ``ufunc.at``-style write would race under any chunked or parallel
    execution, and violates the IR precondition outright.
    Unknown index provenance passes (runtime semantics apply).
    """
    d = _resolve_def(e.inds.name, defs)
    if isinstance(d, Replicate):
        n = d.n
        if isinstance(n, Const) and int(n.value) <= 1:
            return None
        return (
            f"scatter indices {e.inds.name!r} replicate a single index — "
            f"overlapping writes race across chunks"
        )
    return None


def _map_split_hazard(e: Map) -> Optional[str]:
    for name, v in free_vars(e.lam).items():
        if isinstance(v.type, AccType):
            return (
                f"free accumulator {name!r} threads through the split — "
                f"chunks would race on its underlying buffer"
            )
    return None


def _reduce_combine_hazard(e: Reduce) -> Optional[str]:
    op = recognize_binop_lambda(e.lam)
    if op is None:
        rm = recognize_redomap_lambda(e.lam)
        op = rm[0] if rm is not None else None
    if op is None:
        return "combine operator not recognised as associative"
    if op not in COMMUTATIVE_OPS:
        return f"combine operator {op!r} is not commutative"
    return None


def verify_parallel_safety(fun: Fun, where: str = "") -> None:
    """Statically prove every parallel schedule race-free; raise otherwise."""
    VERIFY_STATS["parallel_checks"] += 1

    def walk_body(body: Body) -> None:
        defs: Dict[str, Exp] = {}
        for stm in body.stms:
            e = stm.exp
            if isinstance(e, Scatter):
                reason = _scatter_overlap(e, defs)
                if reason is not None:
                    raise VerifyError(
                        f"parallel-unsafe: {reason}", where, stm
                    )
            sched = tuple(getattr(e, "schedule", ()))
            if any(isinstance(d, Parallel) for d in sched):
                err = check_schedule(e, sched, n_pat=len(stm.pat))
                if err is not None:
                    raise VerifyError(
                        f"parallel-unsafe schedule "
                        f"{format_schedule(sched)!r}: {err}",
                        where,
                        stm,
                    )
                reason = None
                if isinstance(e, Map):
                    reason = _map_split_hazard(e)
                elif isinstance(e, Reduce):
                    reason = _reduce_combine_hazard(e)
                if reason is not None:
                    raise VerifyError(
                        f"parallel-unsafe: {reason}", where, stm
                    )
            for lam in exp_lambdas(e):
                walk_body(lam.body)
            if isinstance(e, (Loop, WhileLoop)):
                walk_body(e.body)
            elif isinstance(e, If):
                walk_body(e.then)
                walk_body(e.els)
            for v in stm.pat:
                defs.setdefault(v.name, e)

    walk_body(fun.body)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_fun(fun: Fun, where: str = "", *, full: bool = False) -> Fun:
    """Run the layer-1 checks on ``fun``; returns it unchanged on success.

    Raises ``VerifyError`` naming ``where`` (the pass/stage that produced
    the IR) and the offending statement.  ``full`` additionally runs the
    parallel-safety analysis.
    """
    with _tracing.span("verify", cat="verify", fun=fun.name, where=where):
        VERIFY_STATS["fun_checks"] += 1
        try:
            _check_ssa(fun, where)
            check_fun(fun)
            validate_fun(fun)
            _check_schedules(fun, where)
            if full:
                verify_parallel_safety(fun, where=where)
        except VerifyError:
            VERIFY_STATS["failures"] += 1
            raise
        except ReproError as err:
            VERIFY_STATS["failures"] += 1
            raise VerifyError(str(err), where=where) from err
    return fun


def maybe_verify_fun(fun: Fun, where: str = "") -> Fun:
    """``verify_fun`` gated on ``REPRO_VERIFY`` (the standard hook form)."""
    mode = verify_mode()
    if mode == "off":
        return fun
    return verify_fun(fun, where=where, full=mode == "full")
