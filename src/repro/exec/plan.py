"""Plan backend: a lowered program compiled to one Python function, plus
the two-tier plan cache.

A differentiated program is evaluated thousands of times on same-shaped
inputs, so everything that does not depend on the argument values is done
once per program:

* ``exec/lower.py`` turns an optimised ``Fun`` (plus optional static shape
  facts) into a linear **plan IR** — slot allocation, fused scalar runs,
  SOAC fast-path selection and specialisation folds are all decided there;
* ``exec/codegen.py`` renders that IR to the source of one Python function:
  control flow, fused scalar runs and slot moves inline, every other
  instruction one call into the runtime of ``exec/vector.py``;
* ``Plan`` (this module) compiles that source and runs it, and
  ``plan_for`` caches plans.

Runtime values are ``BV`` batched values (``exec/vector.py``): entering a
``map`` pushes a batch level, divergent control flow runs SIMT-style under
predication masks, accumulators update in place.  The reference interpreter
(``backend="ref"``) is the semantics oracle the test suite holds every plan
to.

Caching — two tiers
-------------------

``plan_for(fun, args, batched=..., backend=..., emitter=...)`` memoises
plans in a module-level, lock-guarded cache with two tiers:

* **tier 1 (generic)** — keyed by ``(ir_hash(fun), backend, emitter,
  rank/dtype signature, batched flags)``.  The key leads with the
  alpha-invariant content hash (``ir.analysis.ir_hash``), so
  alpha-equivalent ``Fun`` bodies — retraced derivatives, per-worker
  re-optimised copies — share one plan instead of one per object
  identity.  Concrete extents are dropped from the key: plans are
  shape-generic, so one plan serves a whole problem-size sweep (GMM D0→D6,
  BA camera counts, shard chunk extents).  The backend/emitter dimensions
  separate shard chunk plans and profiled plans from plan-backend entries.
* **tier 2 (specialised, ``REPRO_PLAN_SPECIALIZE``, default on)** — after a
  concrete ``(shape, dtype)`` signature scores enough tier-1 hits that the
  predicted specialisation savings amortise the estimated re-lowering cost
  (``ir.cost_model.promotion_threshold``; signatures admitting no folds are
  never promoted; ``REPRO_PLAN_SPECIALIZE_AFTER`` overrides with a bare
  hit-count threshold), the plan is re-lowered with the signature's static
  facts folded in (``ir.analysis.infer_static_shapes``): ``Size``
  expressions become prebuilt constants, iota/replicate/histogram extents
  become compile-time ints (small iotas prebuilt outright), and reduce/scan
  lowering picks its strategy by the known extent.  Specialised and generic
  plans agree bitwise — promotion is purely a perf move.

Repeat calls on same-shaped arguments skip tracing, optimisation, lowering
and compilation entirely; ``PLAN_STATS`` counts hits/misses/specialized-hits/
promotions/evictions and fused-statement/fold totals, and ``EMITTER_STATS``
breaks plan construction down per emitter, so callers can assert cache
behaviour.  Each tier is an LRU bounded by ``REPRO_PLAN_CACHE_SIZE`` entries
(default 512, ``0`` unbounded); ``clear_plan_cache`` drops everything
eagerly (plans are derived purely from immutable ``Fun`` values, so entries
never go stale).  All cache and counter state is mutated under one
re-entrant lock — shard thread mode resolves plans from pool workers
concurrently.

Batched seeds
-------------

``Plan.run_batched(args, batched, batch_size)`` evaluates the plan with the
flagged arguments carrying one extra leading batch axis — the batched
multi-seed driver used by ``jacobian``: all n/m basis vectors evaluate in a
single pass, stacked on the leading axis, instead of n/m separate runs.
"""
from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import StaticInfo, infer_static_shapes, ir_hash
from ..ir.ast import Fun
from ..ir.types import np_dtype
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..util import BoundedLRU, ExecError, env_capacity
from .lower import PlanIR, check_spec_sig, lower_fun, plan_schedules, spec_signature
from .values import coerce_arg
from .vector import AccBV, BV, _expand
from .verify_plan import maybe_verify_codegen_source

__all__ = [
    "Plan",
    "compile_plan",
    "plan_for",
    "specialized_plan",
    "specialize_enabled",
    "register_emitter",
    "run_fun_plan",
    "run_fun_plan_batched",
    "PLAN_STATS",
    "EMITTER_STATS",
    "plan_cache_stats",
    "clear_plan_cache",
    "reset_plan_cache_stats",
    "profile_enabled",
]

_span = _obs_tracing.span


class _Engine:
    """Mutable per-call state: the batch-size stack and predication mask."""

    __slots__ = ("bstack", "mask")

    def __init__(self) -> None:
        self.bstack: List[int] = []
        self.mask: Optional[BV] = None


class Plan:
    """An executable plan of one ``Fun``: its plan IR rendered to Python
    source (``exec/codegen.py``) and compiled to one function.

    With ``static=None`` the plan is fully shape-generic (tier 1 of the plan
    cache — one plan serves every concrete signature of a rank/dtype
    signature).  With a ``StaticInfo`` the lowering folds everything the
    concrete signature determines (tier 2 — see ``lower._Lowerer``); results
    are bitwise identical either way.  ``source`` and ``consts`` (the
    ``_K{i}`` constants it references) are all a process worker needs to
    rebuild the plan (``codegen.ShippedCodegenPlan``).
    """

    #: ``EMITTER_STATS`` bucket and span label; the profile emitter
    #: (``obs/profiler.py``) overrides it.
    emitter_name = "plan"

    def __init__(
        self,
        fun: Fun,
        static: Optional[StaticInfo] = None,
        spec_sig: Optional[tuple] = None,
        ir: Optional[PlanIR] = None,
    ) -> None:
        with _obs_tracing.timed(
            "emit", cat="compile", fun=fun.name, emitter=self.emitter_name
        ) as tem:
            if ir is None:
                ir = lower_fun(fun, static)
            self.fun = fun
            self.specialized = ir.specialized
            #: ``(payload shapes, batched flags)`` the specialised lowering is
            #: valid for; ``run``/``run_batched`` enforce it — folded constants
            #: silently produce wrong numbers on any other signature.
            self.spec_sig = spec_sig
            self.param_types = ir.param_types
            #: Statements collapsed into fused scalar runs (recursive).
            self.fused_stms = ir.fused
            #: Compile-time folds performed by the specialised lowering.
            self.spec_folds = ir.folds
            #: Distinct active schedules of the top-level SOAC/loop
            #: statements, for the execute span.
            self.schedule_str = plan_schedules(ir)
            self.source, self.consts = self._render(ir)
        ns = self._namespace()
        # Layer-2 codegen sanity (ir/verify knob): the rendered module must
        # parse and reference nothing beyond its namespace.  Once per
        # compile; cached plans never re-check.
        maybe_verify_codegen_source(fun.name, self.source, ns)
        with _obs_tracing.timed(
            "compile", cat="compile", fun=fun.name, emitter=self.emitter_name
        ) as tcc:
            self._fn = _codegen.compile_source(fun.name, self.source, ns)
        _codegen.maybe_dump(fun, self.specialized, self.source)
        with _LOCK:
            PLAN_STATS["fused_stms"] += ir.fused
            PLAN_STATS["spec_folds"] += ir.folds
            st = EMITTER_STATS.setdefault(
                self.emitter_name,
                {"plans": 0, "emit_s": 0.0, "code_objects": 0,
                 "source_bytes": 0, "compile_s": 0.0},
            )
            st["plans"] += 1
            st["emit_s"] += tem.seconds
            st["code_objects"] += 1
            st["source_bytes"] += len(self.source)
            st["compile_s"] += tcc.seconds

    def _render(self, ir: PlanIR) -> Tuple[str, tuple]:
        """The plan's source and the constants it references."""
        return _codegen.render(ir)

    def _namespace(self) -> Dict[str, object]:
        """The globals the compiled source runs against."""
        return _codegen.namespace(self.consts)

    def __repr__(self) -> str:
        kind = "specialized " if self.specialized else ""
        return (
            f"<{kind}Plan {self.fun.name}: {len(self.source)} source bytes, "
            f"{self.fused_stms} fused, {self.spec_folds} folds>"
        )

    def _check_args(self, args: Sequence[object], batched) -> None:
        if len(args) != len(self.param_types):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_types)} arguments, "
                f"got {len(args)}"
            )
        check_spec_sig(self.fun.name, self.spec_sig, args, batched)

    def run(self, args: Sequence[object]) -> Tuple[object, ...]:
        self._check_args(args, None)
        with _span("execute", cat="exec", fun=self.fun.name, emitter=self.emitter_name,
                   schedule=self.schedule_str or None):
            vals = [BV(np.asarray(coerce_arg(a, t)), 0)
                    for a, t in zip(args, self.param_types)]
            with np.errstate(all="ignore"):
                res = self._fn(_Engine(), *vals)
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = np.asarray(r.data)
                out.append(d if d.ndim else d[()])
            return tuple(out)

    def run_batched(
        self, args: Sequence[object], batched: Sequence[bool], batch_size: int
    ) -> Tuple[object, ...]:
        """Evaluate once with the flagged arguments batched on a leading axis.

        Execution starts with one pre-pushed batch level of extent
        ``batch_size`` — exactly the state of evaluating a ``map`` over the
        batch — so batched arguments are ``BV``s with one batch dim and
        shared arguments broadcast.  Every result is returned with a leading
        ``batch_size`` axis.
        """
        if len(batched) != len(args):
            raise ExecError("run_batched: batched flags must match arguments")
        self._check_args(args, batched)
        with _span("execute", cat="exec", fun=self.fun.name, emitter=self.emitter_name,
                   batched=True, schedule=self.schedule_str or None):
            b = int(batch_size)
            eng = _Engine()
            eng.bstack.append(b)
            vals = []
            for a, t, flag in zip(args, self.param_types, batched):
                if flag:
                    arr = np.asarray(a)
                    if arr.ndim == 0 or arr.shape[0] != b:
                        raise ExecError(
                            f"batched argument: leading axis {arr.shape[:1]} does "
                            f"not match batch size {b}"
                        )
                    vals.append(BV(np.ascontiguousarray(arr, dtype=np_dtype(t)), 1))
                else:
                    vals.append(BV(np.asarray(coerce_arg(a, t)), 0))
            with np.errstate(all="ignore"):
                res = self._fn(eng, *vals)
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = _expand(r, 1)
                out.append(np.ascontiguousarray(np.broadcast_to(d, (b,) + d.shape[1:])))
            return tuple(out)


def compile_plan(
    fun: Fun,
    args: Optional[Sequence[object]] = None,
    batched: Optional[Sequence[bool]] = None,
) -> Plan:
    """Compile ``fun`` to a fresh (uncached) plan.

    With ``args`` the lowering is specialised to their concrete shapes (the
    tier-2 lowering, forced — no promotion threshold); without, it is the
    shape-generic tier-1 lowering.
    """
    if args is None:
        return Plan(fun)
    return specialized_plan(fun, args, batched)


def specialized_plan(
    fun: Fun,
    args: Sequence[object],
    batched: Optional[Sequence[bool]] = None,
) -> Plan:
    """A fresh plan specialised to ``args``' concrete shapes (uncached).

    ``batched`` flags mark arguments whose leading axis is the batch axis of
    ``run_batched`` — it is stripped before inference, since static facts
    describe *payload* shapes.
    """
    return _specialized_build(Plan, fun, args, batched)


# ---------------------------------------------------------------------------
# Emitter registry
# ---------------------------------------------------------------------------

#: Plan builders by name: ``build(fun, static=None, spec_sig=None)`` returns
#: a plan (``run``/``run_batched``/``spec_sig``).  ``"plan"`` is ``Plan``;
#: ``obs/profiler.py`` registers ``"profile"`` on import (resolved lazily
#: below so unprofiled sessions never import it).
_EMITTERS: Dict[str, Callable] = {}


def register_emitter(name: str, build: Callable) -> None:
    """Register a plan builder (``build(fun, static, spec_sig)``)."""
    _EMITTERS[name] = build


register_emitter("plan", Plan)


def _resolve_emitter(name: str) -> Callable:
    build = _EMITTERS.get(name)
    if build is None and name == "profile":
        from ..obs import profiler  # noqa: F401  (registers itself on import)

        build = _EMITTERS.get(name)
    if build is None:
        raise ExecError(
            f"unknown plan emitter {name!r} (have {sorted(_EMITTERS)})"
        )
    return build


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` routes default plan lookups through the
    per-instruction ``"profile"`` emitter.  Any non-falsy value enables it;
    a value with a path separator or ``.json`` suffix is additionally the
    report file written at interpreter exit (see ``obs/profiler.py``)."""
    return os.environ.get("REPRO_PROFILE", "").lower() not in ("", "0", "off", "false", "no")


def _specialized_build(
    build: Callable, fun: Fun, args: Sequence[object], batched
):
    """A fresh tier-2 plan through ``build`` (the promotion path)."""
    shapes, flags = spec_signature(args, batched)
    return build(
        fun,
        static=infer_static_shapes(fun, list(shapes)),
        spec_sig=(shapes, flags),
    )


# ---------------------------------------------------------------------------
# Plan cache — two tiers
# ---------------------------------------------------------------------------

#: Counters for the module-level plan cache (reset on clear).  Every
#: ``plan_for`` call increments exactly one of ``misses`` (a generic tier-1
#: lowering — by construction one per rank/dtype signature), ``hits`` (the
#: generic plan served a concrete signature), or ``specialized_hits`` (a
#: promoted tier-2 plan served its exact signature); ``promotions`` counts
#: tier-2 lowerings, ``evictions`` LRU drops across both tiers,
#: ``fused_stms`` scalar statements collapsed into fused runs, and
#: ``spec_folds`` compile-time folds performed by specialised lowerings.
PLAN_STATS = _obs_metrics.counter_group(
    "plan_cache",
    {
        "hits": 0,
        "misses": 0,
        "specialized_hits": 0,
        "promotions": 0,
        "evictions": 0,
        "fused_stms": 0,
        "spec_folds": 0,
    },
)

#: Per-emitter construction counters (``plans`` built, ``emit_s`` wall-clock
#: spent lowering+rendering, ``code_objects``, ``source_bytes`` and
#: ``compile_s``).  Mutated under ``_LOCK``; snapshot
#: via ``plan_cache_stats()["emitters"]``; reset by ``clear_plan_cache``.
EMITTER_STATS: Dict[str, Dict[str, object]] = {}

#: Tier 1: shape-generic plans keyed by ``(ir_hash(fun), backend, emitter,
#: rank/dtype signature, batched flags)``.  Tier 2: specialised plans keyed
#: by the full concrete ``(shape, dtype)`` signature.  ``_PROMO`` counts
#: tier-1 hits per concrete signature, driving promotion; its entries are
#: ``(count, threshold)`` pairs.  Content-hash keys make entries shareable
#: across alpha-equivalent ``Fun`` objects (and immune to id recycling —
#: the old identity-keyed soundness argument is gone entirely).  All three
#: are mutated only under ``_LOCK`` together with the stats dicts (shard
#: thread mode resolves plans from pool workers).
_GENERIC = BoundedLRU()
_SPECIAL = BoundedLRU()
_PROMO = BoundedLRU()
#: Process-mode shard payloads by program content hash
#: (``codegen.codegen_payload``).
_PAYLOADS = BoundedLRU()
_LOCK = threading.RLock()
_MISS = object()

_DEFAULT_CACHE_SIZE = 512


def specialize_enabled() -> bool:
    """Whether tier-2 specialisation is on (``REPRO_PLAN_SPECIALIZE``,
    default on; ``0``/``off``/``false``/``no`` disable)."""
    return os.environ.get("REPRO_PLAN_SPECIALIZE", "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def _specialize_after() -> int:
    """Tier-1 hits on one concrete signature before promotion
    (``REPRO_PLAN_SPECIALIZE_AFTER``, default 2, min 1)."""
    return max(1, env_capacity("REPRO_PLAN_SPECIALIZE_AFTER", 2))


def _payload_shapes(args: Sequence[object], batched) -> list:
    """Concrete payload shapes (batch axis stripped from flagged args)."""
    flags = tuple(bool(f) for f in batched) if batched is not None else (False,) * len(args)
    out = []
    for a, f in zip(args, flags):
        s = np.asarray(a).shape
        out.append(tuple(s[1:]) if f else tuple(s))
    return out


def _promo_threshold(fun: Fun, args, batched) -> Optional[int]:
    """Tier-1 hit count at which this signature gets promoted.

    ``REPRO_PLAN_SPECIALIZE_AFTER`` in the environment overrides with the
    old bare counter; otherwise the threshold is derived from the static
    cost model (``ir.cost_model.promotion_threshold``): the smallest hit
    count whose predicted per-call specialisation savings amortise the
    estimated re-lowering cost — signatures whose shapes admit *no*
    compile-time folds are never promoted (``None``)."""
    if "REPRO_PLAN_SPECIALIZE_AFTER" in os.environ:
        return _specialize_after()
    from ..ir.cost_model import promotion_threshold

    return promotion_threshold(fun, _payload_shapes(args, batched))


def _sig_of(args: Sequence[object]) -> tuple:
    """The concrete (tier-2) signature: per-arg shape and dtype."""
    sig = []
    for a in args:
        arr = np.asarray(a)
        sig.append((arr.shape, arr.dtype.str))
    return tuple(sig)


def _generic_sig_of(args: Sequence[object]) -> tuple:
    """The generic (tier-1) signature: per-arg rank and dtype — concrete
    extents dropped, so a D0→D6 shape sweep shares one entry."""
    sig = []
    for a in args:
        arr = np.asarray(a)
        sig.append((arr.ndim, arr.dtype.str))
    return tuple(sig)


def plan_for(
    fun: Fun,
    args: Sequence[object],
    batched: Optional[Sequence[bool]] = None,
    backend: str = "plan",
    emitter: Optional[str] = None,
):
    """The cached plan for ``fun`` given ``args``' shapes/dtypes — two tiers.

    **Tier 1 (generic):** keyed by ``(ir_hash(fun), backend, emitter,
    rank/dtype signature, batched flags)`` — the content hash shares one
    lowering across alpha-equivalent ``Fun`` bodies, and concrete extents
    are *not* part of the key, so sweeping a problem-size axis (GMM D0→D6,
    BA camera counts, shard chunk extents) re-uses one lowering instead of
    re-lowering and evicting per shape.  The ``backend``/``emitter``
    dimensions keep entries built on behalf of different executors apart
    (shard chunk plans and profiled plans can never collide with plain
    plan-backend entries for the same ``Fun``).

    **Tier 2 (specialised, ``REPRO_PLAN_SPECIALIZE``):** after a concrete
    ``(shape, dtype)`` signature scores ``REPRO_PLAN_SPECIALIZE_AFTER``
    tier-1 hits, it is promoted: a plan is re-lowered with the signature's
    static facts folded in (``Size`` constants, prebuilt iotas, extent-picked
    reduce strategies — see ``exec/lower.py``) and served for that exact
    signature from then on.  Promotion is a pure optimisation: specialised
    and generic plans agree bitwise.

    ``emitter`` picks the plan builder — ``"plan"``, or ``"profile"``
    (per-instruction timers, the default while ``REPRO_PROFILE`` is set).
    Both tiers are
    LRUs bounded by ``REPRO_PLAN_CACHE_SIZE`` entries each (default 512,
    ``0`` unbounded) and entries never go stale (``Fun`` is immutable).
    The whole lookup — cache mutation, counters, and any lowering — runs
    under one re-entrant lock, so concurrent shard workers can never
    corrupt the LRU order or lose stat increments (and a plan is lowered
    once, not once per racing thread).
    """
    if emitter is None:
        emitter = "profile" if profile_enabled() else "plan"
    build = _resolve_emitter(emitter)
    flags = tuple(batched) if batched is not None else None
    base = (ir_hash(fun), backend, emitter, flags)
    gkey = base + (_generic_sig_of(args),)
    cap = env_capacity("REPRO_PLAN_CACHE_SIZE", _DEFAULT_CACHE_SIZE)
    with _LOCK:
        plan = _GENERIC.get(gkey, _MISS)
        if plan is _MISS:
            PLAN_STATS["misses"] += 1
            plan = build(fun)
            PLAN_STATS["evictions"] += _GENERIC.put(gkey, plan, cap)
            return plan
        skey = base + (_sig_of(args),)
        sp = _SPECIAL.get(skey, _MISS)
        if sp is not _MISS:
            PLAN_STATS["specialized_hits"] += 1
            return sp
        PLAN_STATS["hits"] += 1
        if specialize_enabled():
            ent = _PROMO.get(skey)
            if ent is not None:
                n, thr = ent[0] + 1, ent[1]
            else:
                # First tier-1 hit of this signature: derive (and memoise)
                # its promotion threshold from the cost model — the
                # amortisation estimate runs once per signature, not per hit.
                n, thr = 1, _promo_threshold(fun, args, batched)
            _PROMO.put(skey, (n, thr), cap * 8 if cap > 0 else 0)
            if thr is not None and n >= thr:
                with _span("promote", cat="compile", fun=fun.name, emitter=emitter):
                    sp = _specialized_build(build, fun, args, batched)
                PLAN_STATS["promotions"] += 1
                PLAN_STATS["evictions"] += _SPECIAL.put(skey, sp, cap)
                return sp
        return plan


def plan_cache_stats() -> Dict[str, object]:
    """A snapshot of the cache counters plus the current entry counts
    (``entries`` — generic tier, ``specialized_entries`` — specialised) and
    the per-emitter construction breakdown (``emitters``)."""
    from ..ir.verify import verify_mode, VERIFY_STATS

    with _LOCK:
        return {
            **PLAN_STATS,
            "entries": len(_GENERIC),
            "specialized_entries": len(_SPECIAL),
            "emitters": {k: dict(v) for k, v in EMITTER_STATS.items()},
            # Verification is per *lowering*, never per call: cache hits
            # reuse the verified PlanIR, so these counters stand still on
            # the hot path (asserted by the A9 overhead guard).
            "verify": {
                "mode": verify_mode(),
                "plan_checks": VERIFY_STATS["plan_checks"],
                "codegen_checks": VERIFY_STATS["codegen_checks"],
            },
        }


def clear_plan_cache() -> None:
    """Drop every cached plan (both tiers) and reset all counters.

    This clears ``EMITTER_STATS`` too — the per-emitter construction
    totals describe the plans being dropped, so they go with them.  To
    zero the counters while *keeping* cached plans, use
    ``reset_plan_cache_stats``.
    """
    with _LOCK:
        _GENERIC.clear()
        _SPECIAL.clear()
        _PROMO.clear()
        _PAYLOADS.clear()
        reset_plan_cache_stats()


def reset_plan_cache_stats() -> None:
    """Zero ``PLAN_STATS`` and ``EMITTER_STATS`` without dropping cached
    plans — the ``reset_*`` counterpart of the other stats surfaces,
    registered with ``obs.reset_all()``."""
    with _LOCK:
        PLAN_STATS.reset()
        EMITTER_STATS.clear()


_obs_metrics.register_source("plan_cache", plan_cache_stats, reset_plan_cache_stats)


def run_fun_plan(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    """Evaluate ``fun`` via the (cached) plan backend."""
    return plan_for(fun, args).run(args)


def run_fun_plan_batched(
    fun: Fun, args: Sequence[object], batched: Sequence[bool], batch_size: int
) -> Tuple[object, ...]:
    """Evaluate ``fun`` once with batched arguments via the plan backend."""
    return plan_for(fun, args, batched).run_batched(args, batched, batch_size)


# The renderer builds on this module (``CodegenPlan`` and the process-worker
# plans subclass ``Plan``), so it is imported last; ``Plan`` only reaches it
# at construction time.
from . import codegen as _codegen  # noqa: E402
