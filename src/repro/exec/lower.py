"""Lowering: ``Fun`` + static shape facts → linear plan IR.

Every compile-time decision of the plan backend (slot allocation,
scalar-run fusion, SOAC fast-path recognition, specialisation folds) is
made here, once, into an explicit **plan IR**: a flat sequence of
instruction records over a slot-numbered register space, with every
statically resolvable choice already made:

* atoms resolve to slots (``Ref`` with a slot index) or prebuilt scalar
  ``BV`` constants;
* runs of ≥2 adjacent scalar statements (``_RUN_FUSIBLE``) collapse into one
  ``IRun`` whose interior temporaries never touch the register file (the
  live-after sets come from ONE backward free-vars sweep per body);
* reduce/scan/histogram operators are recognised (``recognize_binop_lambda``
  / ``recognize_redomap_lambda``) and the chosen strategy — ufunc fast path,
  fused redomap, or generic fold — is recorded on the instruction;
* with tier-2 ``StaticInfo`` facts, ``Size`` folds to a constant, iota /
  replicate / histogram extents become compile-time ints (small iotas are
  prebuilt outright), and reduce lowering picks its variant by the known
  extent (``ext`` on the node; the emitter compiles dead branches away).

The emitter (``exec/codegen.py``) renders the IR to the source of one
Python function without re-deciding anything; the static verifier
(``exec/verify_plan.py``) and the profiler key off the same records.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import (
    StaticInfo,
    infer_static_shapes,
    ne_is_identity,
    recognize_binop_lambda,
    recognize_redomap_lambda,
)
from ..ir.ast import (
    Atom,
    AtomExp,
    BinOp,
    Body,
    Cast,
    Concat,
    Const,
    Exp,
    Fun,
    If,
    Index,
    Iota,
    Lambda,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Replicate,
    Reverse,
    Scan,
    Scatter,
    ScratchLike,
    Select,
    Size,
    Stm,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
)
from ..ir.schedule import SCHEDULABLE as _SCHEDULABLE
from ..ir.schedule import schedule_str as _schedule_str
from ..ir.traversal import free_vars_exp
from ..ir.types import np_dtype
from ..obs import tracing as _tracing
from ..util import ExecError
from .vector import BV

__all__ = [
    "Ref",
    "IntRef",
    "RunOp",
    "PBody",
    "PlanIR",
    "lower_fun",
    "lower_specialized",
    "plan_schedules",
    "spec_signature",
    "check_spec_sig",
    "IRun",
    "IUpdate",
    "IIota",
    "IReplicate",
    "IScratch",
    "ISize",
    "IReverse",
    "IConcat",
    "IMap",
    "IReduce",
    "IScan",
    "IHist",
    "IScatter",
    "ILoop",
    "IWhile",
    "IIf",
    "IWithAcc",
    "IUpdAcc",
    "_RUN_FUSIBLE",
    "_IOTA_PREBUILD_MAX",
]


#: Statement expressions eligible for scalar-run fusion: pure, single-result,
#: independent of the engine's mask/batch state (they only read operands).
_RUN_FUSIBLE = (AtomExp, UnOp, BinOp, Select, Cast, Index, ZerosLike)

#: Largest statically known iota a specialised lowering prebuilds (beyond
#: it, holding the constant array per cached plan costs more memory than the
#: per-call ``np.arange`` costs time).
_IOTA_PREBUILD_MAX = 1 << 16


class Ref:
    """A resolved atom: a register slot (``slot is not None``) or a prebuilt
    scalar constant ``BV`` (shared — consumers never mutate scalar BVs)."""

    __slots__ = ("slot", "name", "bv")

    def __init__(self, slot=None, name=None, bv=None):
        self.slot = slot
        self.name = name
        self.bv = bv


class IntRef:
    """A lane-uniform integer extent: a compile-time ``const`` (literal or
    folded from the specialisation signature) or a ``ref`` validated for
    lane-uniformity per call."""

    __slots__ = ("const", "ref", "what")

    def __init__(self, const=None, ref=None, what=""):
        self.const = const
        self.ref = ref
        self.what = what


class RunOp:
    """One scalar op inside a fused run.  ``xs`` operands are run-local
    indices (``int`` — the value of a previous op in the same run) or
    ``Ref``s.  ``op`` names the scalar operator (unop/binop); ``dtype`` is
    the target of a cast."""

    __slots__ = ("kind", "op", "xs", "dtype")

    def __init__(self, kind, xs, op=None, dtype=None):
        self.kind = kind
        self.xs = xs
        self.op = op
        self.dtype = dtype


class PBody:
    """A lowered body: instruction records plus result refs."""

    __slots__ = ("instrs", "result")

    def __init__(self, instrs, result):
        self.instrs = instrs
        self.result = result


class _Instr:
    kind = "?"
    #: Source provenance: the ``ir.Stm``s this instruction executes, set by
    #: ``_Lowerer.lower_body`` on top-level instructions.  The profile
    #: emitter (``obs/profiler.py``) keys its per-instruction timings to
    #: these statements; everything else ignores them.
    prov: tuple = ()
    #: The active schedule of the lowered SOAC/loop statement, formatted
    #: (``ir.schedule.schedule_str``) — carried so execute/shard spans and
    #: the profiler report can say *how* a statement was scheduled.  Empty
    #: on non-schedulable instructions.
    schedule: str = ""


class IRun(_Instr):
    """A fused run of scalar statements.  ``exports`` lists the run-local
    values live after the run as ``(local_index, slot, name)``; interior
    temporaries stay run-local."""

    kind = "run"
    __slots__ = ("ops", "exports")

    def __init__(self, ops, exports):
        self.ops = ops
        self.exports = exports


class IUpdate(_Instr):
    kind = "update"
    __slots__ = ("arr", "idx", "val", "out")

    def __init__(self, arr, idx, val, out):
        self.arr, self.idx, self.val, self.out = arr, idx, val, out


class IIota(_Instr):
    kind = "iota"
    __slots__ = ("n", "dtype", "prebuilt", "out")

    def __init__(self, n, dtype, prebuilt, out):
        self.n, self.dtype, self.prebuilt, self.out = n, dtype, prebuilt, out


class IReplicate(_Instr):
    kind = "replicate"
    __slots__ = ("n", "v", "out")

    def __init__(self, n, v, out):
        self.n, self.v, self.out = n, v, out


class IScratch(_Instr):
    kind = "scratch"
    __slots__ = ("n", "x", "out")

    def __init__(self, n, x, out):
        self.n, self.x, self.out = n, x, out


class ISize(_Instr):
    kind = "size"
    __slots__ = ("arr", "dim", "const", "out")

    def __init__(self, arr, dim, const, out):
        self.arr, self.dim, self.const, self.out = arr, dim, const, out


class IReverse(_Instr):
    kind = "reverse"
    __slots__ = ("x", "out")

    def __init__(self, x, out):
        self.x, self.out = x, out


class IConcat(_Instr):
    kind = "concat"
    __slots__ = ("x", "y", "out")

    def __init__(self, x, y, out):
        self.x, self.y, self.out = x, y, out


class IMap(_Instr):
    """``chunk > 1`` realises a ``sequential(chunk)`` schedule directive:
    the emitter slices the (acc-free, top-level, unmasked) map into in-order
    chunks of that extent and concatenate the payloads — bitwise-identical
    to the bulk path because elementwise NumPy slices compose exactly."""

    kind = "map"
    __slots__ = ("arrs", "accs", "params", "body", "n_acc", "outs", "chunk")

    def __init__(self, arrs, accs, params, body, n_acc, outs, chunk=0):
        self.arrs, self.accs, self.params = arrs, accs, params
        self.body, self.n_acc, self.outs = body, n_acc, outs
        self.chunk = chunk


class IReduce(_Instr):
    """``strategy`` ∈ {"ufunc", "redomap", "generic"}.  For ufunc/redomap,
    ``op`` names the recognised operator, ``fold`` whether the neutral
    element must still be folded in, and ``ext`` the statically known leading
    extent (``None`` when dynamic).  Redomap carries the fused map part
    (``mparams``/``mbody``); generic carries the full lambda."""

    kind = "reduce"
    __slots__ = (
        "strategy", "arrs", "nes", "op", "fold", "ext",
        "mparams", "mbody", "params", "body", "outs",
    )

    def __init__(self, strategy, arrs, nes, outs, op=None, fold=False, ext=None,
                 mparams=None, mbody=None, params=None, body=None):
        self.strategy, self.arrs, self.nes, self.outs = strategy, arrs, nes, outs
        self.op, self.fold, self.ext = op, fold, ext
        self.mparams, self.mbody = mparams, mbody
        self.params, self.body = params, body


class IScan(IReduce):
    kind = "scan"


class IHist(_Instr):
    """Generalised histogram; same strategy taxonomy as ``IReduce`` (no
    extent specialisation — the bin count, not the input extent, dominates)."""

    kind = "hist"
    __slots__ = (
        "num_bins", "arrs", "nes", "strategy", "op",
        "mparams", "mbody", "params", "body", "outs",
    )

    def __init__(self, num_bins, arrs, nes, strategy, outs, op=None,
                 mparams=None, mbody=None, params=None, body=None):
        self.num_bins, self.arrs, self.nes = num_bins, arrs, nes
        self.strategy, self.outs, self.op = strategy, outs, op
        self.mparams, self.mbody = mparams, mbody
        self.params, self.body = params, body


class IScatter(_Instr):
    kind = "scatter"
    __slots__ = ("dest", "inds", "vals", "out")

    def __init__(self, dest, inds, vals, out):
        self.dest, self.inds, self.vals, self.out = dest, inds, vals, out


class ILoop(_Instr):
    kind = "loop"
    __slots__ = ("n", "inits", "ivar", "params", "body", "outs")

    def __init__(self, n, inits, ivar, params, body, outs):
        self.n, self.inits, self.ivar = n, inits, ivar
        self.params, self.body, self.outs = params, body, outs


class IWhile(_Instr):
    kind = "while"
    __slots__ = ("inits", "cparams", "cbody", "params", "body", "outs")

    def __init__(self, inits, cparams, cbody, params, body, outs):
        self.inits, self.cparams, self.cbody = inits, cparams, cbody
        self.params, self.body, self.outs = params, body, outs


class IIf(_Instr):
    kind = "if"
    __slots__ = ("cond", "then", "els", "outs")

    def __init__(self, cond, then, els, outs):
        self.cond, self.then, self.els, self.outs = cond, then, els, outs


class IWithAcc(_Instr):
    kind = "withacc"
    __slots__ = ("arrs", "params", "body", "n_acc", "outs")

    def __init__(self, arrs, params, body, n_acc, outs):
        self.arrs, self.params, self.body = arrs, params, body
        self.n_acc, self.outs = n_acc, outs


class IUpdAcc(_Instr):
    kind = "updacc"
    __slots__ = ("acc", "idx", "v", "out")

    def __init__(self, acc, idx, v, out):
        self.acc, self.idx, self.v, self.out = acc, idx, v, out


class PlanIR:
    """The lowered form of one ``Fun``: a flat slot space, parameter slots,
    and a ``PBody`` of instruction records.  ``fused`` counts statements
    collapsed into runs, ``folds`` the compile-time folds the specialised
    lowering performed (both surfaced via ``plan_cache_stats``)."""

    __slots__ = ("fun", "param_slots", "param_types", "body", "nslots",
                 "fused", "folds", "specialized")

    def __init__(self, fun, param_slots, param_types, body, nslots,
                 fused, folds, specialized):
        self.fun = fun
        self.param_slots = param_slots
        self.param_types = param_types
        self.body = body
        self.nslots = nslots
        self.fused = fused
        self.folds = folds
        self.specialized = specialized


def plan_schedules(ir: "PlanIR") -> str:
    """Comma-joined distinct active schedules of the plan's top-level
    SOAC/loop instructions — the ``schedule`` attribute on execute spans."""
    return ",".join(dict.fromkeys(
        ins.schedule for ins in ir.body.instrs if ins.schedule
    ))


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    """One-shot lowering of a ``Fun`` body to plan IR.

    All SSA names in a program are globally unique, so a single flat slot
    space serves every scope (exactly the flat-environment invariant the
    interpreters rely on).
    """

    def __init__(self, static: Optional[StaticInfo] = None) -> None:
        self.slots: Dict[str, int] = {}
        self.fused = 0
        self.static = static
        self.folds = 0

    # -- atoms ----------------------------------------------------------------

    def static_int(self, a: Atom) -> Optional[int]:
        """The compile-time value of a lane-uniform integer atom, if known."""
        if isinstance(a, Const):
            return int(a.value)
        if self.static is not None:
            v = self.static.int_of(a.name)
            if v is not None:
                self.folds += 1
                return int(v)
        return None

    def static_extent(self, arrs) -> Optional[int]:
        """The statically known leading extent of a SOAC's input arrays."""
        if self.static is None or not arrs:
            return None
        s = self.static.shape(arrs[0].name)
        if s is not None and len(s) >= 1:
            self.folds += 1
            return int(s[0])
        return None

    def slot(self, name: str) -> int:
        s = self.slots.get(name)
        if s is None:
            s = len(self.slots)
            self.slots[name] = s
        return s

    def ref(self, a: Atom) -> Ref:
        if isinstance(a, Var):
            return Ref(slot=self.slot(a.name), name=a.name)
        return Ref(bv=BV(np.asarray(np_dtype(a.type)(a.value)), 0))

    def refs(self, xs) -> Tuple[Ref, ...]:
        return tuple(self.ref(a) for a in xs)

    def int_ref(self, a: Atom, what: str) -> IntRef:
        n = self.static_int(a)
        if n is not None:
            return IntRef(const=n, what=what)
        return IntRef(ref=self.ref(a), what=what)

    def pslots(self, params) -> Tuple[Tuple[int, str], ...]:
        return tuple((self.slot(p.name), p.name) for p in params)

    def outs_of(self, stm: Stm, expected: int) -> Tuple[Tuple[int, str], ...]:
        if len(stm.pat) != expected:
            raise ExecError(
                f"statement binds {len(stm.pat)} vars, got {expected}"
            )
        return tuple((self.slot(v.name), v.name) for v in stm.pat)

    def out_of(self, stm: Stm) -> Tuple[int, str]:
        if len(stm.pat) != 1:
            raise ExecError("statement binds multiple vars, got 1 value")
        v = stm.pat[0]
        return (self.slot(v.name), v.name)

    # -- bodies ---------------------------------------------------------------

    def lower_body(self, body: Body) -> PBody:
        stms = body.stms
        n = len(stms)
        # Find the fusible runs first, then compute each run's live-after
        # set with ONE backward free-vars sweep over the body (walking the
        # whole tail per run would make lowering quadratic in body size).
        spans = []
        i = 0
        while i < n:
            if isinstance(stms[i].exp, _RUN_FUSIBLE) and len(stms[i].pat) == 1:
                j = i
                while (
                    j < n
                    and isinstance(stms[j].exp, _RUN_FUSIBLE)
                    and len(stms[j].pat) == 1
                ):
                    j += 1
                if j - i >= 2:
                    spans.append((i, j))
                    i = j
                    continue
            i += 1
        used_after_at = {}
        if spans:
            ends = {j for _, j in spans}
            live = {a.name for a in body.result if isinstance(a, Var)}
            if n in ends:
                used_after_at[n] = frozenset(live)
            for k in range(n - 1, -1, -1):
                live.update(free_vars_exp(stms[k].exp))
                if k in ends:
                    used_after_at[k] = frozenset(live)
        instrs: List[_Instr] = []
        span_at = {i: j for i, j in spans}
        i = 0
        while i < n:
            j = span_at.get(i)
            if j is not None:
                ins = self._lower_run(stms[i:j], used_after_at[j])
                ins.prov = tuple(stms[i:j])
                instrs.append(ins)
                self.fused += j - i
                i = j
                continue
            ins = self._lower_stm(stms[i])
            ins.prov = (stms[i],)
            e = stms[i].exp
            if isinstance(e, _SCHEDULABLE):
                ins.schedule = _schedule_str(e)
            instrs.append(ins)
            i += 1
        return PBody(tuple(instrs), self.refs(body.result))

    # -- fused scalar runs ----------------------------------------------------

    def _run_operand(self, a: Atom, local_of: Dict[str, int]):
        if isinstance(a, Var) and a.name in local_of:
            return local_of[a.name]
        return self.ref(a)

    def _lower_run_exp(self, e: Exp, local_of: Dict[str, int]) -> RunOp:
        rd = lambda a: self._run_operand(a, local_of)  # noqa: E731
        if isinstance(e, AtomExp):
            return RunOp("atom", (rd(e.x),))
        if isinstance(e, UnOp):
            return RunOp("unop", (rd(e.x),), op=e.op)
        if isinstance(e, BinOp):
            return RunOp("binop", (rd(e.x), rd(e.y)), op=e.op)
        if isinstance(e, Select):
            return RunOp("select", (rd(e.c), rd(e.t), rd(e.f)))
        if isinstance(e, Cast):
            return RunOp("cast", (rd(e.x),), dtype=np_dtype(e.to))
        if isinstance(e, Index):
            return RunOp("index", (rd(e.arr),) + tuple(rd(i) for i in e.idx))
        if isinstance(e, ZerosLike):
            return RunOp("zeroslike", (rd(e.x),))
        raise ExecError(f"plan run lower: unexpected {type(e).__name__}")

    def _lower_run(self, run: Sequence[Stm], used_after) -> IRun:
        local_of: Dict[str, int] = {}
        ops = []
        exports = []
        for idx, s in enumerate(run):
            ops.append(self._lower_run_exp(s.exp, local_of))
            name = s.pat[0].name
            local_of[name] = idx
            if name in used_after:
                exports.append((idx, self.slot(name), name))
        return IRun(tuple(ops), tuple(exports))

    # -- statements -----------------------------------------------------------

    def _lower_stm(self, stm: Stm) -> _Instr:
        e = stm.exp
        if isinstance(e, _RUN_FUSIBLE):
            # A standalone scalar statement is a fused run of length 1 with
            # one export (shared scalar handlers in the emitter).
            op = self._lower_run_exp(e, {})
            out = self.out_of(stm)
            return IRun((op,), ((0,) + out,))
        if isinstance(e, Update):
            return IUpdate(self.ref(e.arr), self.refs(e.idx), self.ref(e.val),
                           self.out_of(stm))
        if isinstance(e, Iota):
            dt = np_dtype(e.elem)
            if self.static is not None:
                n = self.static_int(e.n)
                if n is not None and 0 <= n <= _IOTA_PREBUILD_MAX:
                    # Specialised lowering: the array is a compile-time
                    # constant.  Emitters hand out a fresh copy per call
                    # (memcpy, no extent resolution or arange fill) — unlike
                    # the shared scalar Const BVs, an array could escape as
                    # a function result, and a caller mutating it must not
                    # corrupt the cached plan.
                    return IIota(IntRef(const=n, what="iota length"), dt,
                                 np.arange(n, dtype=dt), self.out_of(stm))
            return IIota(self.int_ref(e.n, "iota length"), dt, None,
                         self.out_of(stm))
        if isinstance(e, Replicate):
            return IReplicate(self.int_ref(e.n, "replicate count"),
                              self.ref(e.v), self.out_of(stm))
        if isinstance(e, ScratchLike):
            return IScratch(self.ref(e.n), self.ref(e.x), self.out_of(stm))
        if isinstance(e, Size):
            if self.static is not None:
                s = self.static.shape(e.arr.name)
                if s is not None and -len(s) <= e.dim < len(s):
                    # Specialised lowering: the extent is determined by the
                    # signature — no register read, no pshape() walk.
                    self.folds += 1
                    bv = BV(np.asarray(np.int64(s[e.dim])), 0)
                    return ISize(None, e.dim, bv, self.out_of(stm))
            return ISize(self.ref(e.arr), e.dim, None, self.out_of(stm))
        if isinstance(e, Reverse):
            return IReverse(self.ref(e.x), self.out_of(stm))
        if isinstance(e, Concat):
            return IConcat(self.ref(e.x), self.ref(e.y), self.out_of(stm))
        if isinstance(e, Map):
            return self._lower_map(e, stm)
        if isinstance(e, Reduce):
            return self._lower_reduce(e, stm)
        if isinstance(e, Scan):
            return self._lower_scan(e, stm)
        if isinstance(e, ReduceByIndex):
            return self._lower_hist(e, stm)
        if isinstance(e, Scatter):
            return IScatter(self.ref(e.dest), self.ref(e.inds),
                            self.ref(e.vals), self.out_of(stm))
        if isinstance(e, Loop):
            return ILoop(
                self.ref(e.n), self.refs(e.inits),
                (self.slot(e.ivar.name), e.ivar.name),
                self.pslots(e.params), self.lower_body(e.body),
                self.outs_of(stm, len(e.params)),
            )
        if isinstance(e, WhileLoop):
            return IWhile(
                self.refs(e.inits),
                self.pslots(e.cond.params), self.lower_body(e.cond.body),
                self.pslots(e.params), self.lower_body(e.body),
                self.outs_of(stm, len(e.params)),
            )
        if isinstance(e, If):
            if len(e.then.result) != len(e.els.result):
                raise ExecError("if: branch result arity mismatch")
            return IIf(self.ref(e.cond), self.lower_body(e.then),
                       self.lower_body(e.els),
                       self.outs_of(stm, len(e.then.result)))
        if isinstance(e, WithAcc):
            return IWithAcc(
                self.refs(e.arrs), self.pslots(e.lam.params),
                self.lower_body(e.lam.body), len(e.arrs),
                self.outs_of(stm, len(e.lam.body.result)),
            )
        if isinstance(e, UpdAcc):
            return IUpdAcc(self.ref(e.acc), self.refs(e.idx), self.ref(e.v),
                           self.out_of(stm))
        raise ExecError(f"plan lower: unknown expression {type(e).__name__}")

    # -- SOACs ----------------------------------------------------------------

    def _lower_map(self, e: Map, stm: Stm) -> IMap:
        chunk = 0
        if not e.accs:
            from ..ir.schedule import Sequential

            chunk = next(
                (d.chunk for d in e.schedule
                 if isinstance(d, Sequential) and d.chunk > 1), 0,
            )
        return IMap(
            self.refs(e.arrs), self.refs(e.accs), self.pslots(e.lam.params),
            self.lower_body(e.lam.body), len(e.accs),
            self.outs_of(stm, len(e.lam.body.result)),
            chunk=chunk,
        )

    def _lower_map_part(self, mlam: Lambda):
        return self.pslots(mlam.params), self.lower_body(mlam.body)

    def _lower_reduce(self, e: Reduce, stm: Stm) -> IReduce:
        arrs = self.refs(e.arrs)
        nes = self.refs(e.nes)
        outs = self.outs_of(stm, len(e.nes))
        op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
        if op is not None:
            return IReduce(
                "ufunc", arrs, nes, outs, op=op,
                fold=not ne_is_identity(op, e.nes[0]),
                ext=self.static_extent(e.arrs),
            )
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is not None:
            # Fused (redomap-shaped) operator: bulk-map the element function,
            # then reduce with the ufunc — fusion keeps the fast path.
            mop, mlam = rm
            ext = self.static_extent(e.arrs)
            mparams, mbody = self._lower_map_part(mlam)
            return IReduce(
                "redomap", arrs, nes, outs, op=mop,
                fold=not ne_is_identity(mop, e.nes[0]), ext=ext,
                mparams=mparams, mbody=mbody,
            )
        return IReduce(
            "generic", arrs, nes, outs,
            params=self.pslots(e.lam.params), body=self.lower_body(e.lam.body),
        )

    def _lower_scan(self, e: Scan, stm: Stm) -> IScan:
        arrs = self.refs(e.arrs)
        nes = self.refs(e.nes)
        outs = self.outs_of(stm, len(e.nes))
        op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
        if op is not None:
            return IScan(
                "ufunc", arrs, nes, outs, op=op,
                fold=not ne_is_identity(op, e.nes[0]),
            )
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is not None:
            mop, mlam = rm
            ext = self.static_extent(e.arrs)
            mparams, mbody = self._lower_map_part(mlam)
            return IScan(
                "redomap", arrs, nes, outs, op=mop,
                fold=not ne_is_identity(mop, e.nes[0]), ext=ext,
                mparams=mparams, mbody=mbody,
            )
        return IScan(
            "generic", arrs, nes, outs,
            params=self.pslots(e.lam.params), body=self.lower_body(e.lam.body),
        )

    def _lower_hist(self, e: ReduceByIndex, stm: Stm) -> IHist:
        num_bins = self.int_ref(e.num_bins, "histogram size")
        arrs = self.refs((e.inds,) + e.vals)
        nes = self.refs(e.nes)
        outs = self.outs_of(stm, len(e.nes))
        op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
        if op is not None:
            return IHist(num_bins, arrs, nes, "ufunc", outs, op=op)
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is not None:
            mop, mlam = rm
            mparams, mbody = self._lower_map_part(mlam)
            return IHist(num_bins, arrs, nes, "redomap", outs, op=mop,
                         mparams=mparams, mbody=mbody)
        return IHist(
            num_bins, arrs, nes, "generic", outs,
            params=self.pslots(e.lam.params), body=self.lower_body(e.lam.body),
        )


def lower_fun(fun: Fun, static: Optional[StaticInfo] = None) -> PlanIR:
    """Lower ``fun`` to plan IR — shape-generic with ``static=None``, else
    specialised to the signature's static facts (bitwise-equal results)."""
    with _tracing.span("lower", cat="compile", fun=fun.name, specialized=static is not None):
        lo = _Lowerer(static)
        param_slots = tuple(lo.slot(p.name) for p in fun.params)
        param_types = tuple(p.type for p in fun.params)
        body = lo.lower_body(fun.body)
        ir = PlanIR(fun, param_slots, param_types, body, len(lo.slots),
                    lo.fused, lo.folds, static is not None)
    # Layer-2 verification happens here, once per lowering — cached plans
    # (exec/plan.py) reuse the verified PlanIR and never re-check.
    from .verify_plan import maybe_verify_plan_ir

    return maybe_verify_plan_ir(ir)


def spec_signature(args: Sequence[object], batched=None):
    """The ``(payload shapes, batched flags)`` pair a specialised lowering is
    valid for (the batch axis of flagged args is stripped — static facts
    describe payload shapes)."""
    flags = tuple(bool(f) for f in batched) if batched is not None else (False,) * len(args)
    shapes = []
    for a, f in zip(args, flags):
        s = np.asarray(a).shape
        shapes.append(tuple(s[1:]) if f else tuple(s))
    return tuple(shapes), flags


def lower_specialized(fun: Fun, args: Sequence[object], batched=None):
    """Lower ``fun`` specialised to ``args``' concrete shapes; returns
    ``(PlanIR, spec_sig)``."""
    shapes, flags = spec_signature(args, batched)
    return (
        lower_fun(fun, static=infer_static_shapes(fun, list(shapes))),
        (shapes, flags),
    )


def check_spec_sig(fun_name: str, spec_sig, args: Sequence[object], batched) -> None:
    """Reject arguments outside a specialised plan's signature loudly —
    constants folded for one signature are wrong for every other."""
    if spec_sig is None:
        return
    exp_shapes, exp_flags = spec_sig
    flags = tuple(batched) if batched is not None else (False,) * len(args)
    if flags != exp_flags:
        raise ExecError(
            f"{fun_name}: plan specialised for batched flags "
            f"{exp_flags}, called with {flags}"
        )
    for i, (a, f, exp) in enumerate(zip(args, flags, exp_shapes)):
        s = np.asarray(a).shape
        if f:
            s = s[1:]
        if tuple(s) != exp:
            raise ExecError(
                f"{fun_name}: plan specialised for argument {i} "
                f"payload shape {exp}, got {tuple(s)}"
            )
