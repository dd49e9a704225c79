"""Plan IR → Python source: the plan backend's emitter.

``render`` turns a lowered program (``exec/lower.py``) into the source of
one function, ``_plan_main(eng, *params)``, that ``Plan`` (``exec/plan.py``)
compiles once and calls per evaluation:

* register slots become locals (``s12``);
* control flow — map/redomap lambda bodies, generic folds, loops, ``while``
  and ``if`` — is rendered inline as real Python, so there is no dispatch
  per instruction; ``if`` branches become nested ``def``s, emitted once
  and called by the masked and unmasked paths alike;
* fused scalar runs become straight-line expressions: a value used once is
  inlined into its consumer, any other run temporary is deleted after its
  last use, so dead intermediates are freed as soon as NumPy would free
  them in a hand-written chain;
* every other instruction is one call to its helper in ``exec/vector.py``
  (the SOAC entries/exits, hist, scatter, update, the accumulator ops...),
  which keeps the source — and so ``compile()`` — small;
* ufuncs, dtypes, prebuilt iotas and constant ``BV``s are injected as
  ``_K{i}`` globals.

Soundness of the flat local-variable space: SSA names are globally unique
per program, so no two slots alias one local; branch ``def``s only assign
names bound inside that branch and close over earlier locals by reference.
Reading a genuinely unbound variable raises ``NameError`` — valid scoped
programs never do this.

Rendered source pickles where code objects do not, so process-mode shard
workers rebuild plans from ``codegen_payload`` (``ShippedCodegenPlan``).
Set ``REPRO_CODEGEN_DUMP=<dir>`` to write every generated source file to
``<dir>`` for debugging.
"""
from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..ir.analysis import ir_hash
from ..ir.ast import Fun
from ..obs import tracing as _obs_tracing
from ..util import ExecError
from . import vector as _rt
from .lower import IntRef, PlanIR, Ref
from .lower import lower_fun  # noqa: F401  (perfbench/spans.py wraps it here too)
from .plan import _LOCK, _PAYLOADS, Plan, _specialized_build
from .plan import plan_for  # noqa: F401  (perfbench/spans.py wraps it here too)
from .prims import _BINOPS, _UNOPS
from .vector import _UFUNC

__all__ = [
    "render",
    "CodegenPlan",
    "compile_codegen",
    "codegen_payload",
    "ShippedCodegenPlan",
]


#: Names every generated function can rely on: NumPy, the value types and
#: the instruction runtime of ``exec/vector.py`` (one helper per non-inline
#: instruction kind — the same code every plan runs).
_RUNTIME = (
    "BV", "_elem", "_where", "_gather", "_cast", "_zeros_like", "_uniform_int",
    "_update", "_replicate", "_scratch", "_size", "_reverse", "_concat",
    "_args", "_enter", "_payload", "_map_exit", "_map_chunked", "_take",
    "_reduce_uf", "_reduce_exit", "_reduce_exit_empty", "_scan_uf",
    "_scan_exit", "_scan_exit_empty", "_scan_push", "_scan_stack",
    "_hist_args", "_hist_enter", "_hist_exit", "_hist_uf", "_hist_init",
    "_hist_cur", "_hist_put", "_scatter", "_if", "_Lanes", "_While",
    "_withacc_in", "_withacc_out", "_updacc",
)
_BASE_NAMESPACE = {"np": np, **{nm: getattr(_rt, nm) for nm in _RUNTIME}}

#: Deepest nesting of inlined single-use run values in one expression
#: (well inside the parser's nesting limit).
_MAX_INLINE_DEPTH = 12


def _tgt(names: Sequence[str]) -> str:
    """An assignment target unpacking exactly ``names``."""
    return names[0] + "," if len(names) == 1 else ", ".join(names)


def _tup(items: Sequence[str]) -> str:
    """A tuple display of ``items``."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _SrcEmitter:
    """Renders one ``PlanIR`` to Python source plus the constants it uses.

    Slots print as ``s{n}`` locals, injected Python objects as ``_K{n}``
    constants, temporaries as ``_<prefix>{n}`` (the counter is global to the
    program, so a nested ``def`` never shadows an enclosing name).  With
    ``profile`` set, each top-level instruction ``i`` is bracketed by
    ``_pt = _clock()`` and ``_prof(i, _pt)``."""

    def __init__(self, profile: bool = False) -> None:
        self.lines: List[str] = []
        self.level = 1
        self.n = 0
        self.consts: List[object] = []
        self._const_names: Dict[int, str] = {}
        self.profile = profile

    # -- infrastructure -------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def fresh(self, prefix: str = "t") -> str:
        self.n += 1
        return f"_{prefix}{self.n}"

    def const(self, obj) -> str:
        # Uppercase prefix: fresh() temporaries are all lowercase, so an
        # injected constant can never be shadowed by a generated local.
        nm = self._const_names.get(id(obj))
        if nm is None:
            nm = f"_K{len(self.consts)}"
            self._const_names[id(obj)] = nm
            self.consts.append(obj)
        return nm

    def ref(self, r: Ref) -> str:
        if r.slot is not None:
            return f"s{r.slot}"
        return self.const(r.bv)

    def refs(self, rs) -> str:
        return ", ".join(self.ref(r) for r in rs)

    def int_expr(self, iref: IntRef) -> str:
        if iref.const is not None:
            return repr(int(iref.const))
        return f"_uniform_int({self.ref(iref.ref)}, {iref.what!r})"

    def bind(self, params, src: str, count: int) -> None:
        """Bind lambda params (``(slot, name)`` pairs) from the ``count``
        values of sequence expression ``src``, zip-style."""
        slots = [f"s{s}" for s, _ in params]
        if len(slots) == count and slots:
            self.w(f"{_tgt(slots)} = {src}")
        else:
            for j, s in enumerate(slots[:count]):
                self.w(f"{s} = {src}[{j}]")

    def assign(self, outs, value: str) -> None:
        """Unpack the sequence ``value`` into ``outs`` (``(slot, name)``
        pairs); with no outs, just evaluate it."""
        if outs:
            self.w(f"{_tgt([f's{s}' for s, _ in outs])} = {value}")
        else:
            self.w(value)

    def move(self, targets: Sequence[str], exprs: Sequence[str]) -> None:
        """Slot moves: ``targets = exprs``, simultaneously."""
        if targets:
            self.w(f"{', '.join(targets)} = {', '.join(exprs)}")

    # -- bodies ---------------------------------------------------------------

    def emit_body(self, pbody, top: bool = False) -> Tuple[str, ...]:
        """Emit a lowered body at the current indent; returns the names of
        its results."""
        for i, ins in enumerate(pbody.instrs):
            if top and self.profile:
                self.w("_pt = _clock()")
            getattr(self, "_emit_" + ins.kind)(ins)
            if top and self.profile:
                self.w(f"_prof({i}, _pt)")
        return tuple(self.ref(r) for r in pbody.result)

    # -- fused scalar runs ----------------------------------------------------

    def _run_expr(self, o, opn) -> str:
        k = o.kind
        xs = [opn(x) for x in o.xs]
        if k == "atom":
            return xs[0]
        if k == "unop":
            try:
                uf = _UNOPS[o.op]
            except KeyError:
                raise ExecError(f"unknown unary op {o.op!r}") from None
            return f"_elem({self.const(uf)}, {xs[0]})"
        if k == "binop":
            try:
                uf = _BINOPS[o.op]
            except KeyError:
                raise ExecError(f"unknown binary op {o.op!r}") from None
            return f"_elem({self.const(uf)}, {xs[0]}, {xs[1]})"
        if k == "select":
            return f"_where({xs[0]}, {xs[1]}, {xs[2]})"
        if k == "cast":
            return f"_cast({xs[0]}, {self.const(o.dtype)})"
        if k == "index":
            return f"_gather({xs[0]}, [{', '.join(xs[1:])}])"
        if k == "zeroslike":
            return f"_zeros_like({xs[0]})"
        raise ExecError(f"codegen: unexpected run op {k!r}")

    def _emit_run(self, ins) -> None:
        """A fused run as straight-line code.  A value used once is inlined
        into its consumer; any other run-local value gets a temporary that
        is deleted after the line holding its last use, so dead
        intermediates are freed as early as in a hand-written NumPy
        chain (run ops are pure, so inlining cannot change a result)."""
        ops = ins.ops
        exported = {li: s for li, s, _n in ins.exports}
        uses = [0] * len(ops)
        for o in ops:
            for x in o.xs:
                if isinstance(x, int):
                    uses[x] += 1
        pending: Dict[int, Tuple[str, int, List[str]]] = {}
        names: Dict[int, str] = {}
        left: Dict[str, int] = {}  # temporary -> uses not yet emitted
        for i, o in enumerate(ops):
            depth, temps = 0, []

            def opn(x):
                nonlocal depth
                if not isinstance(x, int):
                    return self.ref(x)
                if x in pending:
                    e, dx, tx = pending.pop(x)
                    depth = max(depth, dx)
                    temps.extend(tx)
                    return e
                if names[x] in left:
                    temps.append(names[x])
                return names[x]

            e = self._run_expr(o, opn)
            if i not in exported and uses[i] == 1 and depth < _MAX_INLINE_DEPTH:
                pending[i] = (e, depth + 1, temps)
                continue
            if i in exported:
                names[i] = f"s{exported[i]}"
                self.w(f"{names[i]} = {e}")
            elif uses[i]:
                names[i] = self.fresh()
                self.w(f"{names[i]} = {e}")
                left[names[i]] = uses[i]
            else:
                self.w(e)
            dead = []
            for t in temps:
                left[t] -= 1
                if not left[t]:
                    del left[t]
                    dead.append(t)
            if dead:
                self.w(f"del {', '.join(dead)}")

    # -- simple expressions ---------------------------------------------------

    def _emit_update(self, e) -> None:
        self.w(f"s{e.out[0]} = _update(eng, {self.ref(e.arr)}, "
               f"[{self.refs(e.idx)}], {self.ref(e.val)})")

    def _emit_iota(self, e) -> None:
        if e.prebuilt is not None:
            self.w(f"s{e.out[0]} = BV({self.const(e.prebuilt)}.copy(), 0)")
            return
        self.w(f"s{e.out[0]} = BV(np.arange({self.int_expr(e.n)}, "
               f"dtype={self.const(e.dtype)}), 0)")

    def _emit_replicate(self, e) -> None:
        self.w(f"s{e.out[0]} = _replicate({self.int_expr(e.n)}, {self.ref(e.v)})")

    def _emit_scratch(self, e) -> None:
        self.w(f"s{e.out[0]} = _scratch(eng, {self.ref(e.n)}, {self.ref(e.x)})")

    def _emit_size(self, e) -> None:
        if e.const is not None:
            self.w(f"s{e.out[0]} = {self.const(e.const)}")
        else:
            self.w(f"s{e.out[0]} = _size({self.ref(e.arr)}, {e.dim})")

    def _emit_reverse(self, e) -> None:
        self.w(f"s{e.out[0]} = _reverse({self.ref(e.x)})")

    def _emit_concat(self, e) -> None:
        self.w(f"s{e.out[0]} = _concat({self.ref(e.x)}, {self.ref(e.y)})")

    # -- SOACs ------------------------------------------------------------------

    def enter(self, arrs, params, helper: str = "_enter") -> Tuple[str, str, str]:
        """Emit a SOAC entry through ``helper`` (``_enter`` also pushes the
        lambda's batch level), binding ``params`` to the batched arguments;
        returns the names of ``d``, ``n`` and the argument list."""
        d, n, a = self.fresh("d"), self.fresh("n"), self.fresh("a")
        call = f"{helper}(eng, [{self.refs(arrs)}])"
        count = len(arrs)
        if params and len(params) == count:
            self.w(f"{d}, {n}, ({_tgt([f's{s}' for s, _ in params])}) = {call}")
        else:
            self.w(f"{d}, {n}, {a} = {call}")
            self.bind(params, a, count)
        return d, n, a

    def _emit_map(self, e) -> None:
        if e.chunk > 1 and not e.accs and e.n_acc == 0:
            self._emit_map_chunked(e)
            return
        na = len(e.arrs)
        d, n, _a = self.enter(e.arrs, e.params[:na])
        for (slot, _nm), acc in zip(e.params[na:], e.accs):
            self.w(f"s{slot} = {self.ref(acc)}")
        res = self.emit_body(e.body)
        self.assign(e.outs, f"_map_exit(eng, {d}, {n}, {_tup(res)}, {e.n_acc})")

    def _emit_map_chunked(self, e) -> None:
        """A ``sequential(chunk)`` schedule: the body goes into a nested
        ``def`` that ``_map_chunked`` calls per chunk (or once, in bulk,
        where chunking does not apply)."""
        d, n, a = self.enter(e.arrs, (), "_args")
        fn, mv, mn = self.fresh("mapseq"), self.fresh("mv"), self.fresh("mn")
        self.w(f"def {fn}({mv}, {mn}):")
        self.level += 1
        self.bind(e.params, mv, len(e.arrs))
        self.w(f"eng.bstack.append({mn})")
        res = self.emit_body(e.body)
        self.w("eng.bstack.pop()")
        pays = [f"_payload({r}, {d}, {mn})" for r in res[:len(e.outs)]]
        self.w(f"return {_tup(pays)}")
        self.level -= 1
        self.assign(e.outs, f"_map_chunked(eng, {fn}, {a}, {d}, {n}, {e.chunk})")

    def _emit_reduce(self, e) -> None:
        self._emit_fold(e, scan=False)

    def _emit_scan(self, e) -> None:
        self._emit_fold(e, scan=True)

    def _emit_fold(self, e, scan: bool) -> None:
        if e.strategy == "generic":
            self._emit_fold_loop(e, scan)
            return
        out = f"s{e.outs[0][0]}"
        ne, uf = self.ref(e.nes[0]), self.const(_UFUNC[e.op])
        if e.strategy == "ufunc":
            arrs = self.refs(e.arrs)
            if scan:
                self.w(f"{out} = _scan_uf(eng, [{arrs}], {ne}, {uf}, {e.fold})")
            else:
                self.w(f"{out} = _reduce_uf(eng, [{arrs}], {ne}, {uf}, {e.fold}, {e.ext})")
            return
        # redomap: the map part runs inline, the ufunc folds its payload.
        d, n, _a = self.enter(e.arrs, e.mparams)
        if e.ext is not None and e.ext > 0:
            (r,) = self.emit_body(e.mbody)
        else:
            self.w(f"if {n}:")
            self.level += 1
            (r,) = self.emit_body(e.mbody)
        ex = "_scan_exit" if scan else "_reduce_exit"
        self.w(f"{out} = {ex}(eng, {uf}, {r}, {d}, {n}, {ne}, {e.fold})")
        if e.ext is None or e.ext <= 0:
            self.level -= 1
            empty = (f"_scan_exit_empty(eng, {ne})" if scan
                     else f"_reduce_exit_empty(eng, {d}, {ne})")
            self.w("else:")
            self.w(f"    {out} = {empty}")

    def _emit_fold_loop(self, e, scan: bool) -> None:
        """The generic element-at-a-time fold shared by reduce and scan:
        the accumulator lives in the operator's leading params."""
        k = len(e.nes)
        nes = [self.ref(ne) for ne in e.nes]
        d, n, a = self.enter(e.arrs, (), "_args")
        accs = [f"s{s}" for s, _ in e.params[:k]]
        self.move(accs, nes)
        if scan:
            cols = self.fresh("cols")
            self.w(f"{cols} = [[] for _ in range({k})]")
        i = self.fresh("i")
        self.w(f"for {i} in range({n}):")
        self.level += 1
        mark = len(self.lines)
        self.bind(e.params[k:], f"_take({a}, {i}, {d})", len(e.arrs))
        res = self.emit_body(e.body)
        self.move(accs, res)
        if scan:
            self.w(f"_scan_push({cols}, {d}, {_tup(accs)})")
        if len(self.lines) == mark:
            self.w("pass")
        self.level -= 1
        if scan:
            self.assign(e.outs, f"_scan_stack({cols}, {d}, {n}, {_tup(nes)})")
        else:
            self.move([f"s{s}" for s, _ in e.outs], accs)

    def _emit_hist(self, e) -> None:
        m = self.int_expr(e.num_bins)
        arrs = self.refs(e.arrs)
        ne = self.ref(e.nes[0])
        if e.strategy == "ufunc":
            self.w(f"s{e.outs[0][0]} = _hist_uf(eng, {m}, [{arrs}], {ne}, {e.op!r})")
            return
        d, n, hv, a = (self.fresh("d"), self.fresh("n"), self.fresh("hv"),
                       self.fresh("a"))
        nv = len(e.arrs) - 1
        if e.strategy == "redomap":
            self.w(f"{d}, {n}, {hv}, {a} = _hist_enter(eng, {m}, [{arrs}])")
            self.bind(e.mparams, a, nv)
            (r,) = self.emit_body(e.mbody)
            self.w(f"s{e.outs[0][0]} = _hist_exit(eng, {hv}, {r}, {d}, {n}, {ne}, {e.op!r})")
            return
        k = len(e.nes)
        hs, gs, i, sel = (self.fresh("hs"), self.fresh("gs"), self.fresh("i"),
                          self.fresh("sel"))
        self.w(f"{d}, {n}, {hv}, {a} = _hist_args(eng, {m}, [{arrs}])")
        self.w(f"{hs}, {gs} = _hist_init({hv}, {d}, [{self.refs(e.nes)}], {a})")
        self.w(f"for {i} in range({n}):")
        self.level += 1
        cur = [f"s{s}" for s, _ in e.params[:k]]
        self.w(f"{sel}, ({_tgt(cur)}) = _hist_cur({hv}, {hs}, {gs}, {i}, {d})")
        self.bind(e.params[k:], f"_take({a}, {i}, {d})", nv)
        res = self.emit_body(e.body)
        self.w(f"_hist_put({hv}, {hs}, {sel}, {i}, {d}, {_tup(res)})")
        self.level -= 1
        self.assign(e.outs, f"[BV(_h, {d}) for _h in {hs}]")

    def _emit_scatter(self, e) -> None:
        self.w(f"s{e.out[0]} = _scatter(eng, {self.ref(e.dest)}, "
               f"{self.ref(e.inds)}, {self.ref(e.vals)})")

    # -- control flow -------------------------------------------------------------

    def _emit_if(self, e) -> None:
        """Each branch becomes a nested ``def`` (emitted once, called by
        ``_if`` on the scalar fast path and the masked path alike)."""
        bt, bf = self.fresh("brt"), self.fresh("brf")
        for nm, body in ((bt, e.then), (bf, e.els)):
            self.w(f"def {nm}():")
            self.level += 1
            res = self.emit_body(body)
            self.w(f"return {_tup(res)}" if res else "return ()")
            self.level -= 1
        self.assign(e.outs, f"_if(eng, {self.ref(e.cond)}, {bt}, {bf})")

    def _emit_loop(self, e) -> None:
        lp, st, i = self.fresh("lp"), self.fresh("st"), self.fresh("i")
        self.w(f"{lp} = _Lanes(eng, {self.ref(e.n)})")
        self.w(f"{st} = {_tup([self.ref(x) for x in e.inits]) if e.inits else '()'}")
        self.w(f"for {i} in range({lp}.nmax):")
        self.level += 1
        self.w(f"s{e.ivar[0]} = {lp}.begin({i})")
        self.bind(e.params, st, len(e.inits))
        res = self.emit_body(e.body)
        self.w(f"{st} = {lp}.end({i}, {st}, {_tup(res) if res else '()'})")
        self.level -= 1
        self.w(f"eng.mask = {lp}.saved")
        self.assign(e.outs, st)

    def _emit_while(self, e) -> None:
        wl, st, act = self.fresh("wl"), self.fresh("st"), self.fresh("act")
        self.w(f"{st} = {_tup([self.ref(x) for x in e.inits]) if e.inits else '()'}")
        self.w(f"{wl} = _While(eng)")
        self.w("while True:")
        self.level += 1
        self.bind(e.cparams, st, len(e.inits))
        (c,) = self.emit_body(e.cbody)
        self.w(f"{act} = {wl}.active({c})")
        self.w(f"if {act} is None:")
        self.w("    break")
        self.bind(e.params, st, len(e.inits))
        res = self.emit_body(e.body)
        self.w(f"{st} = {wl}.end({act}, {st}, {_tup(res) if res else '()'})")
        self.level -= 1
        self.w(f"eng.mask = {wl}.saved")
        self.assign(e.outs, st)

    # -- accumulators ---------------------------------------------------------------

    def _emit_withacc(self, e) -> None:
        self.bind(e.params, f"_withacc_in(eng, [{self.refs(e.arrs)}])", len(e.arrs))
        res = self.emit_body(e.body)
        for j, (slot, _nm) in enumerate(e.outs):
            if j < e.n_acc:
                self.w(f"s{slot} = _withacc_out({res[j]})")
            else:
                self.w(f"s{slot} = {res[j]}")

    def _emit_updacc(self, e) -> None:
        self.w(f"s{e.out[0]} = _updacc(eng, {self.ref(e.acc)}, {self.ref(e.v)}, "
               f"[{self.refs(e.idx)}])")

    # -- top level ----------------------------------------------------------------

    def render(self, ir: PlanIR) -> str:
        res = self.emit_body(ir.body, top=True)
        self.w(f"return {_tup(res)}" if res else "return ()")
        params = "".join(f", s{s}" for s in ir.param_slots)
        return "\n".join([f"def _plan_main(eng{params}):"] + self.lines) + "\n"


# ---------------------------------------------------------------------------
# Compiling rendered plans
# ---------------------------------------------------------------------------


def render(ir: PlanIR, profile: bool = False) -> Tuple[str, tuple]:
    """``ir`` as the source of ``_plan_main`` plus the ``_K{i}`` constants it
    references.  ``profile`` brackets each top-level instruction ``i`` with
    ``_pt = _clock()`` / ``_prof(i, _pt)`` (the namespace must bind both)."""
    em = _SrcEmitter(profile)
    return em.render(ir), tuple(em.consts)


def namespace(consts) -> Dict[str, object]:
    """The globals of a rendered plan: the runtime plus its constants."""
    ns = dict(_BASE_NAMESPACE)
    for i, obj in enumerate(consts):
        ns[f"_K{i}"] = obj
    return ns


def compile_source(name: str, source: str, ns: Dict[str, object]):
    """Compile rendered source against ``ns``; returns ``_plan_main``."""
    exec(compile(source, f"<plan:{name}>", "exec"), ns)
    return ns["_plan_main"]


_DUMP_SEQ = [0]


def maybe_dump(fun: Fun, specialized: bool, src: str) -> None:
    """Write ``src`` to ``REPRO_CODEGEN_DUMP`` when that knob names a
    directory."""
    path = os.environ.get("REPRO_CODEGEN_DUMP")
    if not path:
        return
    os.makedirs(path, exist_ok=True)
    with _LOCK:
        seq = _DUMP_SEQ[0]
        _DUMP_SEQ[0] += 1
    kind = "spec" if specialized else "generic"
    fname = f"{seq:04d}_{fun.name}_{kind}_{ir_hash(fun)[:12]}.py"
    with open(os.path.join(path, fname), "w") as fh:
        fh.write(f"# {fun.name} ({kind}) ir_hash={ir_hash(fun)}\n")
        fh.write(src)


class CodegenPlan(Plan):
    """``Plan`` under the name this module has always exported.

    ``run`` is restated so the class defines it itself: the benchmark's
    tracer (``perfbench/spans.py``) wraps ``Plan.run`` and
    ``CodegenPlan.run`` separately, and an alias of one class would wrap the
    same method twice and count every call twice."""

    run = Plan.run


def compile_codegen(fun: Fun, args=None, batched=None) -> CodegenPlan:
    """Compile ``fun`` to a fresh (uncached) plan — specialised to ``args``'
    concrete shapes when given, shape-generic otherwise."""
    if args is None:
        return CodegenPlan(fun)
    return _specialized_build(CodegenPlan, fun, args, batched)


# ---------------------------------------------------------------------------
# Shipping plans to process workers
# ---------------------------------------------------------------------------
#
# Code objects don't pickle, but *source* does: a process worker rebuilds a
# plan from ``(name, source, consts, param_types)`` — the injected ``_K{i}``
# constants are ufuncs, dtypes and prebuilt arrays, all picklable for the
# programs the shard executor ships (anything exotic surfaces as a
# PicklingError at submit time and degrades to the thread pool).

_PAYLOADS_CAP = 128


def codegen_payload(fun: Fun) -> Tuple[str, str, tuple, tuple]:
    """``(name, source, consts, param_types)`` of ``fun``'s generic plan, for
    worker-side recompilation (memoised by content hash beside the plan
    cache, and dropped with it)."""
    key = ir_hash(fun)
    with _LOCK:
        payload = _PAYLOADS.get(key)
        if payload is None:
            plan = Plan(fun)
            payload = (fun.name, plan.source, plan.consts, tuple(plan.param_types))
            _PAYLOADS.put(key, payload, _PAYLOADS_CAP)
    return payload


class _ShippedFun:
    """Stand-in for the ``fun`` a shipped plan no longer carries: the run
    methods only read ``.name`` (spans and error messages)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ShippedCodegenPlan(CodegenPlan):
    """A plan rebuilt worker-side from a ``codegen_payload``.

    Skips lowering and rendering — the parent already did both — and just
    compiles the shipped source against the runtime plus the shipped
    constants.  ``run``/``run_batched`` are inherited unchanged, so chunk
    execution is bitwise-identical to the parent's own plans."""

    def __init__(self, payload: Tuple[str, str, tuple, tuple]) -> None:
        name, source, consts, param_types = payload
        with _obs_tracing.timed("compile", cat="compile", fun=name, emitter="plan"):
            self._fn = compile_source(name, source, namespace(consts))
        self.fun = _ShippedFun(name)
        self.specialized = False
        self.spec_sig = None
        self.param_types = tuple(param_types)
        self.fused_stms = 0
        self.spec_folds = 0
        self.source = source
        self.consts = tuple(consts)
        self.schedule_str = ""
