"""Layer-2 static verifier: plan-IR well-formedness and codegen sanity.

The plan compiler (``exec/lower.py``) flattens SSA names onto a single slot
space; the emitter (``exec/codegen.py``) relies on a set of structural
invariants this module checks once per lowering:

* **slot def-before-use** — every ``Ref``/``IntRef`` read is dominated by a
  write to its slot (function parameter, loop/lambda parameter binding,
  instruction output, or fused-run export).  Values defined inside a nested
  body never leak into the enclosing scope's defined set: inner temporaries
  are dead after the instruction completes;
* **static single-assignment of slots** — each slot has exactly one static
  writer site (a ``WhileLoop``'s condition parameters alias the loop
  parameters by construction and count as one);
* **fused-run integrity** — run-local integer operands only reference
  earlier ops in the same run, and only the declared ``exports`` escape to
  slots;
* **structural arities** — loop bodies return one value per loop parameter,
  ``if`` branches agree with the instruction's outputs, the while condition
  returns a single value.

``verify_codegen_source`` checks the emitter's output: the generated module
must parse (``ast.parse``) and must not reference any free name beyond its
namespace (the runtime helpers and ``_K{i}`` constants) and a small builtin
allowlist, so a stray global load means the emitter produced a dangling
reference.

Both are gated on ``REPRO_VERIFY`` (see ``ir/verify.py``) and run at
*compile* time only — cached-plan reuse never re-verifies (the ``verify``
section of ``plan_cache_stats()`` counts checks per lowering).
"""
from __future__ import annotations

import ast as _pyast
import dis
from typing import Optional, Set

from ..ir.verify import VERIFY_STATS, VerifyError, verify_mode
from ..obs import tracing as _tracing
from .lower import (
    IIf,
    ILoop,
    IMap,
    IntRef,
    IReduce,
    IRun,
    IWhile,
    IWithAcc,
    PBody,
    PlanIR,
    Ref,
)

__all__ = ["verify_plan_ir", "maybe_verify_plan_ir", "verify_codegen_source"]


def _stm_of(instr) -> Optional[object]:
    prov = getattr(instr, "prov", ())
    return prov[0] if prov else None


class _PlanChecker:
    def __init__(self, ir: PlanIR, where: str):
        self.ir = ir
        self.where = where

    def fail(self, msg: str, instr=None) -> None:
        raise VerifyError(f"plan IR: {msg}", self.where, _stm_of(instr))

    # -- write/read primitives ---------------------------------------------

    def write(self, slot: int, name: str, defined: Set[int], instr=None) -> None:
        if not (0 <= slot < self.ir.nslots):
            self.fail(f"slot {slot} ({name!r}) outside register space", instr)
        # Slot SSA along every execution path: a live slot is never
        # re-assigned (sibling scopes may reuse a slot — the earlier value
        # is dead by then — mirroring the name-reuse the Fun verifier
        # accepts across sibling lambdas).
        if slot in defined:
            self.fail(
                f"slot {slot} ({name!r}) assigned twice along one "
                f"execution path (slot SSA violation)",
                instr,
            )
        defined.add(slot)

    def read(self, r, defined: Set[int], instr=None, what: str = "") -> None:
        if r is None:
            return
        if isinstance(r, IntRef):
            if r.const is None:
                self.read(r.ref, defined, instr, what or r.what)
            return
        if isinstance(r, Ref) and r.slot is not None:
            if r.slot not in defined:
                self.fail(
                    f"read of undefined slot {r.slot} ({r.name or what!r})",
                    instr,
                )

    def reads(self, refs, defined: Set[int], instr=None) -> None:
        for r in refs or ():
            self.read(r, defined, instr)

    def bind_params(self, pslots, defined: Set[int], instr) -> None:
        for slot, name in pslots or ():
            self.write(slot, name, defined, instr)

    # -- bodies -------------------------------------------------------------

    def check_body(self, body: PBody, defined: Set[int]) -> None:
        for instr in body.instrs:
            self.check_instr(instr, defined)
        self.reads(body.result, defined)

    def check_instr(self, instr, defined: Set[int]) -> None:
        kind = instr.kind
        if isinstance(instr, IRun):
            for pos, op in enumerate(instr.ops):
                for x in op.xs:
                    if isinstance(x, int):
                        if not (0 <= x < pos):
                            self.fail(
                                f"run op {pos} references run-local value "
                                f"{x} not computed earlier in the run",
                                instr,
                            )
                    else:
                        self.read(x, defined, instr)
            for idx, slot, name in instr.exports:
                if not (0 <= idx < len(instr.ops)):
                    self.fail(
                        f"run export {name!r} references op {idx} outside "
                        f"the run",
                        instr,
                    )
                self.write(slot, name, defined, instr)
        elif kind == "update":
            self.read(instr.arr, defined, instr)
            self.reads(instr.idx, defined, instr)
            self.read(instr.val, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "iota":
            self.read(instr.n, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "replicate":
            self.read(instr.n, defined, instr)
            self.read(instr.v, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "scratch":
            self.read(instr.n, defined, instr)
            self.read(instr.x, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "size":
            self.read(instr.arr, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "reverse":
            self.read(instr.x, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "concat":
            self.read(instr.x, defined, instr)
            self.read(instr.y, defined, instr)
            self.write(*instr.out, defined, instr)
        elif isinstance(instr, IMap):
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.accs, defined, instr)
            inner = set(defined)
            self.bind_params(instr.params, inner, instr)
            self.check_body(instr.body, inner)
            if len(instr.outs) != len(instr.body.result):
                self.fail(
                    f"map binds {len(instr.outs)} outputs for "
                    f"{len(instr.body.result)} lambda results",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IReduce):  # also IScan (subclass)
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.nes, defined, instr)
            self._check_operator_part(instr, defined)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif kind == "hist":
            self.read(instr.num_bins, defined, instr)
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.nes, defined, instr)
            self._check_operator_part(instr, defined)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif kind == "scatter":
            self.read(instr.dest, defined, instr)
            self.read(instr.inds, defined, instr)
            self.read(instr.vals, defined, instr)
            self.write(*instr.out, defined, instr)
        elif isinstance(instr, ILoop):
            self.read(instr.n, defined, instr)
            self.reads(instr.inits, defined, instr)
            if len(instr.inits) != len(instr.params):
                self.fail(
                    f"loop has {len(instr.inits)} inits for "
                    f"{len(instr.params)} parameters",
                    instr,
                )
            inner = set(defined)
            self.bind_params(instr.params, inner, instr)
            self.write(*instr.ivar, inner, instr)
            self.check_body(instr.body, inner)
            if len(instr.body.result) != len(instr.params):
                self.fail(
                    f"loop body returns {len(instr.body.result)} values "
                    f"for {len(instr.params)} carried parameters",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IWhile):
            self.reads(instr.inits, defined, instr)
            inner = set(defined)
            pset = {slot for slot, _ in instr.params}
            self.bind_params(instr.params, inner, instr)
            for slot, name in instr.cparams:
                # Condition params alias the loop params by construction;
                # a disjoint condition binder is its own write site.
                if slot not in pset:
                    self.write(slot, name, inner, instr)
            self.check_body(instr.cbody, inner)
            if len(instr.cbody.result) != 1:
                self.fail(
                    f"while condition returns {len(instr.cbody.result)} "
                    f"values (expected 1)",
                    instr,
                )
            self.check_body(instr.body, inner)
            if len(instr.body.result) != len(instr.params):
                self.fail(
                    f"while body returns {len(instr.body.result)} values "
                    f"for {len(instr.params)} carried parameters",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IIf):
            self.read(instr.cond, defined, instr)
            then_scope = set(defined)
            self.check_body(instr.then, then_scope)
            els_scope = set(defined)
            self.check_body(instr.els, els_scope)
            if len(instr.then.result) != len(instr.outs) or len(
                instr.els.result
            ) != len(instr.outs):
                self.fail(
                    f"if branches return "
                    f"{len(instr.then.result)}/{len(instr.els.result)} "
                    f"values for {len(instr.outs)} outputs",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IWithAcc):
            self.reads(instr.arrs, defined, instr)
            inner = set(defined)
            self.bind_params(instr.params, inner, instr)
            self.check_body(instr.body, inner)
            if len(instr.outs) != len(instr.body.result):
                self.fail(
                    f"withacc binds {len(instr.outs)} outputs for "
                    f"{len(instr.body.result)} lambda results",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif kind == "updacc":
            self.read(instr.acc, defined, instr)
            self.reads(instr.idx, defined, instr)
            self.read(instr.v, defined, instr)
            self.write(*instr.out, defined, instr)
        else:  # pragma: no cover - exhaustiveness guard
            self.fail(f"unknown instruction kind {kind!r}", instr)

    def _check_operator_part(self, instr, defined: Set[int]) -> None:
        """The fused map part / generic lambda of a reduce/scan/hist."""
        if instr.mparams is not None or instr.mbody is not None:
            inner = set(defined)
            self.bind_params(instr.mparams, inner, instr)
            self.check_body(instr.mbody, inner)
        if instr.params is not None or instr.body is not None:
            inner = set(defined)
            self.bind_params(instr.params, inner, instr)
            self.check_body(instr.body, inner)


def verify_plan_ir(ir: PlanIR, where: str = "lower") -> PlanIR:
    """Check the plan-IR invariants; returns ``ir`` unchanged on success."""
    with _tracing.span(
        "verify", cat="verify", fun=ir.fun.name, where=where, layer="plan"
    ):
        VERIFY_STATS["plan_checks"] += 1
        try:
            ck = _PlanChecker(ir, where)
            defined: Set[int] = set()
            seen_params: Set[int] = set()
            for slot, p in zip(ir.param_slots, ir.fun.params):
                if slot in seen_params:
                    ck.fail(f"parameter slot {slot} ({p.name!r}) duplicated")
                seen_params.add(slot)
                ck.write(slot, p.name, defined)
            ck.check_body(ir.body, defined)
        except VerifyError:
            VERIFY_STATS["failures"] += 1
            raise
    return ir


def maybe_verify_plan_ir(ir: PlanIR, where: str = "lower") -> PlanIR:
    """``verify_plan_ir`` gated on ``REPRO_VERIFY`` (the lowering hook)."""
    if verify_mode() == "off":
        return ir
    return verify_plan_ir(ir, where=where)


# ---------------------------------------------------------------------------
# Codegen source sanity
# ---------------------------------------------------------------------------

#: Builtins the rendered source may reference as globals.  Everything else
#: must arrive through the injected keyword-only defaults of ``_plan_main``.
_SAFE_BUILTINS = frozenset(
    {
        "range",
        "len",
        "int",
        "float",
        "bool",
        "min",
        "max",
        "abs",
        "slice",
        "tuple",
        "list",
        "zip",
        "enumerate",
        "isinstance",
        "Exception",
        "RuntimeError",
        "ValueError",
    }
)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def verify_codegen_source(
    fun_name: str, source: str, namespace, where: str = "codegen"
) -> None:
    """Check a rendered codegen module: parses, and no dangling free names."""
    with _tracing.span(
        "verify", cat="verify", fun=fun_name, where=where, layer="codegen"
    ):
        VERIFY_STATS["codegen_checks"] += 1
        try:
            _pyast.parse(source)
        except SyntaxError as err:
            VERIFY_STATS["failures"] += 1
            raise VerifyError(
                f"generated source for {fun_name!r} does not parse: {err}",
                where=where,
            ) from err
        allowed = set(namespace) | _SAFE_BUILTINS
        code = compile(source, f"<verify:{fun_name}>", "exec")
        for co in _code_objects(code):
            for ins in dis.get_instructions(co):
                if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                    if ins.argval not in allowed:
                        VERIFY_STATS["failures"] += 1
                        raise VerifyError(
                            f"generated source for {fun_name!r} references "
                            f"free name {ins.argval!r} outside the injected "
                            f"namespace",
                            where=where,
                        )


def maybe_verify_codegen_source(fun_name: str, source: str, namespace) -> None:
    """``verify_codegen_source`` gated on ``REPRO_VERIFY``."""
    if verify_mode() == "off":
        return
    verify_codegen_source(fun_name, source, namespace)
