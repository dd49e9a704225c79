"""Compiled-function wrapper: trace → (optimise) → run on a chosen backend.

Backends
--------

Backends are resolved through the pluggable registry
(``exec/registry.py``) — the built-ins:

* ``"ref"`` — the reference interpreter (semantics oracle, drives the cost
  model);
* ``"plan"`` (default) — the plan compiler: the function is lowered once,
  rendered to the source of one Python function of bulk NumPy calls,
  compiled, and memoised per argument shape/dtype signature (see
  ``exec/plan.py`` for cache keying and invalidation), so repeat calls skip
  optimisation and AST dispatch entirely;
* ``"shard"`` — the sharded parallel executor: the dominant data-parallel
  SOAC (or the batch axis of a batched call) is partitioned across a
  persistent worker pool, each chunk running through the cached plan
  backend (``exec/shard.py``; non-shardable programs fall back to plan).

Unknown names raise listing the registered set; custom executors can be
added with ``repro.exec.registry.register_backend``.

``call_batched`` is the batched multi-seed entry used by ``jacobian``: it
evaluates the function once with selected arguments carrying a leading batch
axis (supported on backends with the ``batched`` capability — ``plan``
and ``shard`` — whose batching machinery makes it a single bulk pass).
"""
from __future__ import annotations

from typing import Sequence, Tuple

from ..exec.cost import Cost, CostRecorder
from ..exec.interp import RefInterp
from ..exec.registry import (
    available_backends,
    batched_backends,
    default_backend,
    get_backend,
    record_call,
)
from ..ir.ast import Fun
from ..ir.pretty import pretty
from ..obs import tracing as _obs_tracing
from ..util import ReproError

__all__ = ["Compiled", "compile_fun", "BACKENDS", "BATCHED_BACKENDS"]


def __getattr__(name: str):
    # Live views of the registry, not import-time snapshots — a backend
    # registered after this module loads is visible immediately, so
    # capability checks against these names can never go stale.
    # ``BATCHED_BACKENDS`` lists the backends able to evaluate all seeds of
    # a multi-seed derivative in one batched pass (``ref`` loops instead).
    if name == "BACKENDS":
        return available_backends()
    if name == "BATCHED_BACKENDS":
        return batched_backends()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Compiled:
    """A runnable IR function.

    ``backend=None`` (default) resolves through the registry-level
    ``default_backend()`` — ``REPRO_BACKEND`` or the plan compiler — so
    every entry point in the system shares one default; any registered
    backend name selects that executor explicitly (``ref``, ``plan``,
    ``shard``, or a custom registration).  ``cost()`` measures
    the cost-model counters of a run (reference interpretation).

    ``passes`` selects the optimisation passes applied at construction (a
    sequence of registered pass names — see ``opt.pipeline``); None means
    the default set, overridable via the ``REPRO_OPT_PASSES`` environment
    variable.

    ``schedule`` overrides the cost model's default execution schedule (see
    ``ir.schedule``): a directive string like ``"parallel(2)·vectorized"``
    or a tuple of directive objects, attached *after* optimisation to the
    dominant schedulable statement — illegal schedules raise
    ``ScheduleError`` naming the offending directive.  With no explicit
    ``schedule``, the ``REPRO_SCHEDULE`` environment override (if set) is
    applied leniently to every statement where it is legal.
    """

    def __init__(
        self,
        fun: Fun,
        optimize: bool = True,
        passes: "Sequence[str] | None" = None,
        schedule=None,
    ) -> None:
        if optimize:
            from ..opt.pipeline import optimize_fun

            fun = optimize_fun(fun, passes=passes)
        # Schedules attach after optimisation: the optimiser rebuilds SOAC
        # nodes positionally, which deliberately resets schedule fields.
        if schedule is not None:
            from ..ir.schedule import apply_schedule

            fun = apply_schedule(fun, schedule, strict=True)
        else:
            from ..ir.schedule import apply_env_schedule

            fun = apply_env_schedule(fun)
        # Pass-boundary verification after schedule application — this is
        # the boundary where layer 3 (parallel safety) sees the directives.
        from ..ir.verify import maybe_verify_fun

        self.fun = maybe_verify_fun(fun, where="schedule")

    @property
    def name(self) -> str:
        return self.fun.name

    def __repr__(self) -> str:
        return f"<Compiled {self.fun.name}>"

    def show(self) -> str:
        """Pretty-printed IR (after optimisation)."""
        return pretty(self.fun)

    def __call__(self, *args, backend: "str | None" = None):
        name = backend or default_backend()
        record_call(name)
        with _obs_tracing.span("call", cat="api", fun=self.fun.name, backend=name):
            res = get_backend(name).run(self.fun, args)
        return res[0] if len(res) == 1 else res

    def call_batched(
        self,
        args: Sequence[object],
        batched: Sequence[bool],
        batch_size: int,
        backend: "str | None" = None,
    ) -> Tuple[object, ...]:
        """Evaluate once with the flagged arguments batched on a leading axis.

        Always returns a tuple of results, each with a leading ``batch_size``
        axis.  Only backends with the ``batched`` capability support this;
        use a Python loop for ``ref``.
        """
        name = backend or default_backend()
        be = get_backend(name)
        if be.run_batched is None:
            raise ReproError(
                f"backend {name!r} cannot run batched seeds; "
                f"choose from {batched_backends()}"
            )
        record_call(name)
        with _obs_tracing.span(
            "call", cat="api", fun=self.fun.name, backend=name, batched=True
        ):
            return be.run_batched(self.fun, args, batched, batch_size)

    def cost(self, *args) -> Cost:
        """Run under the cost model; returns work/span/memory counters."""
        rec = CostRecorder()
        RefInterp(rec).run(self.fun, args)
        return rec.snapshot()


def compile_fun(
    fun: Fun,
    optimize: bool = True,
    passes: "Sequence[str] | None" = None,
    schedule=None,
) -> Compiled:
    return Compiled(fun, optimize=optimize, passes=passes, schedule=schedule)
