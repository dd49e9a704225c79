"""Pluggable executor-backend registry.

A ``Backend`` record bundles an executor's entry points with its
capability flags, and every dispatch site (``Compiled.__call__``, the AD
wrappers, the benchmark wiring) resolves names through ``get_backend`` —
which also gives unknown-backend errors one helpful shape (the requested
name plus the registered set) instead of failing deep inside dispatch.

Built-in backends, registered at import:

* ``ref``   — the reference interpreter (semantics oracle, cost model);
* ``plan``  — the plan compiler: lower once, render the plan IR to one
  Python function, compile it, cache it (``exec/plan.py``);
* ``shard`` — the sharded parallel executor (chunked plan execution on a
  worker pool; see ``exec/shard.py``).

Registering a custom backend is one call::

    from repro.exec.registry import Backend, register_backend
    register_backend(Backend("traced", run=my_run, run_batched=my_batched))

after which ``compiled(*args, backend="traced")``, ``grad(...)`` and the
rest of the API accept the new name.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..ir.ast import Fun
from ..obs import metrics as _obs_metrics
from ..util import ReproError

__all__ = [
    "Backend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "default_backend",
    "available_backends",
    "batched_backends",
    "record_call",
    "DEFAULT_BACKEND",
]

#: Per-backend dispatch counters (``repro.obs`` section ``"backend_calls"``):
#: one count per top-level ``Compiled`` call routed to each backend name.
BACKEND_CALLS = _obs_metrics.counter_group("backend_calls", {})


def record_call(name: str) -> None:
    """Count one top-level dispatch to backend ``name``."""
    BACKEND_CALLS[name] = BACKEND_CALLS.get(name, 0) + 1

#: Fallback default when ``REPRO_BACKEND`` is unset: the plan compiler —
#: the paper's compiled-bulk-code executor, and with the two-tier cache the
#: cheapest repeat-call path.  Semantics are identical across backends (the
#: parity suite asserts it), so the default is purely a performance choice.
DEFAULT_BACKEND = "plan"


@dataclass(frozen=True)
class Backend:
    """One executor: a name, entry points, and capability flags.

    ``run(fun, args)`` evaluates a ``Fun`` and returns the result tuple.
    ``run_batched(fun, args, batched, batch_size)`` — when not None — is the
    batched multi-seed entry (flagged arguments carry a leading batch axis);
    its presence *is* the ``batched`` capability.  ``sharded`` marks
    executors that spread work across a worker pool (used by stats/ablation
    tooling, and reserved in the plan-cache key).
    """

    name: str
    run: Callable[[Fun, Sequence[object]], Tuple[object, ...]]
    run_batched: Optional[Callable] = None
    sharded: bool = False
    description: str = ""

    @property
    def batched(self) -> bool:
        """Whether this backend can evaluate batched multi-seed calls."""
        return self.run_batched is not None


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, overwrite: bool = False) -> Backend:
    """Register ``backend`` under its name; returns it for chaining.

    Re-registering an existing name raises unless ``overwrite=True`` (a
    silent replacement of ``"plan"`` would be a debugging nightmare).
    """
    if not backend.name:
        raise ReproError("register_backend: backend name must be non-empty")
    if backend.name in _REGISTRY and not overwrite:
        raise ReproError(
            f"backend {backend.name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> Backend:
    """Remove and return a registered backend; unknown names raise
    ``ReproError`` listing the registered set (same shape as ``get_backend``)."""
    be = _REGISTRY.pop(name, None)
    if be is None:
        raise ReproError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return be


def get_backend(name: str) -> Backend:
    """Resolve a backend name, or raise listing the registered set."""
    be = _REGISTRY.get(name)
    if be is None:
        raise ReproError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return be


def default_backend() -> str:
    """The session-default backend name, shared by every entry point.

    ``REPRO_BACKEND`` selects it (read per call, so tests/operators can flip
    it), falling back to ``DEFAULT_BACKEND``; either way the name is
    validated against the registry so a typo fails loudly at the first
    dispatch, naming the registered set.  ``Compiled.__call__``,
    ``call_batched`` and the ``grad``/``value_and_grad``/``jacobian``/
    ``hessian_diag`` wrappers all resolve ``backend=None`` through this one
    function, so the entry points cannot drift apart.
    """
    return get_backend(os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)).name


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def batched_backends() -> Tuple[str, ...]:
    """Names of backends able to run batched multi-seed calls."""
    return tuple(n for n, b in _REGISTRY.items() if b.batched)


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


def _run_ref(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    from .interp import RefInterp

    return RefInterp().run(fun, args)


def _register_builtins() -> None:
    from .plan import run_fun_plan, run_fun_plan_batched
    from .shard import run_fun_shard, run_fun_shard_batched

    register_backend(
        Backend(
            "ref",
            run=_run_ref,
            description="reference interpreter (semantics oracle)",
        )
    )
    register_backend(
        Backend(
            "plan",
            run=run_fun_plan,
            run_batched=run_fun_plan_batched,
            description="plan compiler (plan IR rendered to one compiled Python function)",
        )
    )
    register_backend(
        Backend(
            "shard",
            run=run_fun_shard,
            run_batched=run_fun_shard_batched,
            sharded=True,
            description="sharded parallel executor over the plan backend",
        )
    )


_register_builtins()
