"""repro.obs — the unified observability layer.

Three pillars, one import:

* :mod:`repro.obs.tracing` — nestable spans over every pipeline phase
  (trace → opt passes → lower → emit/compile → promote → execute, plus
  shard per-chunk spans), ring-buffered and exportable as Chrome-trace
  JSON via ``REPRO_TRACE=<file>``.
* :mod:`repro.obs.profiler` — the ``"profile"`` plan emitter: renders
  plans with a clock read around every top-level plan-IR instruction,
  keyed to its source statements, and reports measured time against the
  static cost model.
* :mod:`repro.obs.metrics` — one registry for counters/gauges/timers;
  the four historical stats surfaces (plan cache, shard, opt, fusion)
  are re-homed here, with :func:`snapshot`/:func:`reset_all`/
  :func:`delta` as the single lifecycle.

Everything is zero-overhead when off: with ``REPRO_TRACE`` unset and the
default emitter, instrumented code paths pay a no-op span check only.
"""
from __future__ import annotations

from typing import Any, Dict

from . import metrics, tracing
from .metrics import delta
from .tracing import span, timed

__all__ = [
    "metrics",
    "tracing",
    "span",
    "timed",
    "delta",
    "snapshot",
    "reset_all",
]


def _ensure_sources() -> None:
    """Import the modules that own stats sections so snapshots are
    complete even before any program has been compiled."""
    from ..exec import plan as _plan, shard as _shard  # noqa: F401
    from ..exec import registry as _registry  # noqa: F401
    from ..opt import fusion as _fusion, pipeline as _pipeline  # noqa: F401


def snapshot() -> Dict[str, Any]:
    """One dict covering all stats surfaces and labelled metrics."""
    _ensure_sources()
    return metrics.snapshot()


def reset_all() -> None:
    """Zero every stats surface, the labelled metrics, the span buffer and
    the profiler's accumulated instruction timings (each surface registers
    its ``reset_*`` with the metrics registry on import)."""
    _ensure_sources()
    metrics.reset_all()
    tracing.reset()


def __getattr__(name: str):
    if name == "profiler":
        import importlib

        return importlib.import_module(".profiler", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
