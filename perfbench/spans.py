"""Span recording around the program's layer entry points.

The traced run replaces each layer's public entry point, at the place the
program looks it up, with a wrapper that records a span; nothing inside
``src/`` is changed or enabled (the library's own ``obs`` tracing stays off).
Spans are kept in memory and written once, as Chrome-trace JSON, at the end.
"""
from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional[int], request: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Recorder:
    """In-memory span store.  A request is one cold build, warm-up step,
    timed step or baseline call; every span carries its request id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.kinds: Dict[str, str] = {}
        self._stack: List[int] = []
        self._request: Optional[str] = None

    @contextlib.contextmanager
    def request(self, rid: str, kind: str) -> Iterator[None]:
        """Attribute the spans opened inside to request ``rid`` of ``kind``."""
        self.kinds[rid] = kind
        prev, self._request = self._request, rid
        try:
            with self.span("request"):
                yield
        finally:
            self._request = prev

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run bookkeeping (counts, oracles) without recording spans."""
        prev, self._request = self._request, None
        try:
            yield
        finally:
            self._request = prev

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._request is None:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self._request)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def self_times(self) -> Dict[Tuple[str, str], List[float]]:
        """``{(request, span name): [self seconds, span count]}``.  Self time
        is a span's duration minus the time its child spans cover (children
        never overlap: the measured backend runs on one thread)."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out: Dict[Tuple[str, str], List[float]] = {}
        for i, sp in enumerate(self.spans):
            acc = out.setdefault((sp.request, sp.name), [0.0, 0])
            acc[0] += (sp.end - sp.start) - child[i]
            acc[1] += 1
        return out

    def chrome_trace(self) -> Dict[str, object]:
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": sp.name,
                "cat": self.kinds.get(sp.request, ""),
                "ph": "X",
                "ts": (sp.start - t0) * 1e6,
                "dur": (sp.end - sp.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": sp.parent, "step": sp.request},
            }
            for i, sp in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def _entry_points():
    """``(owner, attribute, layer)`` for every wrapped entry point, named
    where the program looks it up at call time."""
    import repro
    import repro.core.api as api
    import repro.exec.codegen as codegen
    import repro.exec.plan as plan
    import repro.ir.cost_model as cost_model
    import repro.opt.acc_opt as acc_opt
    import repro.opt.fusion as fusion
    import repro.opt.pipeline as pipeline
    from repro.frontend.function import Compiled

    return [
        (repro, "trace", "frontend"),
        (pipeline, "optimize_fun", "opt.optimize"),  # Compiled.__init__
        (api, "optimize_fun", "opt.optimize"),  # the pre-AD pipeline
        (acc_opt, "acc_opt_fun", "opt.acc_opt"),
        (api, "vjp_fun", "core.vjp"),
        (api, "jvp_fun", "core.jvp"),
        (plan, "lower_fun", "exec.lower"),
        (codegen, "lower_fun", "exec.lower"),
        (codegen, "compile_codegen", "exec.emit"),
        (plan, "plan_for", "exec.plan_cache"),
        (codegen, "plan_for", "exec.plan_cache"),
        (plan.Plan, "run", "exec.run"),
        (codegen.CodegenPlan, "run", "exec.run"),
        (Compiled, "__call__", "exec.registry"),
        (cost_model, "promotion_threshold", "ir.cost_model"),
        (fusion, "fusion_wins", "ir.cost_model"),
    ]


@contextlib.contextmanager
def instrumented(rec: Recorder) -> Iterator[None]:
    """Install the span wrappers for the duration of the block.

    The emitters are wrapped through ``register_emitter``, the registry
    ``plan_for`` resolves them from, so plan construction (emit plus
    compile) is one ``exec.emit`` span with its lowering as a child.
    """
    import repro.exec.codegen as codegen
    import repro.exec.plan as plan

    saved = []
    try:
        for owner, attr, layer in _entry_points():
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, rec.wrap(layer, orig))
        for name, build in (("plan", plan.Plan), ("codegen", codegen.CodegenPlan)):
            plan.register_emitter(name, rec.wrap("exec.emit", build))
        yield
    finally:
        plan.register_emitter("plan", plan.Plan)
        plan.register_emitter("codegen", codegen.CodegenPlan)
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
