"""The ``"profile"`` plan emitter: per-instruction wall-clock attribution.

Registered through the emitter seam in ``exec/plan.py``, so it composes
with both cache tiers, the shard executor and every backend that resolves
plans through ``plan_for``.  A ``ProfilePlan`` is a ``Plan`` rendered in
profile mode (``exec/codegen.render(..., profile=True)``): the generated
function reads a clock around each top-level instruction, so the timings
come from the very code that runs unprofiled — results are
bitwise-identical to the plain ``plan`` emitter.  Instructions inside
nested bodies are attributed to their enclosing top-level instruction.
Each measurement is keyed to the *source statements* the instruction
executes (the provenance ``exec/lower.py`` records on every top-level
plan-IR instruction) and labelled via ``ir/pretty``.

``profile_report()`` ranks the top-k hotspots and sets measured seconds
against the static cost model's ``estimate_stms`` work for the same
statements, flagging rank-order inversions: statement pairs where one is
at least 4× hotter than the other yet the model orders them the other
way round.  Those inversions are exactly where cost-driven decisions
(fusion, shard chunking, tier-2 promotion) go wrong, which is what makes
the column pair actionable.

Selection: pass ``emitter="profile"`` to ``plan_for``, or set
``REPRO_PROFILE`` — any truthy value routes default plan lookups through
this emitter; a value naming a file (a path separator or a ``.json``
suffix) additionally writes the report there at interpreter exit.
"""
from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..ir.analysis import ir_hash
from ..ir.cost_model import estimate_stms
from ..ir.pretty import pretty_exp
from ..exec.codegen import render
from ..exec.plan import Plan, register_emitter
from . import metrics, tracing

__all__ = [
    "ProfilePlan",
    "profile_report",
    "format_profile_report",
    "profile_summary",
    "reset_profile",
    "write_profile",
]

_PLOCK = threading.Lock()

#: The separation factor above which a measured ordering counts as
#: *strong* — only strongly-separated pairs can flag a cost-model
#: rank inversion (mirrors the ≥4x convention of the PR 5 validation).
RANK_SEPARATION = 4.0


class _Rec:
    __slots__ = ("label", "kind", "prov", "fun", "schedule", "calls", "seconds")

    def __init__(self, label: str, kind: str, prov: tuple, fun: str,
                 schedule: str = ""):
        self.label = label
        self.kind = kind
        self.prov = prov
        self.fun = fun
        self.schedule = schedule
        self.calls = 0
        self.seconds = 0.0


# (fun name, ir hash, specialized, instr index) -> _Rec
_DATA: Dict[tuple, _Rec] = {}


def _stm_label(stm) -> str:
    pats = ", ".join(v.name for v in stm.pat)
    txt = pretty_exp(stm.exp).splitlines()[0].strip()
    if len(txt) > 48:
        txt = txt[:45] + "..."
    return f"{pats} = {txt}"


def _label_of(prov: tuple, kind: str) -> str:
    if not prov:
        return f"<{kind}>"
    if len(prov) == 1:
        return _stm_label(prov[0])
    first, last = prov[0].pat[0].name, prov[-1].pat[0].name
    return f"run[{len(prov)}] {first}..{last}"


class ProfilePlan(Plan):
    """A ``Plan`` whose top-level instructions are timed and attributed.

    Lowering, caching and results are exactly the plain emitter's; the
    rendered source differs only by a clock read around each top-level
    instruction.
    """

    emitter_name = "profile"

    def _render(self, ir):
        fun = ir.fun
        base = (fun.name, ir_hash(fun), bool(ir.specialized))
        meta = [
            (base + (i,), _label_of(ins.prov, ins.kind), ins.kind, ins.prov,
             fun.name, ins.schedule)
            for i, ins in enumerate(ir.body.instrs)
        ]

        def record(i: int, t0: float) -> None:
            # Resolved per call, so accumulation survives ``reset_profile``
            # on cached plans.
            dt = time.perf_counter() - t0
            key, label, kind, prov, fname, schedule = meta[i]
            with _PLOCK:
                rec = _DATA.get(key)
                if rec is None:
                    rec = _DATA[key] = _Rec(label, kind, prov, fname, schedule)
                rec.calls += 1
                rec.seconds += dt

        self._record = record
        return render(ir, profile=True)

    def _namespace(self):
        ns = super()._namespace()
        ns["_clock"] = time.perf_counter
        ns["_prof"] = self._record
        return ns


register_emitter("profile", ProfilePlan)


def reset_profile() -> None:
    """Drop all accumulated per-instruction timings."""
    with _PLOCK:
        _DATA.clear()


def profile_summary() -> Dict[str, Any]:
    """The registry-sized view: totals only (full detail via
    ``profile_report``)."""
    with _PLOCK:
        recs = list(_DATA.values())
    return {
        "instructions": len(recs),
        "calls": sum(r.calls for r in recs),
        "seconds": sum(r.seconds for r in recs),
    }


def profile_report(top_k: int = 10) -> Dict[str, Any]:
    """Rank instruction hotspots; measured vs cost-model work side by side.

    Returns ``{total_s, execute_span_s, coverage, by_kind, entries}``.
    Each entry carries ``label`` / ``fun`` / ``kind`` / ``calls`` /
    ``seconds`` / ``share`` / ``est_work`` (``estimate_stms(...).total``
    over its provenance) / ``measured_rank`` / ``est_rank`` /
    ``mispredicted``.  ``coverage`` is instruction-attributed seconds
    over the ``execute`` span total (requires tracing on to be set) —
    the acceptance bar is ≥0.9 on the GMM gradient.
    """
    with _PLOCK:
        recs = sorted(_DATA.values(), key=lambda r: r.seconds, reverse=True)
        recs = [
            (r.label, r.kind, r.prov, r.fun, r.schedule, r.calls, r.seconds)
            for r in recs
        ]
    total = sum(sec for *_, sec in recs)
    by_kind: Dict[str, float] = {}
    for _, kind, _, _, _, _, sec in recs:
        by_kind[kind] = by_kind.get(kind, 0.0) + sec

    entries: List[Dict[str, Any]] = []
    ests: List[Optional[float]] = []
    for label, kind, prov, fun, schedule, calls, sec in recs[: max(top_k, 0)]:
        est = estimate_stms(prov).total if prov else None
        ests.append(est)
        entries.append(
            {
                "label": label,
                "fun": fun,
                "kind": kind,
                "schedule": schedule,
                "calls": calls,
                "seconds": sec,
                "share": (sec / total) if total else 0.0,
                "est_work": est,
                "measured_rank": len(entries) + 1,
            }
        )
    est_order = sorted(
        (i for i, e in enumerate(ests) if e is not None),
        key=lambda i: ests[i],
        reverse=True,
    )
    for rank, i in enumerate(est_order, start=1):
        entries[i]["est_rank"] = rank
    for e in entries:
        e.setdefault("est_rank", None)
        e["mispredicted"] = False
    # A pair (i hotter than j by >= RANK_SEPARATION) the model orders the
    # other way round flags both ends: i is under-estimated, j over.
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ei, ej = ests[i], ests[j]
            if ei is None or ej is None:
                continue
            si, sj = entries[i]["seconds"], entries[j]["seconds"]
            if si >= RANK_SEPARATION * sj and ei < ej:
                entries[i]["mispredicted"] = True
                entries[j]["mispredicted"] = True

    phases = tracing.phase_totals()
    execute_s = phases.get("execute", {}).get("seconds")
    return {
        "total_s": total,
        "execute_span_s": execute_s,
        "coverage": (total / execute_s) if execute_s else None,
        "by_kind": by_kind,
        "entries": entries,
    }


def format_profile_report(report: Optional[Dict[str, Any]] = None, top_k: int = 10) -> str:
    """The report as an aligned text table (what the README shows)."""
    rep = report if report is not None else profile_report(top_k)
    lines = [
        f"profile: {rep['total_s']:.4f}s attributed over "
        f"{len(rep['entries'])} top instructions"
        + (
            f" ({100 * rep['coverage']:.1f}% of execute spans)"
            if rep["coverage"] is not None
            else ""
        ),
        f"{'#':>2s} {'seconds':>9s} {'share':>6s} {'calls':>7s} "
        f"{'est work':>10s} {'est#':>4s} {'':2s} label",
    ]
    for e in rep["entries"]:
        est = f"{e['est_work']:.3g}" if e["est_work"] is not None else "-"
        erk = str(e["est_rank"]) if e["est_rank"] is not None else "-"
        flag = "!" if e["mispredicted"] else ""
        sched = f" [{e['schedule']}]" if e.get("schedule") else ""
        lines.append(
            f"{e['measured_rank']:2d} {e['seconds']:9.4f} "
            f"{100 * e['share']:5.1f}% {e['calls']:7d} {est:>10s} {erk:>4s} "
            f"{flag:2s} {e['fun']}: {e['label']}{sched}"
        )
    if rep["by_kind"]:
        top = sorted(rep["by_kind"].items(), key=lambda kv: kv[1], reverse=True)
        lines.append("by kind: " + "  ".join(f"{k}={v:.4f}s" for k, v in top))
    return "\n".join(lines)


def _profile_path() -> Optional[str]:
    v = os.environ.get("REPRO_PROFILE", "")
    if v and (os.sep in v or v.endswith(".json")):
        return v
    return None


def write_profile(path: Optional[str] = None, top_k: int = 25) -> Optional[str]:
    """Write ``profile_report`` as JSON (default: the ``REPRO_PROFILE``
    file, when the knob names one); returns the path written."""
    path = path or _profile_path()
    if not path:
        return None
    with open(path, "w") as fh:
        json.dump(profile_report(top_k), fh, indent=1)
    return path


def _at_exit() -> None:
    try:
        write_profile()
    except OSError:
        pass


atexit.register(_at_exit)
metrics.register_source("profile", profile_summary, reset_profile)
