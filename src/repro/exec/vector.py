"""The batched-value runtime — the "GPU" of this reproduction.

Plans (``exec/plan.py``) evaluate ``map`` nests by *batching* instead of
looping: entering a ``map`` pushes a batch level, lambda parameters become
whole NumPy arrays with a leading batch axis, and every scalar statement of
the (possibly deeply nested) lambda body executes as one bulk NumPy op over
all iterations at once.  This is the flattening execution model the paper
relies on (§4.1): perfectly nested maps cost one bulk operation per scalar
statement.

Divergent control flow is executed SIMT-style:

* ``If`` under a batched condition runs *both* branches under complementary
  predication masks and selects results with ``where`` — what a GPU warp
  does;
* ``Loop``/``WhileLoop`` with lane-varying trip counts run to the maximum
  trip count with per-lane active masks;
* accumulator updates (``UpdAcc``) become ``np.add.at`` — the moral
  equivalent of the CUDA ``atomicAdd`` the paper lowers accumulators to —
  with inactive lanes contributing zero.

Batched values are ``BV(data, bdims)``: ``data`` carries ``bdims`` leading
batch axes aligned with the engine's batch-size stack.  Batch axes may have
size 1 (kept broadcastable); values are only materialised to full batch
extent where in-place writes require ownership.

This module holds the value types, the shared primitives, and one helper
per plan-IR instruction that generated plan source calls
(``exec/codegen.py``).  Irregular nested parallelism (an extent that varies
across lanes) is rejected with ``ExecError``; the reference interpreter
handles it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..util import ExecError
from . import values as _values
from .prims import cast_to

__all__ = ["BV", "AccBV"]

_UFUNC = {"add": np.add, "mul": np.multiply, "min": np.minimum, "max": np.maximum}


def _neutral_of(op: str, dt: np.dtype):
    """The neutral element of a specialisable op at a concrete dtype."""
    if op == "add":
        return dt.type(0)
    if op == "mul":
        return dt.type(1)
    if dt.kind == "f":
        return dt.type(np.inf if op == "min" else -np.inf)
    info = np.iinfo(dt)
    return dt.type(info.max if op == "min" else info.min)


@dataclass
class BV:
    """A batched value: ``bdims`` leading batch axes, then the payload."""

    data: np.ndarray
    bdims: int

    @property
    def prank(self) -> int:
        return np.asarray(self.data).ndim - self.bdims

    def pshape(self) -> Tuple[int, ...]:
        return np.asarray(self.data).shape[self.bdims:]


@dataclass
class AccBV:
    """A mutable batched accumulator buffer (always fully materialised)."""

    data: np.ndarray
    bdims: int


def _expand(v: BV, k: int) -> np.ndarray:
    """Raise ``v`` to ``k`` batch dims by inserting singleton axes."""
    d = np.asarray(v.data)
    if v.bdims == k:
        return d
    if v.bdims > k:
        raise ExecError("cannot lower batch dims")
    return d.reshape(d.shape[: v.bdims] + (1,) * (k - v.bdims) + d.shape[v.bdims:])


def _align(vs: Sequence[BV]) -> Tuple[List[np.ndarray], int, int]:
    """Expand values to a common batch depth and payload rank so that plain
    NumPy broadcasting implements the IR's elementwise semantics."""
    k = max(v.bdims for v in vs)
    pmax = max(v.prank for v in vs)
    out = []
    for v in vs:
        d = _expand(v, k)
        p = d.ndim - k
        if p < pmax:
            d = d.reshape(d.shape[:k] + (1,) * (pmax - p) + d.shape[k:])
        out.append(d)
    return out, k, pmax


def _grids(prefix: Tuple[int, ...], extra: int = 0) -> Tuple[np.ndarray, ...]:
    """Open index grids over the leading axes, padded with ``extra`` trailing
    singleton dims so they broadcast against deeper index arrays."""
    k = len(prefix)
    gs = []
    for a, s in enumerate(prefix):
        shape = (1,) * a + (s,) + (1,) * (k - 1 - a + extra)
        gs.append(np.arange(s).reshape(shape))
    return tuple(gs)


# ---------------------------------------------------------------------------
# Shared primitives.  ``state``/``eng`` is the per-call engine: any object
# with ``bstack`` (batch-size stack) and ``mask`` (predication mask or None)
# attributes.
# ---------------------------------------------------------------------------


def _combine_mask(m: Optional[BV], extra: BV) -> BV:
    if m is None:
        return extra
    datas, k, _ = _align([m, extra])
    return BV(np.logical_and(datas[0], datas[1]), k)


def _mask_where(state, v: np.ndarray, k: int, neutral) -> np.ndarray:
    """Replace inactive lanes' elements of ``v`` (batch depth ``k``) by
    ``neutral``."""
    if state.mask is None:
        return v
    md = _expand(state.mask, k) if state.mask.bdims <= k else np.asarray(state.mask.data)
    md = md.reshape(md.shape + (1,) * (np.asarray(v).ndim - md.ndim))
    return np.where(md, v, neutral)


def _elem(f, *vs) -> BV:
    # Fast path: with no batch axes anywhere, the explicit rank padding
    # ``_align`` performs is exactly NumPy's implicit left-pad broadcasting,
    # so applying ``f`` directly is bitwise identical — and this is the hot
    # case in element-at-a-time generic SOAC loops.
    for v in vs:
        if v.bdims:
            datas, k, _ = _align(list(vs))
            return BV(np.asarray(f(*datas)), k)
    return BV(np.asarray(f(*[np.asarray(v.data) for v in vs])), 0)


def _where(c: BV, t, f):
    if isinstance(t, AccBV) or isinstance(f, AccBV):
        if t is f:
            return t
        raise ExecError("accumulators must be threaded identically through branches")
    return _elem(np.where, c, t, f)


def _gather(arr: BV, idxs: List[BV]) -> BV:
    k = max([arr.bdims] + [i.bdims for i in idxs])
    ad = _expand(arr, k)
    # Clip for memory safety: inactive/divergent lanes may hold garbage
    # indices; their results are never selected downstream.
    sel = []
    for a, i in enumerate(idxs):
        dim = ad.shape[k + a]
        sel.append(np.clip(_expand(i, k), 0, max(dim - 1, 0)))
    if k == 0:
        out = ad[tuple(int(np.asarray(i)[()]) for i in sel)]
        return BV(np.asarray(out), 0)
    out = ad[_grids(ad.shape[:k]) + tuple(sel)]
    return BV(np.asarray(out), k)


def _uniform_int(v: BV, what: str) -> int:
    """A lane-uniform integer extent (iota/replicate/histogram sizes)."""
    d = np.asarray(v.data)
    if d.size == 0:
        return 0
    u = np.unique(d)
    if u.size != 1:
        raise ExecError(
            f"{what} varies across parallel lanes (irregular nested "
            f"parallelism is not supported by the vectorised backend)"
        )
    return int(u[0])


def _batch_args(state, vs: Sequence[BV]) -> Tuple[List[BV], int]:
    """Enter SOAC arguments: push their leading payload axis to batch depth
    ``len(state.bstack) + 1`` and return the common extent."""
    d = len(state.bstack)
    params: List[BV] = []
    n: Optional[int] = None
    for v in vs:
        dd = _expand(v, d)
        if dd.ndim <= d:
            raise ExecError("map/soac: argument has no payload axis")
        ln = dd.shape[d]
        if n is None:
            n = ln
        elif ln != n:
            raise ExecError(f"map/soac: array length mismatch {n} vs {ln}")
        params.append(BV(dd, d + 1))
    return params, int(n or 0)


# ---------------------------------------------------------------------------
# Instruction runtime: what generated plan source calls
#
# ``exec/codegen.py`` renders control flow, fused scalar runs and slot moves
# inline and every other plan-IR instruction as one call to the helper
# below that holds its NumPy sequence.
# ---------------------------------------------------------------------------


def _cast(v: BV, dt) -> BV:
    return BV(cast_to(v.data, dt), v.bdims)


def _zeros_like(v: BV) -> BV:
    return BV(np.zeros_like(np.asarray(v.data)), v.bdims)


def _update(eng, arr: BV, idxs, val: BV) -> BV:
    k = max([arr.bdims, val.bdims] + [i.bdims for i in idxs])
    if eng.mask is not None:
        k = max(k, eng.mask.bdims)
    # Materialise the destination at full batch size: each lane owns a
    # private copy (functional semantics), so lanes never collide.
    bshape = tuple(eng.bstack[:k])
    ad = _expand(arr, k)
    ad = np.broadcast_to(ad, bshape + ad.shape[k:]).copy()
    sel = _grids(bshape) + tuple(
        np.clip(_expand(i, k), 0, max(ad.shape[k + a] - 1, 0))
        for a, i in enumerate(idxs)
    )
    vd = _expand(val, k)
    if eng.mask is None:
        ad[sel] = vd
    else:
        old = ad[sel]
        md = _expand(eng.mask, k)
        md = md.reshape(md.shape + (1,) * (old.ndim - md.ndim))
        ad[sel] = np.where(md, vd, old)
    return BV(ad, k)


def _replicate(n: int, v: BV) -> BV:
    d = np.asarray(v.data)
    d2 = np.expand_dims(d, axis=v.bdims)
    shape = d.shape[: v.bdims] + (n,) + d.shape[v.bdims:]
    return BV(np.broadcast_to(d2, shape).copy(), v.bdims)


def _scratch(eng, nv: BV, v: BV) -> BV:
    # Checkpoint buffers may have lane-varying logical extents (loops with
    # data-dependent trip counts); allocate the maximum — the slack is never
    # read back.
    nd = np.asarray(nv.data)
    n = 0 if nd.size == 0 else int(nd.max())
    bshape = tuple(eng.bstack)
    dt = np.asarray(v.data).dtype
    return BV(np.zeros(bshape + (n,) + v.pshape(), dtype=dt), len(bshape))


def _size(v, dim: int) -> BV:
    if isinstance(v, AccBV):
        return BV(np.asarray(np.int64(v.data.shape[v.bdims:][dim])), 0)
    return BV(np.asarray(np.int64(v.pshape()[dim])), 0)


def _reverse(v: BV) -> BV:
    return BV(np.flip(np.asarray(v.data), axis=v.bdims).copy(), v.bdims)


def _concat(x: BV, y: BV) -> BV:
    (dx, dy), k, _ = _align([x, y])
    bx = np.broadcast_shapes(dx.shape[:k], dy.shape[:k])
    dx = np.broadcast_to(dx, bx + dx.shape[k:])
    dy = np.broadcast_to(dy, bx + dy.shape[k:])
    return BV(np.concatenate([dx, dy], axis=k), k)


# -- SOAC entry/exit ---------------------------------------------------------


def _args(eng, vs) -> Tuple[int, int, List[BV]]:
    """SOAC entry: the current batch depth ``d``, the common extent ``n``,
    and the arguments with their leading axis moved to batch depth
    ``d + 1``."""
    d = len(eng.bstack)
    params, n = _batch_args(eng, vs)
    return d, n, params


def _enter(eng, vs) -> Tuple[int, int, List[BV]]:
    """``_args``, then push the batch level the lambda body runs at (the
    matching exit helper pops it)."""
    d, n, params = _args(eng, vs)
    eng.bstack.append(n)
    return d, n, params


def _payload(r: BV, d: int, n: int) -> np.ndarray:
    """A lambda result lifted back out of batch level ``d``: the payload
    with extent ``n`` materialised on axis ``d``."""
    rd = _expand(r, d + 1)
    if rd.shape[d] != n:
        rd = np.broadcast_to(rd, rd.shape[:d] + (n,) + rd.shape[d + 1:])
    return rd


def _map_exit(eng, d: int, n: int, res, n_acc: int) -> tuple:
    """Pop a map's batch level; its results: the leading ``n_acc``
    accumulators as they are, the rest lifted to arrays of extent ``n``."""
    eng.bstack.pop()
    out = []
    for j, r in enumerate(res):
        if j < n_acc:
            if not isinstance(r, AccBV):
                raise ExecError("map: accumulator results must lead")
            out.append(r)
        else:
            out.append(BV(np.ascontiguousarray(_payload(r, d, n)), d))
    return tuple(out)


def _map_chunked(eng, body, params: List[BV], d: int, n: int, chunk: int):
    """A ``sequential(chunk)`` schedule on an acc-free map.  ``body(vals, m)``
    runs the lambda on ``m`` lanes and returns its payloads.  Chunks only
    fire at top level (no batch axis, no mask); ``_batch_args`` guarantees
    every param has extent exactly ``n`` on axis 0, so the chunk payloads
    concatenate bitwise-identically to the bulk evaluation."""
    if d == 0 and eng.mask is None and n > chunk:
        parts = [
            body([BV(p.data[lo:lo + chunk], p.bdims) for p in params],
                 min(chunk, n - lo))
            for lo in range(0, n, chunk)
        ]
        return tuple(
            BV(np.ascontiguousarray(np.concatenate([p[j] for p in parts], axis=0)), 0)
            for j in range(len(parts[0]))
        )
    return tuple(BV(np.ascontiguousarray(rd), d) for rd in body(params, n))


def _take(params: List[BV], i: int, d: int) -> List[BV]:
    """Element ``i`` of every SOAC argument (generic element-at-a-time
    folds: sequential over the reduced axis, batched over lanes)."""
    return [BV(np.take(np.asarray(a.data), i, axis=d), d) for a in params]


# -- reduce / scan -----------------------------------------------------------


def _reduce_uf(eng, vs, ne: BV, uf, fold: bool, ext: Optional[int]) -> BV:
    """A reduce whose operator is a recognised ufunc.  ``ext`` is the
    statically known extent (specialised lowering) or None."""
    d, _n, args = _args(eng, vs)
    data = np.asarray(args[0].data)
    if ext == 0 or (ext is None and data.shape[d] == 0):
        nd = _expand(ne, d)
        return BV(np.broadcast_to(nd, data.shape[:d] + data.shape[d + 1:]).copy(), d)
    if ext == 1:
        red = np.take(data, 0, axis=d)
    else:
        red = uf.reduce(data, axis=d)
    if fold:
        red = uf(_expand(ne, d), red)
    return BV(red, d)


def _reduce_exit(eng, uf, r: BV, d: int, n: int, ne: BV, fold: bool) -> BV:
    """Pop a redomap's batch level; the ufunc reduction of its payload."""
    eng.bstack.pop()
    red = uf.reduce(_payload(r, d, n), axis=d)
    if fold:
        red = uf(_expand(ne, d), red)
    return BV(red, d)


def _reduce_exit_empty(eng, d: int, ne: BV) -> BV:
    """Pop a redomap's batch level; the reduction of zero elements."""
    eng.bstack.pop()
    nd = _expand(ne, d)
    return BV(np.broadcast_to(nd, tuple(eng.bstack) + nd.shape[d:]).copy(), d)


def _scan_uf(eng, vs, ne: BV, uf, fold: bool) -> BV:
    d, _n, args = _args(eng, vs)
    return _scan_fold(uf, np.asarray(args[0].data), d, ne, fold)


def _scan_fold(uf, data: np.ndarray, d: int, ne: BV, fold: bool) -> BV:
    acc = uf.accumulate(data, axis=d)
    if fold:
        acc = uf(np.expand_dims(_expand(ne, d), axis=d), acc)
    return BV(acc, d)


def _scan_empty(ne: BV) -> BV:
    return BV(np.zeros((0,) * (ne.prank + 1), dtype=np.asarray(ne.data).dtype), 0)


def _scan_exit(eng, uf, r: BV, d: int, n: int, ne: BV, fold: bool) -> BV:
    """Pop a redomap scan's batch level; the ufunc scan of its payload."""
    eng.bstack.pop()
    return _scan_fold(uf, _payload(r, d, n), d, ne, fold)


def _scan_exit_empty(eng, ne: BV) -> BV:
    eng.bstack.pop()
    return _scan_empty(ne)


def _scan_push(cols: List[list], d: int, accs) -> None:
    for col, a in zip(cols, accs):
        col.append(_expand(a, d))


def _scan_stack(cols: List[list], d: int, n: int, nes) -> Tuple[BV, ...]:
    outs = []
    for col, ne in zip(cols, nes):
        if n == 0:
            outs.append(_scan_empty(ne))
            continue
        shape = np.broadcast_shapes(*[c.shape for c in col])
        outs.append(BV(np.stack([np.broadcast_to(c, shape) for c in col], axis=d), d))
    return tuple(outs)


# -- histograms and scatter ----------------------------------------------------


def _valid_lanes(eng, idata: np.ndarray, bound: int, d: int) -> np.ndarray:
    """In-range indices of active lanes (the histogram/scatter write mask)."""
    valid = (idata >= 0) & (idata < bound)
    if eng.mask is not None:
        md = _expand(eng.mask, d)
        md = np.broadcast_to(
            md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)), valid.shape
        )
        valid = valid & md
    return valid


def _hist_args(eng, m: int, vs):
    """Histogram entry: ``(d, n, hv, vals)`` where ``hv`` bundles the bin
    count, batch shape, indices and write mask and ``vals`` are the value
    arguments at batch depth ``d + 1``."""
    d, n, args = _args(eng, vs)
    bshape = tuple(eng.bstack)
    idata = np.broadcast_to(np.asarray(args[0].data), bshape + (n,))
    valid = _valid_lanes(eng, idata, m, d)
    return d, n, (m, bshape, idata, valid), args[1:]


def _hist_enter(eng, m: int, vs):
    """``_hist_args``, then push the batch level of the fused map part."""
    out = _hist_args(eng, m, vs)
    eng.bstack.append(out[1])
    return out


def _hist_exit(eng, hv, r: BV, d: int, n: int, ne: BV, op: str) -> BV:
    """Pop a redomap histogram's batch level; accumulate its payload."""
    eng.bstack.pop()
    return _hist_fold(hv, d, n, _payload(r, d, n), ne, op)


def _hist_fold(hv, d: int, n: int, data: np.ndarray, ne: BV, op: str) -> BV:
    """Scatter-accumulate a payload into a fresh histogram with the ufunc
    of ``op``; invalid and inactive lanes contribute the neutral element."""
    m, bshape, idata, valid = hv
    pe = data.shape[d + 1:]
    dt = data.dtype
    hist = np.ascontiguousarray(
        np.broadcast_to(
            np.expand_dims(_expand(ne, d), axis=d), bshape + (m,) + pe
        ).astype(dt)
    )
    vdata = np.broadcast_to(data, bshape + (n,) + pe)
    w = valid.reshape(valid.shape + (1,) * (vdata.ndim - valid.ndim))
    contrib = np.where(w, vdata, _neutral_of(op, dt))
    isel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(m - 1, 0)),)
    _UFUNC[op].at(hist, isel, contrib)
    return BV(hist, d)


def _hist_uf(eng, m: int, vs, ne: BV, op: str) -> BV:
    d, n, hv, vals = _hist_args(eng, m, vs)
    v = vals[0]
    vdata = np.broadcast_to(np.asarray(v.data), hv[1] + (n,) + v.pshape())
    return _hist_fold(hv, d, n, vdata, ne, op)


def _hist_init(hv, d: int, nes, vals):
    """Generic histogram set-up: the neutral-filled histograms, and the
    lane grids every element's bin selector starts with."""
    m, bshape = hv[0], hv[1]
    hists = [
        np.ascontiguousarray(
            np.broadcast_to(
                np.expand_dims(_expand(ne, d), axis=d), bshape + (m,) + v.pshape()
            ).astype(np.asarray(v.data).dtype)
        )
        for ne, v in zip(nes, vals)
    ]
    return hists, _grids(bshape)


def _hist_cur(hv, hists: List[np.ndarray], gsel, i: int, d: int):
    """The bins element ``i`` lands in: ``(selector, current bin values)``."""
    m, idata = hv[0], hv[2]
    s = gsel + (np.clip(idata[..., i], 0, max(m - 1, 0)),)
    return s, [BV(h[s], d) for h in hists]


def _hist_put(hv, hists: List[np.ndarray], s, i: int, d: int, new) -> None:
    vi = hv[3][..., i]
    for h, nv in zip(hists, new):
        nd = _expand(nv, d)
        old = h[s]
        w = vi.reshape(vi.shape + (1,) * (old.ndim - vi.ndim))
        h[s] = np.where(w, np.broadcast_to(nd, old.shape), old)


def _scatter(eng, dest: BV, inds: BV, vals: BV) -> BV:
    d, n, (inds, vals) = _args(eng, [inds, vals])
    bshape = tuple(eng.bstack)
    dd = _expand(dest, d)
    dd = np.broadcast_to(dd, bshape + dd.shape[d:]).copy()
    ln = dd.shape[d]
    idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
    vdata = np.broadcast_to(np.asarray(vals.data), bshape + (n,) + vals.pshape())
    valid = _valid_lanes(eng, idata, ln, d)
    sel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(ln - 1, 0)),)
    old = dd[sel]
    w = valid.reshape(valid.shape + (1,) * (old.ndim - valid.ndim))
    dd[sel] = np.where(w, np.broadcast_to(vdata, old.shape), old)
    return BV(dd, d)


# -- control flow ----------------------------------------------------------------


def _if(eng, c: BV, then, els) -> tuple:
    """Run ``then()``/``els()``: just one under a lane-uniform condition and
    no mask, else both SIMT-style under complementary masks, selecting the
    results lane-wise."""
    cd = np.asarray(c.data)
    if cd.size == 1 and eng.mask is None:
        return then() if bool(cd.reshape(-1)[0]) else els()
    saved = eng.mask
    notc = BV(np.logical_not(cd), c.bdims)
    eng.mask = _combine_mask(saved, c)
    tvals = then()
    eng.mask = _combine_mask(saved, notc)
    fvals = els()
    eng.mask = saved
    return tuple(_where(c, t, f) for t, f in zip(tvals, fvals))


def _merge(active: BV, state, new) -> tuple:
    """Loop state after one masked iteration: lanes in ``active`` take the
    new value; accumulators are threaded through unchanged."""
    return tuple(
        s2 if isinstance(s2, AccBV) else _where(active, s2, s)
        for s, s2 in zip(state, new)
    )


class _Lanes:
    """A ``loop`` with possibly lane-varying trip counts: runs to the
    maximum count, masking lanes whose count is exhausted."""

    __slots__ = ("eng", "saved", "nd", "bdims", "nmax", "uniform")

    def __init__(self, eng, nv: BV) -> None:
        nd = np.asarray(nv.data)
        self.eng, self.saved, self.nd, self.bdims = eng, eng.mask, nd, nv.bdims
        self.nmax = 0 if nd.size == 0 else int(nd.max())
        self.uniform = nd.size == 1 or (nd.size > 0 and nd.min() == nd.max())

    def begin(self, i: int) -> BV:
        """Enter iteration ``i``; returns the loop index value."""
        if not self.uniform:
            self.eng.mask = _combine_mask(self.saved, BV(i < self.nd, self.bdims))
        return BV(np.asarray(np.int64(i)), 0)

    def end(self, i: int, state: tuple, new: tuple) -> tuple:
        if self.uniform:
            return new
        out = _merge(BV(i < self.nd, self.bdims), state, new)
        self.eng.mask = self.saved
        return out


class _While:
    """A ``while`` loop's lane masking and iteration fuel."""

    __slots__ = ("eng", "saved", "limit", "fuel")

    def __init__(self, eng) -> None:
        self.eng, self.saved = eng, eng.mask
        self.limit = self.fuel = _values.WHILE_FUEL

    def active(self, c: BV) -> Optional[BV]:
        """Mask the lanes whose condition holds; None once none does."""
        act = _combine_mask(self.saved, c)
        if not np.any(np.asarray(act.data)):
            return None
        self.eng.mask = act
        return act

    def end(self, act: BV, state: tuple, new: tuple) -> tuple:
        out = _merge(act, state, new)
        self.eng.mask = self.saved
        self.fuel -= 1
        if self.fuel <= 0:
            raise ExecError(
                f"while loop exceeded iteration fuel ({self.limit} iterations)"
            )
        return out


# -- accumulators ----------------------------------------------------------------


def _withacc_in(eng, arrs) -> List[AccBV]:
    d = len(eng.bstack)
    bshape = tuple(eng.bstack)
    accs = []
    for v in arrs:
        ad = _expand(v, d)
        accs.append(AccBV(np.broadcast_to(ad, bshape + ad.shape[d:]).copy(), d))
    return accs


def _withacc_out(r) -> BV:
    if not isinstance(r, AccBV):
        raise ExecError("withacc: lambda must return its accumulators")
    return BV(r.data, r.bdims)


def _updacc(eng, acc, v: BV, idxs) -> AccBV:
    if not isinstance(acc, AccBV):
        raise ExecError("upd: operand is not an accumulator")
    k = max([v.bdims, acc.bdims] + [i.bdims for i in idxs])
    if eng.mask is not None:
        k = max(k, eng.mask.bdims)
    bshape = tuple(eng.bstack[:k])
    vd = _expand(v, k)
    vd = np.broadcast_to(vd, bshape + vd.shape[k:])
    vd = _mask_where(eng, vd, k, np.zeros((), dtype=vd.dtype))
    if not idxs:
        # Whole-array add: contributions from deeper batch levels sum.
        extra = tuple(range(acc.bdims, k))
        acc.data += vd.sum(axis=extra) if extra else vd
        return acc
    sel = _grids(bshape)[: acc.bdims] + tuple(
        np.clip(
            np.broadcast_to(_expand(i, k), bshape),
            0,
            max(acc.data.shape[acc.bdims + a] - 1, 0),
        )
        for a, i in enumerate(idxs)
    )
    np.add.at(acc.data, sel, vd)
    return acc
