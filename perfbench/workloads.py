"""The benchmark workloads, driven through the public API only.

Each workload is a closed loop with one client: the next step starts when the
previous one has returned.  Inputs come from ``repro.apps.datagen`` and the
seed; every step is checked, outside the timed region, against the
hand-written derivative of the application (never against another backend),
and each hand-written oracle is itself checked once per run against central
finite differences at a small probe shape.

Why these two (the ``why`` lines in BENCHMARK.json say the same):

* ``kmeans_newton`` — one Table 3 Newton step (``grad`` plus
  ``hessian_diag``, i.e. jvp∘vjp).  Time goes to executing the AD output
  (array-bound); the emitter barely matters.
* ``lstm_grad`` — the Table 6 LSTM loss gradient: 40 scan steps over tiny
  arrays, so per-instruction dispatch dominates.  Rewrites of the k-means AD
  output predict no change here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

import repro as rp
from repro.apps import datagen, kmeans, lstm
from repro.baselines import eager as eg
from repro.exec.plan import plan_for

#: Relative tolerance (scaled by the oracle's largest magnitude) between our
#: derivative and the hand-written one.  Both are exact, so they differ by
#: rounding only (observed below 1e-13).
AD_RTOL = 1e-8
#: Tolerance of a hand-written oracle against central finite differences.
FD_RTOL = 1e-5


class OracleMismatch(AssertionError):
    """A result disagreed with its independent oracle."""


def assert_close(what: str, got, want, rtol: float) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise OracleMismatch(f"{what}: shape {got.shape} != oracle {want.shape}")
    if not np.all(np.isfinite(got)):
        raise OracleMismatch(f"{what}: non-finite values")
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(got - want), initial=0.0))
    if err > rtol * scale:
        raise OracleMismatch(f"{what}: max error {err:.3e} > {rtol:.0e} x {scale:.3e}")


def central_grad(f: Callable[[Sequence[np.ndarray]], float], args, wrt, eps=1e-6):
    """Central-difference gradient of scalar ``f(args)`` w.r.t. ``args[i]``
    for each ``i`` in ``wrt``."""
    out = []
    for i in wrt:
        x = np.array(args[i], dtype=np.float64)
        g = np.zeros_like(x)
        for j in np.ndindex(x.shape):
            a = list(args)
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            a[i] = xp
            fp = f(a)
            a[i] = xm
            g[j] = (fp - f(a)) / (2 * eps)
        out.append(g)
    return out


@dataclass
class Built:
    """What a cold build leaves behind: the traced primal, the compiled
    callables, and ``(derivative Fun, call arguments)`` per derivative."""

    primal_fun: object
    primal: Callable
    derivs: List[Tuple[object, tuple]]
    grad: Callable
    hess: Callable = None


# ---------------------------------------------------------------------------


class KMeansNewton:
    name = "kmeans_newton"
    reference = "array"  # see reference.py

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.k, self.n, self.d = (3, 40, 2) if tiny else (32, 2000, 32)
        self.pts, self.ctr = datagen.kmeans_instance(self.k, self.n, self.d, seed)

    def build(self) -> Built:
        fun = kmeans.build_ir(self.n, self.k, self.d)
        fc = rp.compile(fun)
        g = rp.grad(fc, wrt=[1])
        h = rp.hessian_diag(fc, wrt=1)
        pts, ctr = self.pts, self.ctr
        gargs = (pts, ctr, 1.0)
        hargs = (pts, ctr, 1.0, np.zeros_like(pts), np.ones_like(ctr), 0.0)
        plan_for(g.adfun.fun, gargs)
        plan_for(h.adfun.fun, hargs)
        return Built(fun, fc, [(g.adfun.fun, gargs), (h.adfun.fun, hargs)], g, h)

    def inputs(self, i: int):
        # Closed-loop Newton iteration: each step starts from the last result.
        return (self.pts, self.ctr)

    def step(self, b: Built, inp):
        pts, ctr = inp
        g = b.grad(pts, ctr)
        h = b.hess(pts, ctr)
        new = ctr - g / np.where(np.abs(h) < 1e-12, 1.0, h).reshape(ctr.shape)
        return g, h, new

    def accept(self, out) -> None:
        self.ctr = out[2]

    def check(self, inp, out) -> None:
        g, h, new = out
        gm, hm = kmeans.grad_hess_manual(*inp)
        assert_close("grad", g, gm, AD_RTOL)
        assert_close("hessian_diag", np.reshape(h, hm.shape), hm, AD_RTOL)
        assert_close("newton step", new, kmeans.newton_step_manual(*inp), AD_RTOL)

    def primal(self, b: Built, inp):
        return b.primal(*inp)

    def manual(self, inp):
        return kmeans.grad_hess_manual(*inp)

    def tape(self, inp):
        pts, ctr = inp
        return eg.grad(lambda c: kmeans.cost_eager(pts, c))(ctr)

    def tape_step(self, inp):
        # The tape has no second-order mode: its Newton step takes the
        # Hessian diagonal by forward differences over two tape gradients.
        return kmeans.newton_step_eager(*inp)

    def self_check(self) -> None:
        pts, ctr = datagen.kmeans_instance(3, 12, 2, self.seed)
        gm, hm = kmeans.grad_hess_manual(pts, ctr)

        def f(a):
            return kmeans.cost_np(a[0], a[1])

        (gfd,) = central_grad(f, (pts, ctr), [1])
        assert_close("kmeans manual grad vs fd", gm, gfd, FD_RTOL)
        hfd = np.zeros_like(ctr)
        e = 1e-3  # the cost is piecewise quadratic: second differences are exact
        for j in np.ndindex(ctr.shape):
            cp, cm = ctr.copy(), ctr.copy()
            cp[j] += e
            cm[j] -= e
            hfd[j] = (f((pts, cp)) - 2 * f((pts, ctr)) + f((pts, cm))) / (e * e)
        assert_close("kmeans manual hessian_diag vs fd", hm, hfd, FD_RTOL)


class LstmGrad:
    name = "lstm_grad"
    reference = "dispatch"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.bs, self.n, self.d, self.h = (2, 3, 2, 2) if tiny else (16, 40, 10, 16)
        xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(
            self.bs, self.n, self.d, self.h, seed
        )
        self.args = (xs, wx, wh, b, wy, tg)

    def build(self) -> Built:
        fun = lstm.build_ir(self.n, self.bs, self.d, self.h)
        fc = rp.compile(fun)
        g = rp.grad(fc, wrt=[1, 2, 3, 4])
        gargs = self.args + (1.0,)
        plan_for(g.adfun.fun, gargs)
        return Built(fun, fc, [(g.adfun.fun, gargs)], g)

    def inputs(self, i: int):
        return self.args

    def step(self, b: Built, inp):
        return b.grad(*inp)

    def accept(self, out) -> None:
        pass

    def check(self, inp, out) -> None:
        for name, got, want in zip(("wx", "wh", "b", "wy"), out, lstm.grad_manual(*inp)):
            assert_close(f"d loss/d {name}", got, want, AD_RTOL)

    def primal(self, b: Built, inp):
        return b.primal(*inp)

    def manual(self, inp):
        return lstm.grad_manual(*inp)

    def tape(self, inp):
        xs, wx, wh, b, wy, tg = inp
        gr = eg.grad(lambda a, b_, c_, d_: lstm.loss_eager(xs, a, b_, c_, d_, tg))
        return gr(wx, wh, b, wy)

    #: The step is a gradient, so the tape's step is ``tape``: it is timed
    #: once and reported under both baseline names.
    tape_step = None

    def self_check(self) -> None:
        xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 3, 2, 2, self.seed)
        args = (xs, wx, wh, b, wy, tg)
        fd = central_grad(lambda a: lstm.loss_np(*a), args, [1, 2, 3, 4])
        for got, want in zip(lstm.grad_manual(*args), fd):
            assert_close("lstm manual grad vs fd", got, want, FD_RTOL)


WORKLOADS = {w.name: w for w in (KMeansNewton, LstmGrad)}
