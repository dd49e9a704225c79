"""Fixed reference computations that time the machine, not the program.

Each one does a fixed amount of work of one kind, in plain NumPy and
Python, and imports nothing from ``repro``, so no change to the program
can move it.  The worker times one right after each measured sample,
outside the timed region; the ratio of the two cancels what the machine's
speed does to both at that moment.  The gated times are these ratios
times the reference's nominal time (``NOMINAL_S``): seconds on a machine
as fast as the one the bounds were set on was at its median.

* ``array`` — large-array NumPy (distances, argmin, a histogram), the kind
  of work a k-means Newton step does.
* ``dispatch`` — many NumPy calls on tiny arrays in a Python loop, the kind
  of work an LSTM gradient does.
* ``interp`` — pure Python over trees, tuples and dicts, the kind of work
  tracing, optimising, differentiating and lowering do.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from stats import Timing

#: Median time of each reference on the 2-vCPU x86_64 machine the bounds
#: were set on (twelve 40-s runs, both workloads).
NOMINAL_S = {"array": 0.0134, "dispatch": 0.0135, "interp": 0.0230}

_RNG = np.random.default_rng(20240101)
_PTS = _RNG.standard_normal((2000, 32))
_CTR = _RNG.standard_normal((32, 32))
_XS = _RNG.standard_normal((40, 16, 10))
_WX = _RNG.standard_normal((10, 64)) * 0.1
_WH = _RNG.standard_normal((16, 64)) * 0.1
_B = np.zeros(64)


def _array() -> float:
    d = ((_PTS[:, None, :] - _CTR[None, :, :]) ** 2).sum(axis=2)
    a = d.argmin(axis=1)
    counts = np.bincount(a, minlength=_CTR.shape[0])
    sums = np.zeros_like(_CTR)
    np.add.at(sums, a, _PTS)
    return float(sums.sum()) + float(counts[0])


def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def _dispatch() -> float:
    total = 0.0
    for _ in range(8):
        h = np.zeros((16, 16))
        c = np.zeros((16, 16))
        for t in range(_XS.shape[0]):
            z = _XS[t] @ _WX + h @ _WH + _B
            i, f, o, g = _sig(z[:, :16]), _sig(z[:, 16:32]), _sig(z[:, 32:48]), np.tanh(z[:, 48:])
            c = f * c + i * g
            h = o * np.tanh(c)
        total += float(h.sum())
    return total


def _tree(depth: int, k: int):
    if depth == 0:
        return ("leaf", k)
    return ("node", k, _tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))


def _interp() -> int:
    total = 0
    for _ in range(4):
        tree = _tree(11, 1)
        memo = {}
        stack = [tree]
        while stack:
            t = stack.pop()
            key = (t[0], t[1])
            memo[key] = memo.get(key, 0) + len(t)
            if t[0] == "node":
                stack.append(t[2])
                stack.append(t[3])
        names = sorted(f"v{k}_{n}" for (_, k), n in memo.items())
        total += len(names) + hash(tuple(names[:64])) % 7
    return total


REFERENCES = {"array": _array, "dispatch": _dispatch, "interp": _interp}


def normalised(samples: Sequence[float], refs: Sequence[float], kind: str) -> Timing:
    """Each sample over the ``kind`` reference timed right after it, in
    nominal seconds."""
    if len(samples) != len(refs):
        raise ValueError(f"{len(samples)} samples but {len(refs)} reference times")
    return Timing.of([s / r * NOMINAL_S[kind] for s, r in zip(samples, refs)])
