"""Small shared utilities: fresh-name supply, error types, bounded LRU."""
from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from typing import Tuple

__all__ = [
    "ReproError",
    "IRError",
    "TypeError_",
    "ADError",
    "ExecError",
    "NameSupply",
    "fresh",
    "reset_names",
    "BoundedLRU",
    "env_capacity",
    "env_choice",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed IR (construction or validation failure)."""


class TypeError_(ReproError):
    """IR type error (suffixed to avoid shadowing the builtin)."""


class ADError(ReproError):
    """A program cannot be differentiated (unsupported construct/shape)."""


class ExecError(ReproError):
    """Runtime failure while executing IR."""


class NameSupply:
    """Thread-safe supply of fresh SSA names.

    Names are ``<base>_<counter>``; the counter is global so every generated
    name in a program is unique, which the AD transforms rely on.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def fresh(self, base: str = "t") -> str:
        # Strip any previous numeric suffix so repeated freshening doesn't
        # produce ever-growing names like x_1_2_3.
        stem, _, tail = base.rpartition("_")
        if stem and tail.isdigit():
            base = stem
        with self._lock:
            return f"{base}_{next(self._counter)}"


_GLOBAL_SUPPLY = NameSupply()


def fresh(base: str = "t") -> str:
    """Return a globally fresh name derived from ``base``."""
    return _GLOBAL_SUPPLY.fresh(base)


#: Sentinel distinguishing "no entry" from a stored ``None`` in
#: ``BoundedLRU.get`` — a stored ``None`` is a real value and must both be
#: returned and refreshed as most-recently used.
_MISSING = object()


class BoundedLRU:
    """An access-ordered mapping bounded to a capacity supplied at put time.

    Shared by the optimisation memo, the analysis memos, and the plan cache:
    all key immutable values by object identity (holding strong references so
    ids cannot be recycled while entries live) and bound growth with an
    env-configured capacity read per call, so they stay behaviourally
    identical.

    Thread safety: every operation takes an internal re-entrant lock —
    ``OrderedDict.move_to_end``/``popitem`` are not safe under concurrent
    mutation (the shard executor's thread mode resolves plans from pool
    workers).  Compound caller sequences (get-then-put) remain benign races:
    the worst case is one duplicate lowering, never a corrupted mapping.
    """

    def __init__(self) -> None:
        self._d: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key, default=None):
        """The stored value (refreshed as most-recent), or ``default``.

        A stored ``None`` is a hit, not a miss: it is refreshed and returned
        like any other value (callers that store ``None`` distinguish a miss
        by passing their own sentinel ``default``).
        """
        with self._lock:
            v = self._d.get(key, _MISSING)
            if v is _MISSING:
                return default
            self._d.move_to_end(key)
            return v

    def put(self, key, value, capacity: int) -> int:
        """Store ``key``; evict least-recent entries beyond ``capacity``
        (``capacity <= 0`` means unbounded).  Returns the eviction count."""
        with self._lock:
            self._d[key] = value
            self._d.move_to_end(key)
            n = 0
            if capacity > 0:
                while len(self._d) > capacity:
                    self._d.popitem(last=False)
                    n += 1
            return n

    def __len__(self) -> int:
        with self._lock:
            return len(self._d)

    def clear(self) -> None:
        with self._lock:
            self._d.clear()


def env_capacity(var: str, default: int) -> int:
    """An integer cache capacity from the environment (read at call time)."""
    try:
        return int(os.environ.get(var, default))
    except ValueError:
        return default


def env_choice(var: str, default: str, choices: Tuple[str, ...]) -> str:
    """An enumerated knob from the environment (read at call time,
    case-insensitive); a value outside ``choices`` raises ``ReproError``
    naming the variable and the valid set instead of silently falling back
    to the default."""
    raw = os.environ.get(var)
    if raw is None:
        return default
    mode = raw.strip().lower()
    if mode not in choices:
        raise ReproError(f"{var}={raw!r}: expected one of {', '.join(choices)}")
    return mode


def reset_names() -> None:
    """Reset the global name counter (tests only — not thread safe)."""
    global _GLOBAL_SUPPLY
    _GLOBAL_SUPPLY = NameSupply()
