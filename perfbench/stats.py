"""Sample summaries for the benchmark: every metric carries its own samples.

A ``Timing`` is the value a measurement hands to whoever reports it, so no
number is ever read back from a "last measurement" global.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Timing:
    """Samples of one time, in seconds (wall-clock or nominal, see
    ``reference.py``)."""

    samples: Tuple[float, ...]

    @classmethod
    def of(cls, xs: Sequence[float]) -> "Timing":
        if not xs:
            raise ValueError("a timing needs at least one sample")
        return cls(tuple(float(x) for x in xs))

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def quartiles(self) -> Tuple[float, float]:
        if self.n < 2:
            return self.samples[0], self.samples[0]
        q1, _, q3 = statistics.quantiles(self.samples, n=4)
        return q1, q3

    def tail(self) -> Tuple[float, float]:
        """``(value, percentile)`` of the highest percentile with at least
        ``TAIL_BEYOND`` samples above it; with too few samples for that, the
        maximum (percentile 100)."""
        xs = sorted(self.samples)
        k = max(self.n - TAIL_BEYOND, 0)  # samples at or below the reported one
        if k == 0:
            return xs[-1], 100.0
        return xs[k - 1], 100.0 * k / self.n

    def summary(self) -> Dict[str, object]:
        q1, q3 = self.quartiles()
        tail, pct = self.tail()
        return {
            "n": self.n,
            "median": self.median,
            "q1": q1,
            "q3": q3,
            "tail": tail,
            "tail_percentile": pct,
        }
