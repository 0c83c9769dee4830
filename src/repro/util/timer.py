"""Simulated clock used by the cluster, deployment, and benchmark layers.

The paper's cluster-scale results (Table 1, the <30-minute deployment claim,
Figure 9 failover) depend on hardware we do not have.  All such experiments
therefore run on a :class:`SimClock`: components *charge* time to the clock
according to an explicit cost model instead of sleeping, which makes every
benchmark deterministic and laptop-independent.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before zero")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (>= 0) and return the new time."""
        if seconds < 0:
            raise ValueError("cannot advance clock by negative time")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:
        return "SimClock(now=%.6f)" % self._now
