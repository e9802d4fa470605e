"""A minimal discrete-event scheduler.

Events are ``(time, sequence, callback)`` triples on a heap; the sequence
number breaks ties deterministically in scheduling order, so simulations
are exactly reproducible.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventQueue:
    """Run callbacks at simulated times."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} seconds in the past")
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback))
        self._seq += 1

    @property
    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        when, _, callback = heapq.heappop(self._heap)
        self._now = when
        callback()
        return True

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Drain the queue (optionally stopping at time ``until``).

        Returns the final simulated time.  ``max_events`` guards against
        runaway feedback loops in buggy simulations.
        """
        events = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                break
            if events >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            self.step()
            events += 1
        return self._now
