"""Box-speed probe: how fast is this machine right now?

The sandbox's CPU delivers +-15 % from one second to the next and drifts
as much over minutes, so a wall time means little without knowing the
speed of the box when it was taken.  The probe is five pieces of fixed
work that belong to the benchmark and call nothing of the program under
test — a bytecode loop, a sort of boxed floats (pointer chasing), a
numpy sum over 32 MB (memory bandwidth), a burst of dict allocation and
a run of small numpy calls (what a query kernel does per block) —
because interference does not slow every kind of work alike, and the
program does all five kinds.  A run's **speed factor** is the mean, over
the pieces, of the piece's median time in that run over its reference
time; timed metrics are reported divided by it.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import numpy as np

#: Median milliseconds per piece on the reference box when it is quiet.
REFERENCE_MS = {"loop": 4.4, "sort": 5.0, "stream": 2.75, "alloc": 3.0, "calls": 1.95}


def _loop() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


class Probe:
    """Times the five pieces; keeps every reading of one run."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._floats = [rng.random() for _ in range(40_000)]
        self._array = np.ones(4_000_000)
        self._keys = [np.arange(512, dtype=np.int64) % (3 + i) for i in range(8)]
        self._weights = np.linspace(0.0, 1.0, 512)
        self.readings: dict[str, list[float]] = {name: [] for name in REFERENCE_MS}
        self.sample()  # first use pays imports and page faults: not a reading
        for readings in self.readings.values():
            readings.clear()

    def _alloc(self) -> None:
        # Collector pauses are the program's business, not the box's.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            rows = [{"a": i, "b": i * 0.5, "c": "x"} for i in range(15_000)]
            del rows
        finally:
            if was_enabled:
                gc.enable()

    def _calls(self) -> None:
        weights = self._weights
        for _ in range(60):
            for keys in self._keys:
                mask = keys > 1
                np.bincount(keys[mask], weights=weights[mask], minlength=16)

    def sample(self) -> float:
        """Run every piece once; returns the milliseconds it took."""
        total = 0.0
        for name, piece in (
            ("loop", _loop),
            ("sort", lambda: sorted(self._floats)),
            ("stream", self._array.sum),
            ("alloc", self._alloc),
            ("calls", self._calls),
        ):
            started = perf_counter()
            piece()
            elapsed = (perf_counter() - started) * 1e3
            self.readings[name].append(elapsed)
            total += elapsed
        return total

    def speed_factor(self) -> float:
        """How much slower than the reference box this run's box was."""
        return statistics.fmean(
            statistics.median(self.readings[name]) / reference
            for name, reference in REFERENCE_MS.items()
        )
