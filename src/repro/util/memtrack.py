"""Logical memory accounting.

The paper's Section 4.4 makes a precise claim: copying one row block
column at a time (allocate in shm → copy → free from heap) keeps the
total footprint of a leaf *nearly unchanged* during shutdown and restart,
whereas a copy-everything-then-free strategy would briefly need twice the
data size.  Python's allocator hides physical memory, so the restart
engine reports every logical allocate/free to a :class:`MemoryTracker`
and experiment E8 asserts the peak bound on those numbers.

A machine restarting several leaves in parallel shares one tracker across
all of their engines, so every mutation is guarded by a lock — the peak
observed then is the *machine-wide* footprint, the quantity experiment
E15 bounds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

#: Audit seam for the reprosan runtime sanitizer: when set, every
#: successful allocate/free reports (event, region, nbytes, tracker_id)
#: so a test harness can balance charges against frees per tracker.
#: None in production — the accounting itself never depends on it.
_audit_hook: "Callable[[str, str, int, int], None] | None" = None


def set_audit_hook(
    hook: "Callable[[str, str, int, int], None] | None",
) -> "Callable[[str, str, int, int], None] | None":
    """Install (or clear, with ``None``) the audit hook; returns the
    previous hook so callers can restore it."""
    global _audit_hook
    previous = _audit_hook
    _audit_hook = hook
    return previous


@dataclass
class MemoryTracker:
    """Tracks logically-allocated bytes per region and the global peak.

    Regions are free-form labels — the restart engine uses ``"heap"`` and
    ``"shm"`` — and the invariant of interest is on the *sum* across
    regions, since a real machine has one pool of physical memory.

    Thread-safe: concurrent engines (one per leaf on a machine) may share
    a single tracker, and the recorded peak is then the true high-water
    mark across their interleaved copies.
    """

    regions: dict[str, int] = field(default_factory=dict)
    _peak: int = 0
    #: Bytes held per named allocation (a shared memory segment), for
    #: owners that must give back exactly what a name was charged: a
    #: leaf freeing its segment never takes a sibling's bytes, and an
    #: owner that finds a name already charged does not charge it twice.
    #: A name has one owner at a time (a segment, its leaf).
    charges: dict[str, int] = field(default_factory=dict)
    #: ``sum(regions.values())``, kept in step by :meth:`allocate` and
    #: :meth:`free` so a change costs O(1), not a pass over the regions.
    _total: int = field(default=0, init=False, repr=False, compare=False)
    # The lambda defers the `threading.RLock` lookup to instance
    # creation, so a sanitizer that patches `threading` after this
    # module is imported still instruments the tracker's lock.
    _lock: threading.RLock = field(
        default_factory=lambda: threading.RLock(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._total = sum(self.regions.values())

    # allocate and free are the only mutators of the byte counts; charge
    # and discharge go through them, so whatever watches those two (the
    # audit hook, a test's recorder) sees every byte exactly once.

    def allocate(self, region: str, nbytes: int) -> None:
        """Record ``nbytes`` newly allocated in ``region``."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate a negative size ({nbytes})")
        with self._lock:
            self.regions[region] = self.regions.get(region, 0) + nbytes
            self._total += nbytes
            if self._total > self._peak:
                self._peak = self._total
        if _audit_hook is not None:
            _audit_hook("allocate", region, nbytes, id(self))

    def free(self, region: str, nbytes: int) -> None:
        """Record ``nbytes`` freed from ``region``."""
        if nbytes < 0:
            raise ValueError(f"cannot free a negative size ({nbytes})")
        with self._lock:
            current = self.regions.get(region, 0)
            if nbytes > current:
                raise ValueError(
                    f"freeing {nbytes} bytes from region '{region}' which only "
                    f"holds {current}"
                )
            self.regions[region] = current - nbytes
            self._total -= nbytes
        if _audit_hook is not None:
            _audit_hook("free", region, nbytes, id(self))

    def charge(self, region: str, name: str, nbytes: int) -> None:
        """Allocate ``nbytes`` in ``region`` on ``name``'s behalf."""
        with self._lock:
            self.allocate(region, nbytes)
            self.charges[name] = self.charges.get(name, 0) + nbytes

    def discharge(self, region: str, name: str, nbytes: int | None = None) -> None:
        """Free ``nbytes`` of ``name``'s charge in ``region`` — all of it
        by default — struck off only once the region has them back."""
        with self._lock:
            held = self.charges.get(name, 0)
            nbytes = held if nbytes is None else nbytes
            if nbytes:
                self.free(region, nbytes)
            if held > nbytes:
                self.charges[name] = held - nbytes
            else:
                self.charges.pop(name, None)

    def charged(self, name: str) -> int:
        with self._lock:
            return self.charges.get(name, 0)

    @property
    def peak_total(self) -> int:
        """The most bytes ever allocated at once across all regions."""
        with self._lock:
            return self._peak

    @property
    def total(self) -> int:
        """Bytes currently allocated across all regions."""
        with self._lock:
            return self._total

    def in_region(self, region: str) -> int:
        with self._lock:
            return self.regions.get(region, 0)

    def reset_peak(self) -> None:
        """Restart peak tracking from the current total."""
        with self._lock:
            self._peak = self._total
