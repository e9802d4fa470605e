"""Property tests for the logical memory tracker.

Random runs of ``allocate`` / ``free`` / ``charge`` / ``discharge`` /
``reset_peak`` (frees larger than a region holds included) against a
plain model: the running total is the sum of the regions, the peak only
rises until it is reset, a name's charge never goes negative, and the
audit hook sees every byte that is allocated or freed exactly once.
"""

import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import memtrack
from repro.util.memtrack import MemoryTracker

REGIONS = ("heap", "shm")
NAMES = ("seg-a", "seg-b")
SIZES = st.integers(min_value=0, max_value=64)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.sampled_from(REGIONS), SIZES),
        st.tuples(st.just("free"), st.sampled_from(REGIONS), SIZES),
        st.tuples(st.just("charge"), st.sampled_from(REGIONS), st.sampled_from(NAMES), SIZES),
        st.tuples(
            st.just("discharge"),
            st.sampled_from(REGIONS),
            st.sampled_from(NAMES),
            st.none() | SIZES,
        ),
        st.tuples(st.just("reset_peak")),
    ),
    max_size=60,
)


@contextmanager
def audited():
    """The audit hook's calls, in order; any hook already installed (the
    runtime sanitizer's) still sees them too."""
    seen = []

    def hook(event, region, nbytes, tracker_id):
        seen.append((event, region, nbytes, tracker_id))
        if previous is not None:
            previous(event, region, nbytes, tracker_id)

    previous = memtrack.set_audit_hook(hook)
    try:
        yield seen
    finally:
        memtrack.set_audit_hook(previous)


class Model:
    """What the tracker should hold, and which hook calls it owes."""

    def __init__(self):
        self.regions = {}
        self.charges = {}
        self.events = []

    def allocate(self, region, nbytes):
        self.regions[region] = self.regions.get(region, 0) + nbytes
        self.events.append(("allocate", region, nbytes))

    def free(self, region, nbytes):
        if nbytes > self.regions.get(region, 0):
            raise ValueError("over-free")
        self.regions[region] = self.regions.get(region, 0) - nbytes
        self.events.append(("free", region, nbytes))

    def charge(self, region, name, nbytes):
        self.allocate(region, nbytes)
        self.charges[name] = self.charges.get(name, 0) + nbytes

    def discharge(self, region, name, nbytes):
        held = self.charges.get(name, 0)
        nbytes = held if nbytes is None else nbytes
        if nbytes:
            self.free(region, nbytes)
        if held > nbytes:
            self.charges[name] = held - nbytes
        else:
            self.charges.pop(name, None)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_tracker_matches_its_model(ops):
    tracker = MemoryTracker()
    model = Model()
    peak = 0
    with audited() as seen:
        for op, *args in ops:
            if op == "reset_peak":
                tracker.reset_peak()
                peak = tracker.total
                assert tracker.peak_total == peak
                continue
            try:
                getattr(model, op)(*args)
            except ValueError:  # an over-free: refused, and nothing changes
                with pytest.raises(ValueError):
                    getattr(tracker, op)(*args)
            else:
                getattr(tracker, op)(*args)
            assert tracker.total == sum(tracker.regions.values()) == sum(model.regions.values())
            assert {r: n for r, n in tracker.regions.items() if n} == {
                r: n for r, n in model.regions.items() if n
            }
            assert tracker.charges == model.charges
            assert all(n >= 0 for n in tracker.charges.values())
            assert tracker.peak_total >= peak  # monotone until reset
            peak = max(peak, tracker.total)
            assert tracker.peak_total == peak
    assert seen == [(*event, id(tracker)) for event in model.events]


def test_negative_sizes_are_refused_and_not_audited():
    tracker = MemoryTracker()
    with audited() as seen:
        for op in (tracker.allocate, tracker.free):
            with pytest.raises(ValueError):
                op("heap", -1)
    assert tracker.total == tracker.peak_total == 0
    assert seen == []


def test_regions_given_at_construction_count_toward_the_total():
    tracker = MemoryTracker(regions={"heap": 5, "shm": 7})
    assert tracker.total == 12
    tracker.free("shm", 7)
    assert tracker.total == 5


def test_shared_tracker_balances_across_threads():
    """Leaves restarting in parallel share one tracker: interleaved
    charges and discharges leave the total and the regions in step."""
    tracker = MemoryTracker()

    def leaf(index):
        name = f"seg-{index}"
        for _ in range(300):
            tracker.allocate("heap", 3)
            tracker.charge("shm", name, 5)
            tracker.free("heap", 3)
        tracker.discharge("shm", name)

    threads = [threading.Thread(target=leaf, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert tracker.total == sum(tracker.regions.values()) == 0
    assert tracker.charges == {}
    assert 8 <= tracker.peak_total <= 4 * 300 * 5 + 4 * 3
