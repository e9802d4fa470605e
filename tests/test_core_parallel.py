"""Stress tests for the parallel restart subsystem.

Eight leaves of one machine go through shutdown-to-shared-memory and
restore concurrently, and the single-leaf guarantees must survive the
fan-out:

- restart equivalence (invariant 3): every leaf's data is bit-identical
  after the cycle;
- the valid-bit protocol (invariant 4): valid after backup, all shared
  memory gone after restore, and a mid-restore failure routes that leaf
  — and only that leaf — to disk;
- the machine-wide footprint bound (invariant 5): with a shared tracker
  and a :class:`FootprintBudget`, the peak stays at data + budgeted
  in-flight windows, not data + one window per concurrent leaf.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import RecoveryMethod
from repro.errors import CorruptionError, ShutdownTimeout
from repro.server.machine import Machine
from repro.shm.metadata import LeafMetadata
from repro.shm.layout import table_segment_size
from repro.util.budget import FootprintBudget
from repro.util.clock import ManualClock
from tests.crashpoints import Recorder

LEAVES = 8


def new_machine(shm_namespace, tmp_path, clock, leaves=LEAVES):
    """Leaves on one shared tracker; a second call is the same machine
    restarted: new leaves and tracker, the same namespace and backups."""
    return Machine(
        "m0",
        tmp_path,
        leaves_per_machine=leaves,
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=32,
        shared_tracker=True,
    )


def make_machine(shm_namespace, tmp_path, clock, leaves=LEAVES):
    machine = new_machine(shm_namespace, tmp_path, clock, leaves)
    machine.start_all()
    for index, leaf in enumerate(machine.leaves):
        # Distinct data per leaf so a cross-wired restore cannot pass.
        leaf.add_rows(
            "events",
            [
                {
                    "time": 1000 + row,
                    "host": f"leaf{index}-web{row % 5}",
                    "latency_ms": float(index * 1000 + row),
                }
                for row in range(90)
            ],
        )
        leaf.add_rows(
            "metrics",
            [{"time": 2000 + row, "value": float(index) + row} for row in range(40)],
        )
        leaf.leafmap.seal_all()
    return machine


def sealed_bytes(machine) -> int:
    return sum(
        table.sealed_nbytes for leaf in machine.leaves for table in leaf.leafmap
    )


def max_segment_bytes(machine) -> int:
    return max(
        table_segment_size(table.name, table.blocks)
        for leaf in machine.leaves
        for table in leaf.leafmap
    )


class TestFootprintBudget:
    def test_tracks_in_flight_and_peak(self):
        budget = FootprintBudget(100)
        budget.acquire(60)
        budget.acquire(30)
        assert budget.in_flight == 90
        budget.release(60)
        assert budget.in_flight == 30
        assert budget.peak_in_flight == 90
        budget.release(30)
        assert budget.in_flight == 0
        assert budget.peak_in_flight == 90

    def test_blocks_until_release(self):
        budget = FootprintBudget(100)
        budget.acquire(80)
        acquired = threading.Event()

        def worker():
            budget.acquire(40)
            acquired.set()
            budget.release(40)

        thread = threading.Thread(target=worker)
        thread.start()
        assert not acquired.wait(0.05), "acquire should block while over budget"
        budget.release(80)
        assert acquired.wait(2.0), "release should wake the blocked acquirer"
        thread.join()
        assert budget.blocked_acquires == 1
        assert budget.in_flight == 0

    def test_oversized_request_admitted_only_alone(self):
        budget = FootprintBudget(10)
        budget.acquire(4)
        admitted = threading.Event()

        def worker():
            budget.acquire(50)  # larger than the whole budget
            admitted.set()
            budget.release(50)

        thread = threading.Thread(target=worker)
        thread.start()
        assert not admitted.wait(0.05), "oversized must wait for an empty budget"
        budget.release(4)
        assert admitted.wait(2.0)
        thread.join()
        assert budget.peak_in_flight == 50

    def test_oversized_request_cannot_be_starved_by_small_ones(self):
        """Regression: admission is FIFO by ticket.  Before ticketing, a
        release woke every waiter and any small request could slip in
        ahead of an oversized one, keeping the budget non-empty — the
        oversized waiter starved forever.  Now a small request that
        arrives behind an oversized one must queue behind it."""
        budget = FootprintBudget(10)
        budget.acquire(6)
        oversized_in = threading.Event()
        small_in = threading.Event()

        def oversized():
            budget.acquire(50)
            oversized_in.set()
            budget.release(50)

        def small():
            budget.acquire(4)
            small_in.set()
            budget.release(4)

        big = threading.Thread(target=oversized)
        big.start()
        deadline = time.monotonic() + 5.0
        while budget.blocked_acquires < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        little = threading.Thread(target=small)
        little.start()
        deadline = time.monotonic() + 5.0
        while budget.blocked_acquires < 2 and time.monotonic() < deadline:
            time.sleep(0.002)
        # 6 + 4 fits the budget, but FIFO forbids jumping the line.
        assert not small_in.wait(0.05), "small request overtook the oversized one"
        budget.release(6)
        assert oversized_in.wait(2.0), "oversized request starved"
        assert small_in.wait(2.0), "queue stalled behind the oversized admission"
        big.join()
        little.join()
        assert budget.in_flight == 0
        assert budget.peak_in_flight == 50

    def test_abandoned_ticket_does_not_block_the_line(self, monkeypatch):
        """A waiter that dies inside its wait loop gives its ticket up:
        the next acquire in line is admitted as soon as it fits."""
        budget = FootprintBudget(10)
        budget.acquire(10)
        served, checks = budget._served, []

        def interrupted(ticket, nbytes):
            # The first check queues the ticket; the loop's re-check,
            # on the waiter's wake-up, is where it dies.
            checks.append(ticket)
            if len(checks) > 1:
                raise KeyboardInterrupt
            return served(ticket, nbytes)

        with monkeypatch.context() as patch:
            patch.setattr(budget, "_served", interrupted)
            with pytest.raises(KeyboardInterrupt):
                budget.acquire(5)
        admitted = threading.Event()

        def later():
            budget.acquire(5)
            admitted.set()

        thread = threading.Thread(target=later)
        thread.start()
        assert not admitted.wait(0.05)  # still full
        budget.release(10)
        assert admitted.wait(2.0), "the abandoned ticket wedged the queue"
        thread.join()
        assert budget.in_flight == 5
        budget.release(5)
        assert budget.in_flight == 0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            FootprintBudget(0)
        budget = FootprintBudget(10)
        with pytest.raises(ValueError):
            budget.acquire(-1)
        with pytest.raises(ValueError):
            budget.release(1)  # nothing in flight


class TestParallelRestartEquivalence:
    def test_eight_leaves_restart_in_parallel(self, shm_namespace, tmp_path, clock):
        machine = make_machine(shm_namespace, tmp_path, clock)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        report = machine.restart_all(workers=LEAVES)
        assert report.failures == []
        assert all(o.report.method is RecoveryMethod.SHARED_MEMORY
                   for o in report.restore)
        # Invariant 3: restart equivalence, leaf by leaf.
        for leaf, snapshot in zip(machine.leaves, snapshots):
            assert leaf.is_alive
            assert leaf.leafmap.snapshot_rows() == snapshot
        # Invariant 4: the protocol consumed all shared memory state.
        for leaf in machine.leaves:
            assert not leaf.engine.shm_state_exists()

    def test_valid_bit_set_by_parallel_backup(self, shm_namespace, tmp_path, clock):
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=4)
        outcomes = machine.shutdown_all()
        assert all(o.ok for o in outcomes)
        # Every leaf's valid bit is set — each would restore from memory.
        for leaf in machine.leaves:
            assert leaf.engine.shm_state_valid()
        outcomes = machine.start_all()
        assert all(o.ok for o in outcomes)
        for leaf in machine.leaves:
            assert not leaf.engine.shm_state_exists()

    def test_worker_sweep_preserves_data(self, shm_namespace, tmp_path, clock):
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=4)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        for workers in (1, 2, 4):
            report = machine.restart_all(workers=workers)
            assert report.failures == []
            for leaf, snapshot in zip(machine.leaves, snapshots):
                assert leaf.leafmap.snapshot_rows() == snapshot


class TestMachineFootprintBudget:
    def test_peak_bounded_by_data_plus_budget(self, shm_namespace, tmp_path, clock):
        """Invariant 5, machine-wide: run the two phases separately so
        the bound can use the measured segment total, then assert the
        shared tracker's peak against data + budget exactly."""
        machine = make_machine(shm_namespace, tmp_path, clock)
        data_bytes = sealed_bytes(machine)
        # Big enough that no request needs the oversized-admission rule,
        # small enough that 8 unbudgeted windows would blow through it.
        limit = max(max_segment_bytes(machine), data_bytes // 3)
        budget = FootprintBudget(limit)
        tracker = machine.tracker
        assert tracker is not None

        outcomes = machine.shutdown_all(budget_bytes=budget)
        assert all(o.ok for o in outcomes)
        shm_total = tracker.in_region("shm")
        assert shm_total >= data_bytes
        assert tracker.in_region("heap") == 0
        # Peak so far: remaining heap + written segments + in-flight
        # windows.  Segment preambles make shm_total the data term.
        assert tracker.peak_total <= shm_total + limit

        outcomes = machine.start_all(budget_bytes=budget)
        assert all(o.ok for o in outcomes)
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") >= data_bytes
        # Over the whole cycle: never data + one window per leaf.
        assert tracker.peak_total <= shm_total + limit
        assert budget.peak_in_flight <= limit

    def test_tiny_budget_serializes_but_completes(
        self, shm_namespace, tmp_path, clock
    ):
        """A budget smaller than any single table exercises the
        oversized-admission rule: copies run one at a time, the machine
        still restarts, and the data survives."""
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=4)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        report = machine.restart_all(workers=4, budget_bytes=1024)
        assert report.failures == []
        assert report.peak_in_flight_bytes > 1024  # oversized admissions ran
        for leaf, snapshot in zip(machine.leaves, snapshots):
            assert leaf.leafmap.snapshot_rows() == snapshot


class TestFailureIsolation:
    def test_midrestore_failure_does_not_poison_siblings(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """One leaf dies mid-restore (after its first table): it must
        fall back to disk by itself while the other seven restore from
        shared memory, all ending with identical data."""
        machine = make_machine(shm_namespace, tmp_path, clock)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        victim = machine.leaves[3]

        outcomes = machine.shutdown_all()
        assert all(o.ok for o in outcomes)
        # The victim's first table is home: its segment goes, and raises.
        recorder = Recorder(monkeypatch)
        recorder.fail(
            kind="unlink",
            target=f"-leaf-{victim.leaf_id}-t0",
            exc=CorruptionError("injected mid-restore failure"),
        )
        outcomes = machine.start_all()
        assert recorder.fired, "the injected fault never fired"
        assert all(o.ok for o in outcomes), "no leaf may surface the failure"
        by_leaf = {o.leaf_id: o for o in outcomes}
        assert by_leaf[victim.leaf_id].report.method is RecoveryMethod.DISK_SNAPSHOT
        assert by_leaf[victim.leaf_id].report.fell_back_to_disk
        for leaf in machine.leaves:
            if leaf is not victim:
                assert by_leaf[leaf.leaf_id].report.method is (
                    RecoveryMethod.SHARED_MEMORY
                )
        # Equivalence holds for everyone — the victim via its synced disk
        # backup, the siblings via shared memory.
        for leaf, snapshot in zip(machine.leaves, snapshots):
            assert leaf.is_alive
            assert leaf.leafmap.snapshot_rows() == snapshot
            assert not leaf.engine.shm_state_exists()

    def test_shutdown_timeout_midcopy_spares_siblings(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """One leaf overruns its deadline mid-copy of its first table on
        a shared tracker: its next boot must not free more shm than that
        copy charged, so every sibling still restores from shared
        memory and the machine's shm region ends empty."""
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=4)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        # One worker restores the victim first, while every sibling
        # still holds its whole shm charge for an over-free to take.
        victim = machine.leaves[0]
        # The deadline reads the leaf's clock: give the victim its own,
        # and move it past the deadline as its first segment appears.
        victim.clock = ManualClock(clock.now())
        recorder = Recorder(monkeypatch)
        recorder.before(
            lambda effect: victim.clock.advance(120.0),
            kind="create",
            target=f"-leaf-{victim.leaf_id}-t0",
        )
        report = machine.restart_all(workers=1, deadline_seconds=60.0)
        by_leaf = {o.leaf_id: o for o in report.shutdown}
        assert isinstance(by_leaf[victim.leaf_id].error, ShutdownTimeout)
        restored = {o.leaf_id: o for o in report.restore}
        assert all(o.ok for o in report.restore)
        assert restored[victim.leaf_id].report.method is RecoveryMethod.DISK_SNAPSHOT
        for leaf, snapshot in zip(machine.leaves, snapshots):
            if leaf is not victim:
                assert restored[leaf.leaf_id].report.method is (
                    RecoveryMethod.SHARED_MEMORY
                )
            assert leaf.leafmap.snapshot_rows() == snapshot
        assert machine.tracker.in_region("shm") == 0


class TestBudgetHandback:
    @pytest.mark.parametrize("serving", [False, True])
    @pytest.mark.parametrize("failing", [False, True])
    def test_engines_get_their_budgets_back(
        self, shm_namespace, tmp_path, clock, monkeypatch, serving, failing
    ):
        """The machine-wide budget is on loan for a phase: afterwards
        every engine holds whatever it held before — its own budget or
        none — and nothing is left in flight, whether the restore
        blocked or served and whether or not a leaf failed outright."""
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=4)
        own = FootprintBudget(1 << 30)
        machine.leaves[0].engine.budget = own
        before = [leaf.engine.budget for leaf in machine.leaves]
        victim = machine.leaves[2]

        def explode(*args):
            raise RuntimeError("injected start failure")

        if failing:  # before the ladder: nothing catches it
            monkeypatch.setattr(victim.engine, "_begin_restore", explode)
        budget = FootprintBudget(max_segment_bytes(machine))
        report = machine.restart_all(budget_bytes=budget, serve_while_restoring=serving)
        machine.wait_restored_all(timeout=30)
        assert [o.leaf_id for o in report.failures] == (
            [victim.leaf_id] if failing else []
        )
        assert budget.peak_in_flight > 0  # the loan was really used
        for leaf, held in zip(machine.leaves, before):
            assert leaf.engine.budget is held
        assert budget.in_flight == 0
        assert own.in_flight == 0
        if failing:  # never restored: its valid shm image is still there
            assert victim.engine.discard_shm()


class TestSharedTrackerCharges:
    """A shared tracker's "shm" region is charged per segment, so a leaf
    gives back exactly its own segments' bytes, whatever its siblings
    hold."""

    def test_fresh_machine_serves_every_leaf_from_shm(
        self, shm_namespace, tmp_path, clock
    ):
        """Every leaf's publish charges its own segments: before, only
        the first leaf's did (the region was no longer empty), and the
        second leaf's first release underflowed it, leaving its
        metadata segment behind."""
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=2)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        machine.shutdown_all()
        fresh = new_machine(shm_namespace, tmp_path, clock, leaves=2)
        for leaf in fresh.leaves:
            leaf.start(serve_while_restoring=True, sweep=False)
        assert fresh.tracker.in_region("shm") > 0
        for leaf, snapshot in zip(fresh.leaves, snapshots):
            assert leaf.wait_restored().method is RecoveryMethod.SHARED_MEMORY
            assert leaf.leafmap.snapshot_rows() == snapshot
            assert not leaf.engine.shm_state_exists()
        assert fresh.tracker.in_region("shm") == 0

    def test_discarding_invalid_state_spares_a_serving_sibling(
        self, shm_namespace, tmp_path, clock
    ):
        """A leaf that discards its own untrusted segments frees only
        what the tracker holds for them (nothing, in a fresh process):
        before, it freed the whole region, the serving sibling's charge,
        and the sibling's next release raised."""
        machine = make_machine(shm_namespace, tmp_path, clock, leaves=2)
        snapshots = [leaf.leafmap.snapshot_rows() for leaf in machine.leaves]
        machine.shutdown_all()
        fresh = new_machine(shm_namespace, tmp_path, clock, leaves=2)
        serving, invalid = fresh.leaves
        meta = LeafMetadata.attach(shm_namespace, invalid.leaf_id)
        meta.set_valid(False)
        meta.close()
        serving.start(serve_while_restoring=True, sweep=False)
        charged = fresh.tracker.in_region("shm")
        assert invalid.start().method is RecoveryMethod.DISK_SNAPSHOT
        assert fresh.tracker.in_region("shm") == charged
        assert serving.wait_restored().method is RecoveryMethod.SHARED_MEMORY
        for leaf, snapshot in zip(fresh.leaves, snapshots):
            assert leaf.leafmap.snapshot_rows() == snapshot
            assert not leaf.engine.shm_state_exists()
        assert fresh.tracker.in_region("shm") == 0
