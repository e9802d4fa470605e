"""Behavioral regression tests for the lock bugs the lock checkers found.

Each test pins the *functional* behavior of a fix, by a scripted
interleaving where the bug needs one; the CI ``reprosan`` job keeps the
lock discipline around them checked at runtime.
"""

import threading

import pytest

from repro.disk.backup import DiskBackup
from repro.errors import StateError
from repro.query.query import Aggregation, Query
from repro.server.aggregator import Aggregator
from repro.server.leaf import LeafServer, LeafStatus
from repro.util.budget import FootprintBudget


def make_leaf(shm_namespace, tmp_path, clock, leaf_id="0"):
    return LeafServer(
        leaf_id,
        backup=DiskBackup(tmp_path / f"leaf-{leaf_id}"),
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=50,
    )


class TestBudgetRepr:
    def test_repr_reads_consistent_state(self):
        budget = FootprintBudget(100)
        budget.acquire(40)
        text = repr(budget)
        assert "in_flight=40" in text
        assert "peak=40" in text
        budget.release(40)

    def test_repr_does_not_deadlock_under_contention(self):
        budget = FootprintBudget(100)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                budget.acquire(10)
                budget.release(10)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(200):
                repr(budget)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestLeafCrash:
    def test_crash_drops_heap_and_goes_down(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", [{"time": 1000, "v": 1.0}])
        leaf.crash()
        assert leaf.status is LeafStatus.DOWN
        assert leaf.used_bytes == 0


class TestExpireStatusGate:
    def test_expire_refused_when_down(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        with pytest.raises(StateError):
            leaf.expire(60)

    def test_expire_works_when_alive(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        now = int(clock.now())
        leaf.add_rows("events", [{"time": now - 3600, "v": 1.0}])
        leaf.leafmap.seal_all()  # expiry only visits sealed blocks
        assert leaf.expire(60) == 1

    def test_crash_during_expiry_cannot_interleave(
        self, shm_namespace, tmp_path, clock
    ):
        """crash() takes the lock now, so a concurrent expire() either
        completes first or sees DOWN — never a half-expired leafmap."""
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        now = int(clock.now())
        leaf.add_rows("events", [{"time": now - 3600, "v": 1.0}] * 5)
        errors = []

        def expire_loop():
            for _ in range(20):
                try:
                    leaf.expire(60)
                except StateError:
                    return

        def crash_late():
            leaf.crash()

        expirer = threading.Thread(target=expire_loop)
        crasher = threading.Thread(target=crash_late)
        expirer.start()
        crasher.start()
        expirer.join(timeout=10)
        crasher.join(timeout=10)
        assert not errors
        assert leaf.status is LeafStatus.DOWN
        assert leaf.used_bytes == 0


class TestAggregatorGateRace:
    def test_a_leaf_down_between_the_gate_and_the_query_fails_over(
        self, shm_namespace, tmp_path, clock
    ):
        """Check-then-act on ``accepts_queries``: the leaf passes the
        lock-free gate and is down by the time ``query`` takes its lock.
        The re-check under the lock raises, and the aggregator answers
        that share from the replica instead of failing the query."""
        primary = make_leaf(shm_namespace, tmp_path, clock)
        replica = make_leaf(shm_namespace, tmp_path, clock, leaf_id="1")
        rows = [{"time": 1000 + i, "v": float(i)} for i in range(10)]
        for leaf in (primary, replica):
            leaf.start()
            leaf.add_rows("events", rows)
        query = primary.query

        def query_after_a_crash(q):
            primary.crash()  # lands between the gate and the lock
            return query(q)

        primary.query = query_after_a_crash
        aggregator = Aggregator([primary], replica_router=lambda leaf_id: replica)
        result = aggregator.query(
            Query(table="events", aggregations=(Aggregation("count"),))
        )
        assert result.leaves_responded == result.leaves_total == 1
        assert result.rows[0].values["count(*)"] == 10
        assert aggregator.failovers == 1
