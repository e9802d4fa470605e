"""Behavioral regression tests for the bugs reprolint's first run found.

Each test pins the *functional* behavior of a fix; the lint-level
guarantee (the finding stays gone) is pinned by
``test_analysis_runner.TestRunLint.test_repo_is_clean_against_checked_in_baseline``.
"""

import threading

import pytest

from repro.util.budget import FootprintBudget
from repro.disk.backup import DiskBackup
from repro.errors import StateError
from repro.server.leaf import LeafServer, LeafStatus


def make_leaf(shm_namespace, tmp_path, clock):
    return LeafServer(
        "0",
        backup=DiskBackup(tmp_path / "leaf-0"),
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
