"""Fixture tests for the lock-order/atomicity checker (RL7xx)."""

from pathlib import Path

from repro.analysis.checkers import lockorder
from repro.analysis.loader import load_files

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run(*names):
    return lockorder.check(load_files([FIXTURES / name for name in names]))


class TestBadFixture:
    def test_exact_findings(self):
        found = {(f.code, f.symbol) for f in run("lockorder_bad.py")}
        assert found == {
            # publish holds Directory._lock and calls into the budget;
            # rebalance holds Budget._lock and calls back — a cycle
            ("RL701", "Budget._lock -> Directory._lock -> Budget._lock"),
            # blocking work under a held lock
            ("RL702", "Directory.publish:segment.attach"),
            ("RL702", "Directory.fault_one:self._budget.acquire"),
            # gate check with an unguarded dependent call
            ("RL703", "Router.dispatch:leaf.accepts_queries"),
        }

    def test_cycle_message_names_both_orders(self):
        cycles = [f for f in run("lockorder_bad.py") if f.code == "RL701"]
        assert len(cycles) == 1
        assert "opposite orders" in cycles[0].message


class TestGoodFixture:
    def test_silent(self):
        """One-way nesting, condition-wait on the held lock, slow work
        hoisted out of the section, and both accepted check-then-act
        forms (lock-held, StateError-caught) raise nothing."""
        assert run("lockorder_good.py") == []


class TestInheritance:
    def test_subclass_hook_under_the_base_lock_is_a_region(self):
        """A hook the base calls under its lock blocks every other user of
        that lock when it sleeps, whichever class defines it."""
        found = {(f.code, f.symbol) for f in run("inheritance.py")}
        assert found == {("RL702", "Source._hook:time.sleep")}


class TestRealTree:
    CONCURRENCY_FILES = (
        "src/repro/core/lazyrestore.py",
        "src/repro/core/replicarestore.py",
        "src/repro/core/engine.py",
        "src/repro/server/leaf.py",
        "src/repro/server/aggregator.py",
        "src/repro/server/machine.py",
        "src/repro/util/budget.py",
        "src/repro/util/memtrack.py",
    )

    def _check(self, repo_root, *relpaths):
        return lockorder.check(
            load_files([repo_root / rel for rel in relpaths], root=repo_root)
        )

    def test_lock_graph_is_acyclic(self, repo_root):
        """LeafServer._lock -> RestoreDriver._lock -> budget is the only
        nesting direction; no RL701 anywhere in the concurrency layers
        (one driver class means one restorer lock — the wire source used
        to add a second one, and a name-aliased cycle with it)."""
        findings = self._check(repo_root, *self.CONCURRENCY_FILES)
        assert [f for f in findings if f.code == "RL701"] == []

    def test_only_the_designed_blocking_call_remains(self, repo_root):
        """The budget waits are the paper's designed backpressure points
        (baselined): a fault-in's block window, for every source, and the
        shm drain's table window, a hook the driver calls under its lock.
        Nothing else blocks under a lock.  The directory attach no longer
        does: a source publishes before its handle is shared, without
        the lock."""
        findings = self._check(repo_root, *self.CONCURRENCY_FILES)
        assert {f.symbol for f in findings if f.code == "RL702"} == {
            "RestoreDriver._fault_block:self._budget.acquire",
            "LazyRestore._read_blocks:self._budget.acquire",
        }

    def test_aggregator_handles_the_gate_race(self, repo_root):
        """Regression: leaf.query() is wrapped in the StateError skip,
        so the accepts_queries gate no longer check-then-acts."""
        findings = self._check(repo_root, *self.CONCURRENCY_FILES)
        assert [f for f in findings if f.code == "RL703"] == []

    def test_colcache_is_clean(self, repo_root):
        """colcache is outside the default scan dirs; decode happens
        outside its lock by design — keep it that way."""
        assert self._check(repo_root, "src/repro/columnstore/colcache.py") == []
