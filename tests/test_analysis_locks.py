"""Fixture tests for the guarded-by lock discipline checker (RL3xx)."""

from pathlib import Path

from repro.analysis.checkers import locks
from repro.analysis.loader import load_files

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run(name):
    return locks.check(load_files([FIXTURES / name]))


class TestBadFixture:
    def test_exact_findings(self):
        found = {(f.code, f.line, f.symbol) for f in run("locks_bad.py")}
        assert found == {
            ("RL301", 13, "Counter.bump:value"),  # self.value += 1
            ("RL301", 14, "Counter.bump:history"),  # .append() mutates
            ("RL302", 14, "Counter.bump:value"),  # read inside the append
            ("RL302", 17, "Counter.peek:value"),  # unguarded return
        }


class TestGoodFixture:
    def test_silent_including_lock_held_helper(self):
        """_note touches shared state but is only called under the lock."""
        assert run("locks_good.py") == []


class TestInheritance:
    def test_subclass_is_held_to_the_base_lock(self):
        """A subclass reading base-class shared state outside the lock is
        RL302; subclass hooks the base calls under its lock are clean."""
        found = {(f.code, f.line, f.symbol) for f in run("inheritance.py")}
        assert found == {("RL302", 34, "Source.peek:pending")}

    def test_driver_hooks_are_lock_held(self, repo_root):
        """The restore driver's source hooks run under RestoreDriver._lock;
        only the directory publish, which runs before the handle is
        shared, touches the sources' state outside it."""
        modules = load_files(
            [
                repo_root / "src/repro/core/lazyrestore.py",
                repo_root / "src/repro/core/replicarestore.py",
            ],
            root=repo_root,
        )
        methods = {f.symbol.split(":")[0] for f in locks.check(modules)}
        assert methods == {"LazyRestore._publish_directory"}


class TestRealTree:
    def test_memtrack_is_clean(self, repo_root):
        """MemoryTracker's _after_change rides the lock-held closure."""
        modules = load_files([repo_root / "src/repro/util/memtrack.py"], root=repo_root)
        assert locks.check(modules) == []

    def test_footprint_budget_is_clean(self, repo_root):
        """Regression for the unguarded peak_in_flight read in __repr__."""
        modules = load_files(
            [repo_root / "src/repro/util/budget.py"], root=repo_root
        )
        assert [f for f in locks.check(modules) if "FootprintBudget" in f.symbol] == []
