"""Fixture tests for the resource-balance checker (RL6xx)."""

from pathlib import Path

from repro.analysis.checkers import resource
from repro.analysis.loader import load_files

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run(name):
    return resource.check(load_files([FIXTURES / name]))


class TestBadFixture:
    def test_exact_findings(self):
        found = {(f.code, f.symbol) for f in run("resource_bad.py")}
        assert found == {
            # PR 2 shape: shm charges with no free anywhere in the module
            ("RL601", "attach_all:self.tracker.allocate:shm"),
            # PR 6 shape: balanced on the normal path, leaked on exception
            ("RL602", "fault_block:self._budget.acquire"),
            ("RL602", "charge_cache:self._charge"),
            # reserve() called outside `with`
            ("RL603", "start:self._budget.reserve"),
        }

    def test_messages_name_the_leak_class(self):
        by_code = {f.code: f.message for f in run("resource_bad.py")}
        assert "ever releases" in by_code["RL601"]
        assert "exception edge" in by_code["RL602"]
        assert "with" in by_code["RL603"]


class TestGoodFixture:
    def test_silent(self):
        """try/finally, handler coverage, handoff idioms, with-reserve,
        and the handoff pragma are all accepted."""
        assert run("resource_good.py") == []


class TestRealTree:
    def _check(self, repo_root, *relpaths):
        modules = load_files(
            [repo_root / rel for rel in relpaths], root=repo_root
        )
        return resource.check(modules)

    def test_engine_budget_and_heap_paths_are_clean(self, repo_root):
        """Budget charges balance via try/finally.  The shutdown-side shm
        charges land RBC by RBC in the copy loop and hand off, whole, to
        the restore (or, on a failed backup, to _discard_shm_tracked); the
        restore-side charge lives in the driver's directory publish
        (``test_lazyrestore_fault_in_is_clean``), released page by page
        and per table, or on a fall by the same discard."""
        assert self._check(repo_root, "src/repro/core/engine.py") == []

    def test_lazyrestore_fault_in_is_clean(self, repo_root):
        """The fault-in budget charge is released by the inner finally;
        heap charges hand off to the engine's discard path."""
        assert self._check(repo_root, "src/repro/core/lazyrestore.py") == []

    def test_colcache_charges_are_clean(self, repo_root):
        """colcache is outside the default scan dirs; keep it balanced
        via this direct check — put's charge hands off to the eviction
        and invalidation paths."""
        assert self._check(repo_root, "src/repro/columnstore/colcache.py") == []

    def test_parallel_reserve_internals_are_clean(self, repo_root):
        """FootprintBudget's own implementation (self.acquire inside
        reserve) must not be mistaken for an unbalanced charge."""
        assert self._check(repo_root, "src/repro/util/budget.py") == []
