"""reprosan — the runtime sanitizer itself.

These tests drive the Sanitizer directly (install/uninstall per test)
rather than through the pytest plugin; the plugin path is exercised by
the CI `reprosan` job running the concurrency suite under --reprosan.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import reprosan
from repro.analysis.loader import load_files
from repro.analysis.reprosan import Sanitizer, cross_check, find_cycles


@pytest.fixture
def san(repo_root):
    sanitizer = Sanitizer(root=repo_root).install()
    yield sanitizer
    sanitizer.uninstall()


def _make_locks():
    """Two instrumented locks — this module is not a repro module, so
    impersonate one the way repro code creates locks."""
    namespace = {"threading": threading, "__name__": "repro._santest"}
    exec(
        "a = threading.Lock()\nb = threading.Lock()\ncond = threading.Condition()",
        namespace,
    )
    return namespace["a"], namespace["b"], namespace["cond"]


class TestLockInstrumentation:
    def test_non_repro_callers_get_real_locks(self, san):
        lock = threading.Lock()
        assert type(lock).__module__ != "repro.analysis.reprosan"
        with lock:
            pass
        assert san.edges == {}

    def test_repro_creation_sites_are_wrapped_and_named(self, san):
        a, b, cond = _make_locks()
        for obj in (a, b, cond):
            assert obj.site.startswith("<string>:")
        assert a.site != b.site

    def test_nested_acquisition_records_an_edge(self, san):
        a, b, _ = _make_locks()
        with a:
            with b:
                pass
        assert list(san.edges) == [(a.site, b.site)]

    def test_opposite_orders_make_a_cycle(self, san):
        a, b, _ = _make_locks()
        san.begin_test("t::order")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        record = san.end_test()
        assert record["cycles"], "opposite-order acquisition must cycle"
        assert any("lock-order cycle" in p for p in record["problems"])

    def test_consistent_order_is_clean(self, san):
        a, b, _ = _make_locks()
        san.begin_test("t::consistent")
        for _ in range(3):
            with a:
                with b:
                    pass
        record = san.end_test()
        assert record["problems"] == []

    def test_reentrant_rlock_is_not_a_self_edge(self, san):
        namespace = {"threading": threading, "__name__": "repro._santest"}
        exec("r = threading.RLock()", namespace)
        r = namespace["r"]
        with r:
            with r:
                pass
        assert san.edges == {}

    def test_condition_wait_keeps_working(self, san):
        _, _, cond = _make_locks()
        done = []

        def waiter():
            with cond:
                cond.wait_for(lambda: bool(done), timeout=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        with cond:
            done.append(1)
            cond.notify_all()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestResourceAudit:
    def test_budget_residue_fails_the_test(self, san):
        from repro.util.budget import FootprintBudget

        san.begin_test("t::residue")
        budget = FootprintBudget(limit_bytes=1 << 20)
        budget.acquire(4096)
        budget.acquire(4096)
        budget.release(4096)
        record = san.end_test()
        assert record["budget_residue"]
        assert any("4096 unreleased" in p for p in record["problems"])

    def test_balanced_budget_is_clean(self, san):
        from repro.util.budget import FootprintBudget

        san.begin_test("t::balanced")
        budget = FootprintBudget(limit_bytes=1 << 20)
        with budget.reserve(4096):
            pass
        record = san.end_test()
        assert record["budget_residue"] == {}
        assert record["problems"] == []

    def test_tracker_balances_are_recorded_not_enforced(self, san):
        from repro.util.memtrack import MemoryTracker

        san.begin_test("t::tracker")
        tracker = MemoryTracker()
        tracker.allocate("heap", 1000)
        tracker.free("heap", 400)
        record = san.end_test()
        assert record["tracker"]["heap"] == {"allocated": 1000, "freed": 400}
        # live data at test end is legitimate — not a problem
        assert record["problems"] == []


class TestFindCycles:
    def test_two_node_cycle_normalized(self):
        assert find_cycles({("b", "a"), ("a", "b")}) == ["a -> b -> a"]

    def test_dag_has_none(self):
        assert find_cycles({("a", "b"), ("b", "c"), ("a", "c")}) == []


class TestCrossCheck:
    def _modules(self, repo_root):
        return load_files(
            [
                repo_root / "src/repro/server/leaf.py",
                repo_root / "src/repro/core/lazyrestore.py",
                repo_root / "src/repro/util/budget.py",
                repo_root / "src/repro/util/memtrack.py",
            ],
            root=repo_root,
        )

    def test_runtime_edges_translate_to_static_nodes(self, repo_root):
        modules = self._modules(repo_root)
        # Find the real creation sites from the source so the test does
        # not hard-code line numbers.
        leaf = next(m for m in modules if m.relpath.endswith("leaf.py"))
        restore = next(m for m in modules if m.relpath.endswith("lazyrestore.py"))
        leaf_line = next(
            i + 1 for i, text in enumerate(leaf.text.splitlines())
            if "self._lock = threading.RLock()" in text
        )
        restore_line = next(
            i + 1 for i, text in enumerate(restore.text.splitlines())
            if "self._lock = threading.RLock()" in text
        )
        report = {
            "edges": [
                {
                    "src": f"src/repro/server/leaf.py:{leaf_line}",
                    "dst": f"src/repro/core/lazyrestore.py:{restore_line}",
                    "count": 3,
                }
            ]
        }
        checked = cross_check(report, modules)
        assert checked["runtime_edges"] == [
            "LeafServer._lock -> RestoreDriver._lock"
        ]
        assert checked["ok"]
        assert checked["cycles"] == []

    def test_inverted_runtime_edge_flagged(self, repo_root):
        modules = self._modules(repo_root)
        leaf = next(m for m in modules if m.relpath.endswith("leaf.py"))
        restore = next(m for m in modules if m.relpath.endswith("lazyrestore.py"))
        leaf_line = next(
            i + 1 for i, text in enumerate(leaf.text.splitlines())
            if "self._lock = threading.RLock()" in text
        )
        restore_line = next(
            i + 1 for i, text in enumerate(restore.text.splitlines())
            if "self._lock = threading.RLock()" in text
        )
        report = {
            "edges": [
                {
                    "src": f"src/repro/core/lazyrestore.py:{restore_line}",
                    "dst": f"src/repro/server/leaf.py:{leaf_line}",
                    "count": 1,
                }
            ]
        }
        checked = cross_check(report, modules)
        assert checked["inversions"] == [
            "RestoreDriver._lock -> LeafServer._lock"
        ]
        assert not checked["ok"]

    def test_unknown_sites_pass_through(self, repo_root):
        modules = self._modules(repo_root)
        report = {"edges": [{"src": "x.py:1", "dst": "y.py:2", "count": 1}]}
        checked = cross_check(report, modules)
        assert checked["runtime_edges"] == ["x.py:1 -> y.py:2"]
        assert "x.py:1 -> y.py:2" in checked["unpredicted"]


class TestInstallLifecycle:
    def test_install_is_idempotent_and_uninstall_restores(self, repo_root):
        real_lock = threading.Lock
        first = reprosan.install(root=repo_root)
        second = reprosan.install(root=repo_root)
        assert first is second
        assert threading.Lock is not real_lock
        first.uninstall()
        assert threading.Lock is real_lock
        # a fresh install after uninstall gets a new sanitizer
        third = reprosan.install(root=repo_root)
        assert third is not first
        third.uninstall()
