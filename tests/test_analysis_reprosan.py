"""reprosan — the runtime lock verifier itself.

These tests drive the Sanitizer directly (install/uninstall per test)
over toy classes rather than through the pytest plugin; the plugin path
is exercised by the CI `reprosan` job running the concurrency suite
under --reprosan.  Toy code is compiled as a ``repro`` module, because
the sanitizer only instruments and audits repro code.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import reprosan
from repro.analysis.reprosan import ALLOWED, Sanitizer, find_cycles


@pytest.fixture
def san(repo_root):
    sanitizer = Sanitizer(root=repo_root).install()
    yield sanitizer
    sanitizer.uninstall()


def _repro_namespace(source: str) -> dict:
    """Run ``source`` as if it were a module of the repro package."""
    namespace = {"threading": threading, "time": time, "__name__": "repro._santest"}
    exec(source, namespace)
    return namespace


def _make_locks():
    """Two instrumented locks and a condition, created by repro code."""
    namespace = _repro_namespace(
        "a = threading.Lock()\nb = threading.Lock()\ncond = threading.Condition()"
    )
    return namespace["a"], namespace["b"], namespace["cond"]


TOY = '''
class Toy:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.items = {}

    def bump(self):
        with self._lock:
            self.count += 1

    def bump_unlocked(self):
        self.count += 1

    def peek(self):
        return self.count

    def put_unlocked(self, key):
        self.items[key] = 1

    def nap(self):
        with self._lock:
            time.sleep(0)

    def nap_unlocked(self):
        time.sleep(0)
'''


@pytest.fixture
def toy(san):
    """The toy class, watched by ``san``."""
    cls = _repro_namespace(TOY)["Toy"]
    san.watch(cls)
    return cls


def in_thread(fn, *args):
    thread = threading.Thread(target=fn, args=args)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def problems(san, name, body):
    san.begin_test(name)
    body()
    return san.end_test()["problems"]


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
        r = _repro_namespace("r = threading.RLock()")["r"]
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


class TestLockset:
    def test_unlocked_write_after_sharing_fails(self, san, toy):
        """No race has to happen: the two threads run one after the
        other, and no one lock guarded both writes."""
        obj = toy()

        def body():
            in_thread(obj.bump)
            obj.bump_unlocked()

        found = problems(san, "t::unlocked", body)
        assert len(found) == 1
        assert "lockset: Toy.count" in found[0]
        assert "Toy.bump_unlocked" in found[0]

    def test_one_lock_for_every_access_is_clean(self, san, toy):
        obj = toy()

        def body():
            for _ in range(2):
                in_thread(obj.bump)
            obj.bump()

        assert problems(san, "t::locked", body) == []

    def test_state_touched_before_sharing_needs_no_lock(self, san, toy):
        obj = toy()

        def body():
            obj.bump_unlocked()  # still exclusive to this thread
            in_thread(obj.bump)
            obj.bump()

        assert problems(san, "t::exclusive", body) == []

    def test_read_shared_state_needs_no_lock(self, san, toy):
        obj = toy()

        def body():
            in_thread(obj.peek)
            obj.peek()

        assert problems(san, "t::read-shared", body) == []

    def test_container_access_counts_as_a_write(self, san, toy):
        obj = toy()

        def body():
            in_thread(obj.put_unlocked, "a")
            obj.put_unlocked("b")

        found = problems(san, "t::container", body)
        assert len(found) == 1 and "lockset: Toy.items" in found[0]

    def test_an_allowed_read_leaves_the_lockset_alone(self, san, toy, monkeypatch):
        monkeypatch.setitem(ALLOWED, "Toy.peek", ("reads", "a monitoring read"))
        obj = toy()

        def body():
            in_thread(obj.bump)
            obj.peek()
            obj.bump()

        assert problems(san, "t::allowed", body) == []
        monkeypatch.delitem(ALLOWED, "Toy.peek")
        obj = toy()

        def unallowed():
            in_thread(obj.bump)
            obj.peek()
            obj.bump()

        assert problems(san, "t::unallowed", unallowed)

    def test_accesses_by_test_code_do_not_count(self, san, toy):
        obj = toy()

        def body():
            in_thread(obj.bump)
            obj.count += 1  # this module is not repro code
            obj.bump()

        assert problems(san, "t::test-code", body) == []

    def test_uninstall_restores_the_class(self, repo_root):
        sanitizer = Sanitizer(root=repo_root).install()
        cls = _repro_namespace(TOY)["Toy"]
        init = cls.__init__
        sanitizer.watch(cls)
        obj = cls()
        assert isinstance(vars(cls)["count"], reprosan._Watched)
        sanitizer.uninstall()
        assert cls.__init__ is init and "count" not in vars(cls)
        obj.bump()
        assert obj.count == 1


class TestBlockingCalls:
    def test_a_sleep_under_a_repro_lock_fails(self, san, toy):
        obj = toy()
        found = problems(san, "t::nap", obj.nap)
        assert len(found) == 1
        assert found[0].startswith("blocking call: time.sleep in Toy.nap ")

    def test_a_sleep_without_a_lock_is_clean(self, san, toy):
        assert problems(san, "t::nap-free", toy().nap_unlocked) == []

    def test_an_allowed_site_may_block(self, san, toy, monkeypatch):
        monkeypatch.setitem(ALLOWED, "Toy.nap", ("blocks", "a designed wait"))
        assert problems(san, "t::allowed-nap", toy().nap) == []

    def test_waiting_on_the_only_held_condition_is_not_blocking(self, san):
        _, _, cond = _make_locks()

        def body():
            with cond:
                cond.wait(timeout=0)

        assert problems(san, "t::cond", body) == []

    def test_waiting_under_another_repro_lock_fails(self, san):
        a, _, cond = _make_locks()
        namespace = _repro_namespace(
            "def wait_under(a, cond):\n"
            "    with a, cond:\n"
            "        cond.wait(timeout=0)\n"
        )
        found = problems(san, "t::cond-under", lambda: namespace["wait_under"](a, cond))
        assert len(found) == 1 and "Condition.wait in wait_under" in found[0]

    def test_test_code_holding_a_repro_lock_is_ignored(self, san):
        a, _, _ = _make_locks()

        def body():
            with a:
                time.sleep(0)

        assert problems(san, "t::test-holds", body) == []


class TestAllowList:
    def test_every_entry_names_a_function_and_gives_a_reason(self):
        """At most 13 entries (the static baseline's count when it went),
        each naming a method that exists: a renamed one fails here, not
        silently in the audit."""
        from repro.core.engine import LazyRestore, ReplicaRestore, RestoreDriver
        from repro.server.leaf import LeafServer

        classes = {
            cls.__name__: cls
            for cls in (LeafServer, RestoreDriver, LazyRestore, ReplicaRestore)
        }
        assert len(ALLOWED) <= 13
        for qualname, (kind, reason) in ALLOWED.items():
            owner, _, name = qualname.partition(".")
            assert name in vars(classes[owner]), qualname
            assert kind in ("blocks", "reads"), qualname
            assert len(reason) > 20, qualname


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
        budget.acquire(4096)
        budget.release(4096)
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


class TestInstallLifecycle:
    def test_install_is_idempotent_and_uninstall_restores(self, repo_root):
        from repro.server.leaf import LeafServer

        real_lock = threading.Lock
        real_init = LeafServer.__init__
        first = reprosan.install(root=repo_root)
        second = reprosan.install(root=repo_root)
        assert first is second
        assert threading.Lock is not real_lock
        assert LeafServer.__init__ is not real_init
        first.uninstall()
        assert threading.Lock is real_lock
        assert LeafServer.__init__ is real_init
        assert time.sleep.__module__ == "time"
        # a fresh install after uninstall gets a new sanitizer
        third = reprosan.install(root=repo_root)
        assert third is not first
        third.uninstall()
