"""reprosan — the runtime lock verifier.

The paper serves queries while a leaf restarts (§4.3), so two lock
domains nest: the leaf's data-plane lock, which also guards the restore
driver it runs, and the machine-wide footprint budget.  ``reprosan``
checks that nesting while the tests run, and only then: ``install()``
is called by ``pytest --reprosan`` (``tests/conftest.py``) and nowhere
else.

- **Lockset.**  An Eraser-style lockset (Savage et al., *Eraser: A
  Dynamic Data Race Detector*, TOCS 1997) over the attributes of the
  classes in :data:`WATCHED`.  An attribute is *exclusive* to the first
  thread that touches it.  The first access from a second thread makes
  it *shared*, and from then on every access narrows its candidate
  lockset to the repro locks held at that access.  A shared attribute
  that has been written since and whose lockset is empty fails the
  test: no one lock guarded every access.  No race has to happen, and
  state touched before the object is shared (a restore's directory
  publish) is never refined at all.  Reading an attribute that holds a
  mutable container counts as a write: its contents change through the
  reference.  Only accesses made by ``repro`` code count; tests poke at
  internals freely.
- **Blocking calls.**  ``os.fsync``, ``os.replace``, ``time.sleep``,
  socket ``recv``, ``Event.wait``, ``Future.result`` and a wait on
  another repro condition, called by ``repro`` code while any repro
  lock is held, fail the test: every other user of that lock queues
  behind the call.
- **Lock order.**  Every repro lock is named by its creation site
  (``relpath:lineno``), and acquiring one while holding another records
  an edge between the two sites.  A cycle in that graph is a deadlock
  candidate observed for real, and it fails the test that closed it.
- **Budget residue.**  :class:`~repro.util.budget.FootprintBudget`'s
  ``acquire``/``release`` are wrapped at the class: a test that ends
  with budget bytes acquired and never released fails.  Tracker
  balances (:func:`repro.util.memtrack.set_audit_hook`) are recorded in
  the report but not enforced: live data stays charged at test end.

:data:`ALLOWED` is where the lockset and the blocking-call audit look
away, one reason per entry.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import socket
import sys
import threading
import time
from importlib import import_module
from pathlib import Path

_REPRO_PREFIX = "repro"

#: Captured at import, before any patching: the sanitizer's own state
#: lock must never be an instrumented lock, or recording an edge would
#: recurse into recording edges about the recorder.
_REAL_RLOCK = threading.RLock

#: The classes whose attributes the lockset watches (subclasses
#: included): the ones that build a repro lock in ``__init__``, and the
#: restore driver, which builds none: its owner's lock guards it, and
#: watching it is what checks that the leaf's lock covers every driver
#: attribute a second thread touches.
WATCHED = (
    "repro.server.leaf:LeafServer",
    "repro.core.lazyrestore:RestoreDriver",
    "repro.columnstore.colcache:DecodedColumnCache",
    "repro.util.budget:FootprintBudget",
    "repro.util.memtrack:MemoryTracker",
    "repro.cluster.replication:ReplicaBlockServer",
    "repro.cluster.replication:ReplicaCatalog",
)

#: ``qualname -> (kind, reason)``.  A ``"blocks"`` entry lets a repro
#: lock stay held across a blocking call made anywhere below that
#: function; a ``"reads"`` entry takes that function's own reads out of
#: the lockset (its writes still count).
ALLOWED: dict[str, tuple[str, str]] = {
    "RestoreDriver._fault_block": (
        "blocks",
        "the paper's footprint backpressure: a fault-in waits for its "
        "block's copy window atomically with the adoption it guards; "
        "budget holders release from other leaves' locks, never this one",
    ),
    "LazyRestore._read_blocks": (
        "blocks",
        "the same backpressure per table: a drain holds one table's copy "
        "window, segment and heap copies coexisting until the segment goes",
    ),
    "LeafServer.sync_to_disk": (
        "blocks",
        "until item 5: a sync holds the leaf lock across the transcode, "
        "writes, fsyncs and manifest publish",
    ),
    "LeafServer.expire_tables": (
        "blocks",
        "until item 5: an expiry holds the leaf lock across its manifest "
        "publish",
    ),
    "LeafServer._shutdown_locked": (
        "blocks",
        "the paper's PREPARE (Figure 5): the last sync and the copy to "
        "shared memory run under the leaf lock, so no add or query lands "
        "between them",
    ),
    "LeafServer.start": (
        "blocks",
        "a leaf in memory recovery accepts nothing (Figure 5): a blocking "
        "boot holds the leaf lock through its whole ladder, the replica "
        "handshake (one connection; a drain joins the other streams) and "
        "the disk rungs included",
    ),
    "RestoreDriver._land_from_below": (
        "blocks",
        "a fall walks the rungs below under the leaf lock: queries that "
        "would fault in wait for the leaf to land, as after a blocking boot",
    ),
    "ReplicaRestore._read_block": (
        "blocks",
        "a serving fault-in fetches the one block its query is waiting for; "
        "the round trip is that query's own wait",
    ),
    "ReplicaRestore._read_blocks": (
        "blocks",
        "a drain is a blocking restore's whole pull: the leaf lock is "
        "held while the fetch streams run, as the shm drain holds it "
        "while it copies",
    ),
    "LeafServer.is_alive": (
        "reads",
        "a health probe reads one enum, GIL-atomic and staleness-tolerant; "
        "taking the lock would block it behind a restart or a sync",
    ),
    "LeafServer.accepts_adds": (
        "reads",
        "an advisory gate (accepts_queries too): add_rows and query "
        "re-check it under the lock, the lock-free read only pre-filters",
    ),
    "LeafServer.used_bytes": (
        "reads",
        "a monitoring read for the tailers and the aggregator (free_memory "
        "too); a stale byte count is acceptable, a probe blocking behind "
        "a sync is not",
    ),
}

_CONTAINERS = (dict, list, set, bytearray)
_MISSING = object()
#: Where a watched object keeps its attributes' lockset state.
_SHADOW = "__reprosan__"


def _is_repro_module(name: str) -> bool:
    return (
        name == _REPRO_PREFIX or name.startswith(_REPRO_PREFIX + ".")
    ) and name != __name__


class _SanLock:
    """Instrumented Lock/RLock: delegates everything, notes acquisitions."""

    __slots__ = ("_san", "_real", "site")

    def __init__(self, san: "Sanitizer", real, site: str) -> None:
        object.__setattr__(self, "_san", san)
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "site", site)

    def acquire(self, blocking: bool = True, timeout: float = -1):
        ok = self._real.acquire(blocking, timeout)
        if ok:
            self._san._note_acquire(self)
        return ok

    def release(self) -> None:
        self._real.release()
        self._san._note_release(self)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def __getattr__(self, name):
        # `locked`, `_is_owned`, `_release_save`, `_acquire_restore`...
        # delegate so a real Condition can drive a wrapped RLock.
        return getattr(self._real, name)


class _SanCondition:
    """Instrumented Condition: the underlying lock is one graph node."""

    __slots__ = ("_san", "_real", "site")

    def __init__(self, san: "Sanitizer", real, site: str) -> None:
        object.__setattr__(self, "_san", san)
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "site", site)

    def acquire(self, *args):
        ok = self._real.acquire(*args)
        if ok:
            self._san._note_acquire(self)
        return ok

    def release(self) -> None:
        self._real.release()
        self._san._note_release(self)

    def __enter__(self):
        self._real.__enter__()
        self._san._note_acquire(self)
        return self

    def __exit__(self, *exc):
        self._san._note_release(self)
        return self._real.__exit__(*exc)

    # wait()/wait_for() release this condition internally, so the wait
    # is blocking only for the *other* repro locks the thread holds.
    # The condition stays on the held-stack: the waiting thread is
    # blocked, and a wait_for predicate runs with the lock re-held.
    def wait(self, timeout: float | None = None):
        self._san._check_blocking("Condition.wait", waiting_on=self)
        return self._real.wait(timeout)

    def wait_for(self, predicate, timeout: float | None = None):
        self._san._check_blocking("Condition.wait", waiting_on=self)
        return self._real.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._real.notify(n)

    def notify_all(self) -> None:
        self._real.notify_all()

    def __getattr__(self, name):
        return getattr(self._real, name)


_LOCKS = (_SanLock, _SanCondition)


class _Shadow:
    """One attribute's Eraser state on one object."""

    __slots__ = ("thread", "lockset", "written", "reported")

    def __init__(self, thread: int) -> None:
        self.thread: int | None = thread  # the owner while exclusive
        self.lockset: frozenset | None = None  # refined once shared
        self.written = False  # written since it became shared
        self.reported = False


class _Watched:
    """A data descriptor standing in for one instance attribute of a
    watched class: the value stays in the instance ``__dict__``, and
    every get, set and delete is an access for the lockset."""

    __slots__ = ("san", "owner", "name", "default")

    def __init__(self, san: "Sanitizer", owner: str, name: str, default) -> None:
        self.san = san
        self.owner = owner
        self.name = name
        self.default = default

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self if self.default is _MISSING else self.default
        value = obj.__dict__.get(self.name, _MISSING)
        if value is _MISSING:
            if self.default is _MISSING:
                raise AttributeError(self.name)
            value = self.default
        self.san._access(obj, self, isinstance(value, _CONTAINERS))
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value
        self.san._access(obj, self, True)

    def __delete__(self, obj) -> None:
        del obj.__dict__[self.name]
        self.san._access(obj, self, True)


class Sanitizer:
    """The process-wide sanitizer state.  Use :func:`install`."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root or ".").resolve()
        self._tls = threading.local()
        # Guarded by a *real* lock: the sanitizer must never feed its
        # own bookkeeping back into the graph.
        self._state_lock = _REAL_RLOCK()
        #: (src_site, dst_site) -> {"count", "first_test", "thread"}
        self.edges: dict[tuple[str, str], dict] = {}
        self.tests: list[dict] = []
        #: Problems seen outside any test (a fixture's teardown).
        self.unattributed: list[str] = []
        self._current: dict | None = None
        self._reported_cycles: set[str] = set()
        #: code object -> its qualname when repro code, else None
        self._qualnames: dict = {}
        self._undo: list = []
        self._installed = False

    # -- who is calling -------------------------------------------------

    def _repro_qualname(self, frame) -> str | None:
        """The qualname of ``frame``'s function when it is repro code."""
        code = frame.f_code
        try:
            return self._qualnames[code]
        except KeyError:
            pass
        qualname = None
        if _is_repro_module(frame.f_globals.get("__name__", "")):
            qualname = code.co_qualname
        self._qualnames[code] = qualname
        return qualname

    def _caller_site(self) -> str | None:
        # Frame 0 = this method, 1 = the patched factory, 2 = the caller.
        frame = sys._getframe(2)
        if self._repro_qualname(frame) is None:
            return None
        try:
            rel = (
                Path(frame.f_code.co_filename)
                .resolve()
                .relative_to(self.root)
                .as_posix()
            )
        except ValueError:
            rel = Path(frame.f_code.co_filename).name
        return f"{rel}:{frame.f_lineno}"

    # -- held-stack and edge recording ---------------------------------

    def _held(self) -> list:
        stack = getattr(self._tls, "held", None)
        if stack is None:
            stack = self._tls.held = []
        return stack

    def _note_acquire(self, lock) -> None:
        held = self._held()
        if not any(prior is lock for prior in held):
            for prior in held:
                if prior.site != lock.site:
                    self._record_edge(prior.site, lock.site)
        held.append(lock)

    def _note_release(self, lock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def _record_edge(self, src: str, dst: str) -> None:
        with self._state_lock:
            info = self.edges.get((src, dst))
            if info is None:
                test = self._current["nodeid"] if self._current else None
                info = self.edges[(src, dst)] = {
                    "count": 0,
                    "first_test": test,
                    "thread": threading.current_thread().name,
                }
            info["count"] += 1

    def _problem(self, text: str) -> None:
        with self._state_lock:
            if self._current is None:
                self.unattributed.append(text)
            else:
                self._current["problems"].append(text)

    # -- lockset --------------------------------------------------------

    def watch(self, cls: type) -> None:
        """Watch ``cls``'s (and its subclasses') instance attributes:
        each one becomes a :class:`_Watched` descriptor on ``cls`` the
        first time an instance built by a wrapped ``__init__`` has it."""
        classes = [cls]
        for klass in classes:
            classes.extend(klass.__subclasses__())
        for klass in classes:
            if "__init__" in vars(klass):
                self._wrap_init(klass, cls)

    def _wrap_init(self, klass: type, root: type) -> None:
        init = vars(klass)["__init__"]
        san = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if type(obj).__init__ is __init__:  # the outermost one has run
                san._cover(root, obj)

        __init__.__wrapped__ = init
        klass.__init__ = __init__
        self._undo.append(lambda: setattr(klass, "__init__", init))

    def _cover(self, root: type, obj) -> None:
        for name, value in list(vars(obj).items()):
            if name == _SHADOW or isinstance(value, _LOCKS):
                continue
            current = root.__dict__.get(name, _MISSING)
            if hasattr(current, "__get__"):  # watched already, or a method
                continue
            setattr(root, name, _Watched(self, root.__qualname__, name, current))
            self._undo.append(lambda name=name, current=current: (
                delattr(root, name)
                if current is _MISSING
                else setattr(root, name, current)
            ))

    def _access(self, obj, attr: _Watched, write: bool) -> None:
        # Frame 0 = this method, 1 = the descriptor, 2 = the accessor.
        frame = sys._getframe(2)
        qualname = self._repro_qualname(frame)
        if qualname is None:
            return
        if not write and ALLOWED.get(qualname, ("",))[0] == "reads":
            return
        shadows = obj.__dict__.get(_SHADOW)
        if shadows is None:
            shadows = obj.__dict__[_SHADOW] = {}
        me = threading.get_ident()
        shadow = shadows.get(attr.name)
        if shadow is None:
            shadows[attr.name] = _Shadow(me)
            return
        if shadow.thread == me or shadow.reported:
            return
        held = frozenset(self._held())
        with self._state_lock:
            if shadow.thread is not None:
                shadow.thread = None  # a second thread: shared from here
                shadow.lockset = held
            else:
                shadow.lockset &= held
            shadow.written |= write
            if not shadow.written or shadow.lockset or shadow.reported:
                return
            shadow.reported = True
        self._problem(
            f"lockset: {attr.owner}.{attr.name} is shared and written, and "
            f"no one lock guards every access (last: "
            f"{'write' if write else 'read'} in {qualname}, "
            f"{frame.f_code.co_filename}:{frame.f_lineno}, thread "
            f"{threading.current_thread().name})"
        )

    # -- blocking calls -------------------------------------------------

    def _check_blocking(self, call: str, waiting_on=None) -> None:
        held = getattr(self._tls, "held", None)
        if not held or all(lock is waiting_on for lock in held):
            return
        # Frame 0 = this method, 1 = the patched call, 2 = its caller.
        frame = sys._getframe(2)
        if frame.f_globals.get("__name__") == "threading":
            return  # Thread.start's handshake with the thread it starts
        path = []  # the repro functions on the stack, innermost first
        while frame is not None:
            qualname = self._repro_qualname(frame)
            if qualname is not None:
                if ALLOWED.get(qualname, ("",))[0] == "blocks":
                    return
                path.append(qualname)
            frame = frame.f_back
        if not path:
            return  # not repro code (a test holding a lock on purpose)
        locks = sorted({lock.site for lock in held if lock is not waiting_on})
        self._problem(
            f"blocking call: {call} in {' < '.join(path)} while holding "
            f"{', '.join(locks)}"
        )

    def _patch(self, owner, name: str, call: str) -> None:
        real = getattr(owner, name)
        own = vars(owner).get(name, _MISSING)  # else inherited
        san = self

        def blocking(*args, **kwargs):
            san._check_blocking(call)
            return real(*args, **kwargs)

        blocking.__wrapped__ = real
        setattr(owner, name, blocking)
        self._undo.append(
            lambda: delattr(owner, name) if own is _MISSING else setattr(owner, name, own)
        )

    # -- budget / tracker audit ----------------------------------------

    def _note_budget(self, obj_id: int, delta: int) -> None:
        with self._state_lock:
            if self._current is None:
                return
            balances = self._current["budget"]
            key = f"FootprintBudget@{obj_id:x}"
            balances[key] = balances.get(key, 0) + delta

    def _tracker_hook(self, event: str, region: str, nbytes: int, obj_id: int) -> None:
        with self._state_lock:
            if self._current is None:
                return
            per = self._current["tracker"].setdefault(
                region, {"allocated": 0, "freed": 0}
            )
            per["allocated" if event == "allocate" else "freed"] += nbytes

    # -- per-test lifecycle --------------------------------------------

    def begin_test(self, nodeid: str) -> None:
        with self._state_lock:
            self._current = {
                "nodeid": nodeid,
                "problems": [],
                "budget": {},
                "tracker": {},
            }

    def end_test(self) -> dict:
        """Close the current test record and return it; its
        ``problems`` fail the test."""
        with self._state_lock:
            record = self._current
            if record is None:
                self.begin_test("?")
                record = self._current
            self._current = None
            residue = {k: v for k, v in record["budget"].items() if v > 0}
            new_cycles = [
                c for c in find_cycles(set(self.edges))
                if c not in self._reported_cycles
            ]
            self._reported_cycles.update(new_cycles)
            problems = record["problems"]
            for key, bytes_left in sorted(residue.items()):
                problems.append(
                    f"budget residue: {key} ends the test holding "
                    f"{bytes_left} unreleased bytes"
                )
            for cycle in new_cycles:
                problems.append(f"lock-order cycle observed: {cycle}")
            record["budget_residue"] = residue
            record["cycles"] = new_cycles
            self.tests.append(record)
            return record

    # -- patching -------------------------------------------------------

    def install(self) -> "Sanitizer":
        """Patch the lock factories, the blocking calls and the budget,
        and watch the :data:`WATCHED` classes."""
        if self._installed:
            return self
        if sys.version_info < (3, 11):
            raise RuntimeError("reprosan names functions by co_qualname (Python 3.11+)")
        from repro.util import memtrack
        from repro.util.budget import FootprintBudget

        san = self
        real_lock = threading.Lock
        real_rlock = threading.RLock
        real_condition = threading.Condition
        orig_acquire = FootprintBudget.acquire
        orig_release = FootprintBudget.release

        def make_lock_factory(real, wrapper):
            def factory(*args, **kwargs):
                site = san._caller_site()
                obj = real(*args, **kwargs)
                if site is None:
                    return obj
                return wrapper(san, obj, site)

            return factory

        def condition_factory(lock=None):
            site = san._caller_site()
            # Build the real Condition on the *real* lock so its
            # save/restore fast paths stay untouched; the wrapper is the
            # single instrumented face.
            inner = lock._real if isinstance(lock, _SanLock) else lock
            obj = real_condition(inner) if inner is not None else real_condition()
            if site is None:
                return obj
            return _SanCondition(san, obj, site)

        def acquire(obj, nbytes):
            orig_acquire(obj, nbytes)
            san._note_budget(id(obj), nbytes)

        def release(obj, nbytes):
            orig_release(obj, nbytes)
            san._note_budget(id(obj), -nbytes)

        threading.Lock = make_lock_factory(real_lock, _SanLock)
        threading.RLock = make_lock_factory(real_rlock, _SanLock)
        threading.Condition = condition_factory
        FootprintBudget.acquire = acquire
        FootprintBudget.release = release
        previous_hook = memtrack.set_audit_hook(self._tracker_hook)

        def restore_factories():
            threading.Lock = real_lock
            threading.RLock = real_rlock
            threading.Condition = real_condition
            FootprintBudget.acquire = orig_acquire
            FootprintBudget.release = orig_release
            memtrack.set_audit_hook(previous_hook)

        self._undo.append(restore_factories)
        self._patch(os, "fsync", "os.fsync")
        self._patch(os, "replace", "os.replace")
        self._patch(time, "sleep", "time.sleep")
        self._patch(socket.socket, "recv", "socket.recv")
        self._patch(socket.socket, "recv_into", "socket.recv_into")
        self._patch(threading.Event, "wait", "Event.wait")
        self._patch(concurrent.futures.Future, "result", "Future.result")
        for name in WATCHED:
            module, _, cls = name.partition(":")
            self.watch(getattr(import_module(module), cls))
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        while self._undo:
            self._undo.pop()()
        self._installed = False
        global _active
        if _active is self:
            _active = None

    # -- reporting ------------------------------------------------------

    def report(self) -> dict:
        with self._state_lock:
            return {
                "version": 2,
                "root": str(self.root),
                "edges": [
                    {"src": src, "dst": dst, **info}
                    for (src, dst), info in sorted(self.edges.items())
                ],
                "cycles": find_cycles(set(self.edges)),
                "unattributed": self.unattributed,
                "tests": self.tests,
                "summary": {
                    "tests": len(self.tests),
                    "failed": [
                        t["nodeid"] for t in self.tests if t.get("problems")
                    ],
                },
            }

    def write_report(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.report(), indent=2) + "\n")


_active: Sanitizer | None = None


def install(root: str | Path | None = None) -> Sanitizer:
    """Install the sanitizer process-wide (idempotent)."""
    global _active
    if _active is None:
        _active = Sanitizer(root).install()
    return _active


def find_cycles(edges: set[tuple[str, str]]) -> list[str]:
    """Normalized ``"A -> B -> A"`` strings for every cycle in ``edges``."""
    graph: dict[str, set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
    cycles: set[str] = set()

    def dfs(node: str, stack: list[str], on_stack: set[str]) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_stack:
                ring = stack[stack.index(nxt):]
                pivot = ring.index(min(ring))
                normal = ring[pivot:] + ring[:pivot] + [min(ring)]
                cycles.add(" -> ".join(normal))
            elif nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
                on_stack.add(nxt)
                dfs(nxt, stack, on_stack)
                on_stack.discard(nxt)
                stack.pop()

    visited: set[str] = set()
    for start in sorted(graph):
        visited.add(start)
        dfs(start, [start], {start})
    return sorted(cycles)


__all__ = ["ALLOWED", "WATCHED", "Sanitizer", "install", "find_cycles"]
