"""reprosan — runtime lock-order and resource-balance sanitizer.

The RL7xx checker reasons about lock order statically; ``reprosan``
watches it, and the footprint budget's balance, while the tests
actually run, so the two views of lock order can cross-check each
other:

- **Lock order.**  ``install()`` patches ``threading.Lock`` / ``RLock``
  / ``Condition`` with factories that hand instrumented wrappers to
  callers inside the ``repro`` package (everything else — pytest, the
  stdlib — still gets the real primitive).  Each wrapper is named by
  its *creation site* (``relpath:lineno``), so every instance of, say,
  ``LeafServer._lock`` shares one node in the runtime acquisition
  graph.  Whenever a thread acquires a lock while holding others, an
  ordering edge is recorded; a cycle in that graph is a deadlock
  candidate observed for real, not inferred.

- **Resource balance.**  The tracker's audit seam
  (:func:`repro.util.memtrack.set_audit_hook`) reports every
  allocate/free, and :class:`~repro.util.budget.FootprintBudget`'s
  ``acquire``/``release`` are wrapped at the class.  Per test, budget
  bytes must balance: nonzero *residue* (acquired but never released)
  fails the test.  Tracker balances are recorded in the report for
  inspection but not enforced — live data legitimately stays charged
  at test end.

The pytest side lives in ``tests/conftest.py`` (``--reprosan``); the
JSON report it writes feeds ``repro lint --san-report`` which
:func:`cross_check`s the observed edges against the RL7xx static graph.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

#: Same-site lock pairs (two instances created at one line, e.g. two
#: leaves' coarse locks) are not ordered against each other: the graph
#: is keyed by creation site, so such an edge would be a self-loop that
#: says nothing about cross-site ordering.
_REPRO_PREFIX = "repro"

#: Captured at import, before any patching: the sanitizer's own state
#: lock must never be an instrumented lock, or recording an edge would
#: recurse into recording edges about the recorder.
_REAL_RLOCK = threading.RLock


def _is_repro_module(name: str) -> bool:
    return name == _REPRO_PREFIX or name.startswith(_REPRO_PREFIX + ".")


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
        # delegate so a real Condition can drive a wrapped RLock.  The
        # save/restore pair bypasses instrumentation during a wait; the
        # waiting thread is blocked, so its held-stack cannot be read
        # inconsistently in the meantime.
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

    # wait()/wait_for() release the lock internally, but the waiting
    # thread is blocked (and a wait_for predicate runs with the lock
    # re-held), so leaving the condition on the held-stack is accurate
    # for every observable acquisition.
    def wait(self, timeout: float | None = None):
        return self._real.wait(timeout)

    def wait_for(self, predicate, timeout: float | None = None):
        return self._real.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._real.notify(n)

    def notify_all(self) -> None:
        self._real.notify_all()

    def __getattr__(self, name):
        return getattr(self._real, name)


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
        self._current: dict | None = None
        self._reported_cycles: set[str] = set()
        self._saved: dict = {}
        self._installed = False

    # -- creation-site filtering ---------------------------------------

    def _caller_site(self) -> str | None:
        # Frame 0 = this method, 1 = the patched factory, 2 = the caller.
        frame = sys._getframe(2)
        module = frame.f_globals.get("__name__", "")
        if not _is_repro_module(module):
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
                if self._current is not None:
                    self._current["new_edges"].append([src, dst])
            info["count"] += 1

    # -- budget / tracker audit ----------------------------------------

    def _note_budget(self, label: str, obj_id: int, delta: int) -> None:
        with self._state_lock:
            if self._current is None:
                return
            balances = self._current["budget"]
            key = f"{label}@{obj_id:x}"
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
                "new_edges": [],
                "budget": {},
                "tracker": {},
            }

    def end_test(self) -> dict:
        """Close the current test record and return its problems."""
        with self._state_lock:
            record = self._current or {
                "nodeid": "?",
                "new_edges": [],
                "budget": {},
                "tracker": {},
            }
            self._current = None
            residue = {k: v for k, v in record["budget"].items() if v > 0}
            new_cycles = [
                c for c in find_cycles(set(self.edges))
                if c not in self._reported_cycles
            ]
            self._reported_cycles.update(new_cycles)
            problems = []
            for key, bytes_left in sorted(residue.items()):
                problems.append(
                    f"budget residue: {key} ends the test holding "
                    f"{bytes_left} unreleased bytes"
                )
            for cycle in new_cycles:
                problems.append(f"lock-order cycle observed: {cycle}")
            record["budget_residue"] = residue
            record["cycles"] = new_cycles
            record["problems"] = problems
            self.tests.append(record)
            return record

    # -- patching -------------------------------------------------------

    def install(self) -> "Sanitizer":
        if self._installed:
            return self
        from repro.util import memtrack
        from repro.util.budget import FootprintBudget

        san = self
        orig_acquire = FootprintBudget.acquire
        orig_release = FootprintBudget.release
        self._saved = {
            "Lock": threading.Lock,
            "RLock": threading.RLock,
            "Condition": threading.Condition,
            "FootprintBudget.acquire": orig_acquire,
            "FootprintBudget.release": orig_release,
        }

        def make_lock_factory(real, wrapper):
            def factory(*args, **kwargs):
                site = san._caller_site()
                obj = real(*args, **kwargs)
                if site is None:
                    return obj
                return wrapper(san, obj, site)

            return factory

        real_lock = threading.Lock
        real_rlock = threading.RLock
        real_condition = threading.Condition

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

        threading.Lock = make_lock_factory(real_lock, _SanLock)
        threading.RLock = make_lock_factory(real_rlock, _SanLock)
        threading.Condition = condition_factory

        def acquire(obj, nbytes):
            orig_acquire(obj, nbytes)
            san._note_budget("FootprintBudget", id(obj), nbytes)

        def release(obj, nbytes):
            orig_release(obj, nbytes)
            san._note_budget("FootprintBudget", id(obj), -nbytes)

        FootprintBudget.acquire = acquire
        FootprintBudget.release = release
        self._saved["audit_hook"] = memtrack.set_audit_hook(self._tracker_hook)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        from repro.util import memtrack
        from repro.util.budget import FootprintBudget

        threading.Lock = self._saved["Lock"]
        threading.RLock = self._saved["RLock"]
        threading.Condition = self._saved["Condition"]
        FootprintBudget.acquire = self._saved["FootprintBudget.acquire"]
        FootprintBudget.release = self._saved["FootprintBudget.release"]
        memtrack.set_audit_hook(self._saved["audit_hook"])
        self._installed = False
        global _active
        if _active is self:
            _active = None

    # -- reporting ------------------------------------------------------

    def report(self) -> dict:
        with self._state_lock:
            return {
                "version": 1,
                "root": str(self.root),
                "edges": [
                    {"src": src, "dst": dst, **info}
                    for (src, dst), info in sorted(self.edges.items())
                ],
                "cycles": find_cycles(set(self.edges)),
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


# ----------------------------------------------------------------------
# Static cross-check (`repro lint --san-report`)
# ----------------------------------------------------------------------


def _static_site_map(modules) -> dict[str, list[tuple[int, int, str]]]:
    """relpath -> [(first_line, last_line, "Class.attr")] for every
    statically-known lock creation site.

    A runtime creation site is a single frame line; the static construct
    can span several (a multi-line dataclass ``field(...)``), so sites
    map through line *ranges*.
    """
    import ast

    from repro.analysis.classes import own_lock_sites

    return {
        module.relpath: [
            (node.lineno, node.end_lineno or node.lineno, f"{cls.name}.{attr}")
            for cls in ast.walk(module.tree)
            if isinstance(cls, ast.ClassDef)
            for attr, node in own_lock_sites(cls)
        ]
        for module in modules
    }


def _translate(site: str, site_map: dict) -> str:
    path, _, line = site.rpartition(":")
    try:
        lineno = int(line)
    except ValueError:
        return site
    for first, last, node in site_map.get(path, ()):
        if first <= lineno <= last:
            return node
    return site


def cross_check(report: dict, modules) -> dict:
    """Compare a reprosan JSON report against the RL7xx static graph.

    Returns a dict with ``cycles`` (observed at runtime — always a
    failure), ``inversions`` (a runtime edge whose *reverse* is the only
    statically-known order between the pair — the static and dynamic
    views disagree, someone is wrong), ``unpredicted`` (observed but
    unknown to RL7xx — informational: usually name-resolution blind
    spots), and ``unobserved`` (static edges the test run never
    exercised — coverage, not correctness).
    """
    from repro.analysis.checkers.lockorder import collect_edges

    site_map = _static_site_map(modules)
    static_edges = {(e.src, e.dst) for e in collect_edges(modules)}

    runtime: set[tuple[str, str]] = set()
    for edge in report.get("edges", ()):
        src = _translate(edge["src"], site_map)
        dst = _translate(edge["dst"], site_map)
        if src != dst:
            runtime.add((src, dst))

    cycles = find_cycles(runtime)
    inversions = sorted(
        f"{src} -> {dst}"
        for src, dst in runtime
        if (dst, src) in static_edges and (src, dst) not in static_edges
    )
    unpredicted = sorted(
        f"{src} -> {dst}" for src, dst in runtime - static_edges
    )
    unobserved = sorted(
        f"{src} -> {dst}" for src, dst in static_edges - runtime
    )
    return {
        "runtime_edges": sorted(f"{s} -> {d}" for s, d in runtime),
        "cycles": cycles,
        "inversions": inversions,
        "unpredicted": unpredicted,
        "unobserved": unobserved,
        "ok": not cycles and not inversions,
    }


__all__ = [
    "Sanitizer",
    "install",
    "find_cycles",
    "cross_check",
]
