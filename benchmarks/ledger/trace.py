"""Outside-in span recorder for the ledger's traced run.

The traced run wraps *public* functions and methods of each ``repro``
layer from outside — nothing under ``src/`` knows it is being timed.
A span is ``(name, start, end, parent, cycle)`` on one thread; a span's
**self time** is its duration minus the time its child spans cover, so
the self times of everything under a timed window add up to that
window's duration.

Every thread keeps its own parent stack: spans opened by the restore
sweep thread or by wire fetch threads are roots on *their* thread and do
not count as children of whatever the client thread is doing meanwhile.

Spans stay in memory until the run ends (:meth:`Recorder.dump`).  The
module is imported, and the wrappers installed, only under ``--trace``;
:meth:`Recorder.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Iterator

# Span record slots (a list per span keeps the hot path allocation-light).
NAME, START, END, PARENT, CYCLE, CHILD, VALUE = range(7)

_DONE = object()


class _ThreadSpans:
    """One thread's spans plus its stack of open span indexes."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.spans: list[list] = []
        self.stack: list[int] = []


def _end(state: _ThreadSpans, rec: list) -> None:
    """Close the span and bill its duration to its parent's children."""
    end = perf_counter()
    rec[END] = end
    stack = state.stack
    stack.pop()
    if stack:
        state.spans[stack[-1]][CHILD] += end - rec[START]


class Recorder:
    """Records spans and owns the patches that produce them."""

    def __init__(self) -> None:
        #: Stamped on every span opened from now on; the runner sets it
        #: to the cycle index (-1 = set-up / teardown, not reported).
        self.cycle = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        #: ``(holder, attribute, original)`` for everything replaced.
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _begin(self, nid: int) -> tuple[_ThreadSpans, list]:
        """Open a span on the calling thread, under whatever is open."""
        state = self._state()
        spans, stack = state.spans, state.stack
        rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.cycle, 0.0, 0]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = perf_counter()
        return state, rec

    def wrap(
        self,
        fn: Callable,
        span_name: str,
        measure: Callable[[Any], int] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as one span named ``span_name``.

        A generator function records one span per resume, so the work a
        consumer does between two ``next()`` calls is not billed to the
        generator.  ``measure(result)`` is stored with the span (block
        counts, byte counts) so ratios are taken where the work happens.
        """
        nid = self._name_id(span_name)
        begin = self._begin

        @functools.wraps(fn)
        def call(*args, **kwargs):
            state, rec = begin(nid)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rec[VALUE] = measure(result)
                return result
            finally:
                _end(state, rec)

        if not inspect.isgeneratorfunction(fn):
            return call

        @functools.wraps(fn)
        def generate(*args, **kwargs):
            inner = fn(*args, **kwargs)
            step = self.wrap(lambda: next(inner, _DONE), span_name)
            try:
                while (item := step()) is not _DONE:
                    yield item
            finally:
                inner.close()

        return generate

    def span(self, span_name: str) -> "_OpenSpan":
        """Context manager for the runner's own timed windows."""
        return _OpenSpan(self, self._name_id(span_name))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def instrument(
        self,
        owner: Any,
        name: str,
        span_name: str,
        measure: Callable[[Any], int] | None = None,
    ) -> None:
        """Replace ``owner.name`` (a module function or a class's method)
        with its recording wrapper.

        A module-level function is also re-bound in every ``repro.*``
        module whose global *is* the original — ``from x import f``
        copies the reference, and the importer must see the wrapper too.
        """
        if name.startswith("_"):
            raise ValueError(f"refusing to instrument private name '{name}'")
        raw = vars(owner)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.wrap(raw.__func__, span_name, measure))
        else:
            wrapped = self.wrap(raw, span_name, measure)
        self._replace(owner, name, raw, wrapped)
        if inspect.ismodule(owner):
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, attr, raw, wrapped)

    def _replace(self, holder: Any, attr: str, raw: Any, wrapped: Any) -> None:
        setattr(holder, attr, wrapped)
        self._patches.append((holder, attr, raw))

    def uninstall(self) -> None:
        """Put every original back (last replaced, first restored)."""
        while self._patches:
            holder, attr, raw = self._patches.pop()
            setattr(holder, attr, raw)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def iter_spans(self) -> Iterator[tuple[str, list]]:
        """``(thread_name, span record)`` for every finished span."""
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for rec in state.spans:
                if rec[END]:
                    yield state.thread_name, rec

    def span_count(self) -> int:
        with self._lock:
            return sum(len(state.spans) for state in self._threads)

    def totals(self) -> dict[str, dict[int, list]]:
        """``name -> cycle -> [self seconds, duration seconds, calls,
        measured value]`` summed over every thread."""
        out: dict[str, dict[int, list]] = {name: {} for name in self.names}
        for _, rec in self.iter_spans():
            duration = rec[END] - rec[START]
            cell = out[self.names[rec[NAME]]].setdefault(rec[CYCLE], [0.0, 0.0, 0, 0])
            cell[0] += duration - rec[CHILD]
            cell[1] += duration
            cell[2] += 1
            cell[3] += rec[VALUE]
        return out

    def per_span_cost(self, calls: int = 20_000) -> float:
        """Seconds one recorded call costs over a bare one (calibration
        for the overhead estimate); the probe's spans are discarded."""

        def probe() -> None:
            return None

        wrapped = self.wrap(probe, "bench.calibration")
        state = self._state()
        mark = len(state.spans)
        started = perf_counter()
        for _ in range(calls):
            probe()
        bare = perf_counter() - started
        started = perf_counter()
        for _ in range(calls):
            wrapped()
        recorded = perf_counter() - started
        del state.spans[mark:]
        return max(0.0, recorded - bare) / calls

    def dump(self, path: str, meta: dict) -> int:
        """Write every span as JSON; returns the span count.

        ``threads[i].spans[j]`` is ``[name index, start, end, parent
        index within the same thread or -1, cycle, self seconds]`` with
        times in seconds since the first span.
        """
        with self._lock:
            threads = list(self._threads)
        origin = min(
            (state.spans[0][START] for state in threads if state.spans), default=0.0
        )
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "cycle", "self_s"],
            "names": self.names,
            "threads": [
                {
                    "thread": state.thread_name,
                    "spans": [
                        [
                            rec[NAME],
                            round(rec[START] - origin, 7),
                            round(rec[END] - origin, 7),
                            rec[PARENT],
                            rec[CYCLE],
                            round(rec[END] - rec[START] - rec[CHILD], 7),
                        ]
                        for rec in state.spans
                    ],
                }
                for state in threads
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return sum(len(thread["spans"]) for thread in doc["threads"])


class _OpenSpan:
    """``with recorder.span(name):`` — a span around a block of code."""

    def __init__(self, recorder: Recorder, nid: int) -> None:
        self._recorder = recorder
        self._nid = nid
        self._open: tuple[_ThreadSpans, list] | None = None

    def __enter__(self) -> "_OpenSpan":
        self._open = self._recorder._begin(self._nid)
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._open is not None
        _end(*self._open)
