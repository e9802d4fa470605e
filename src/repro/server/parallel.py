"""Parallel restart: a machine's leaves through shutdown/restore at once.

The paper restarts one leaf per machine at a time during rollover so the
other seven keep serving queries (§4.5), but after a *planned machine
event* — kernel upgrade, host move, power-down — every leaf must restart
together, and doing them sequentially multiplies the 3–4 s per-leaf copy
window by eight.  This module fans the leaves of one machine over a
thread pool while keeping the Section 4.4 footprint claim true
*machine-wide*: the combined in-flight bytes of all concurrent copies are
capped by a :class:`~repro.util.budget.FootprintBudget`.

The leaves here are in-process :class:`~repro.server.leaf.LeafServer`
objects, so the bulk copies — pure-Python ``memoryview`` writes — share
one GIL and largely serialize.  A deployed leaf is a *process*
(``repro.server.process_worker``, restarted through
``repro.server.supervisor``); this coordinator is the machine-event
schedule and the footprint bound, not a stand-in for that.  The per-leaf
protocol is untouched — the coordinator only decides *when* each leaf's
existing ``shutdown``/``start`` runs, so every single-leaf invariant
(valid bit last, disk fallback on exception) holds unchanged, and one
leaf's failure never poisons its siblings.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.engine import RestartReport
from repro.core.watchdog import CooperativeDeadline
from repro.server.leaf import LeafServer
from repro.util.budget import FootprintBudget


@dataclass
class RestartOutcome:
    """One leaf's result from a parallel phase."""

    leaf_id: str
    report: RestartReport | None = None
    error: BaseException | None = None
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ParallelRestartReport:
    """What one machine-wide parallel restart did."""

    workers: int
    shutdown: list[RestartOutcome] = field(default_factory=list)
    restore: list[RestartOutcome] = field(default_factory=list)
    shutdown_seconds: float = 0.0
    restore_seconds: float = 0.0
    peak_in_flight_bytes: int = 0
    #: True when the restore phase returned at directory-publish time
    #: (serve-while-restoring) rather than after the last byte; the
    #: restart window then measures time-to-serving, and per-leaf
    #: reports carry restored-bytes-vs-served-queries counters.
    serve_while_restoring: bool = False

    @property
    def restart_window_seconds(self) -> float:
        """The paper's unavailability window: shutdown + restore."""
        return self.shutdown_seconds + self.restore_seconds

    @property
    def failures(self) -> list[RestartOutcome]:
        return [o for o in self.shutdown + self.restore if not o.ok]


class ParallelRestartCoordinator:
    """Drives many leaves' shutdown/restore concurrently.

    Parameters
    ----------
    leaves:
        The :class:`~repro.server.leaf.LeafServer` instances of one
        machine.
    max_workers:
        Pool width; defaults to one worker per leaf (the
        leaves-per-machine fan-out of §2).
    budget:
        Optional machine-wide in-flight byte cap — a
        :class:`~repro.util.budget.FootprintBudget` or a plain byte
        count.  Installed on every leaf's engine for the duration of
        each phase, so the engines' copy windows queue against one
        shared limit.
    """

    def __init__(
        self,
        leaves: Sequence[LeafServer],
        max_workers: int | None = None,
        budget: FootprintBudget | int | None = None,
    ) -> None:
        if not leaves:
            raise ValueError("a coordinator needs at least one leaf")
        self.leaves = list(leaves)
        if max_workers is None:
            max_workers = len(self.leaves)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = min(max_workers, len(self.leaves))
        if isinstance(budget, int):
            budget = FootprintBudget(budget)
        self.budget = budget

    def _run_phase(
        self, fn: Callable[[LeafServer], RestartReport | None]
    ) -> list[RestartOutcome]:
        """Apply ``fn`` to every leaf concurrently; never raises.

        Exceptions are captured per leaf — a shutdown that overruns its
        deadline or a restore that dies even on its disk fallback shows
        up as a failed :class:`RestartOutcome` while its siblings finish
        normally.  Every engine gets its own budget back afterwards (a
        lazy restore captures the shared one at begin, so its background
        sweep keeps queueing against it).
        """
        previous = [leaf.engine.budget for leaf in self.leaves]
        for leaf in self.leaves:
            leaf.engine.budget = self.budget

        def one(leaf: LeafServer) -> RestartOutcome:
            started = time.perf_counter()
            try:
                report = fn(leaf)
                return RestartOutcome(
                    leaf.leaf_id,
                    report=report,
                    duration_seconds=time.perf_counter() - started,
                )
            except Exception as exc:
                return RestartOutcome(
                    leaf.leaf_id,
                    error=exc,
                    duration_seconds=time.perf_counter() - started,
                )

        try:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(one, self.leaves))
        finally:
            for leaf, budget in zip(self.leaves, previous):
                leaf.engine.budget = budget

    def shutdown_all(
        self,
        use_shm: bool = True,
        deadline_seconds: float | None = None,
    ) -> list[RestartOutcome]:
        """Shut every leaf down (to shared memory by default) in parallel.

        Each leaf gets its *own* deadline of ``deadline_seconds`` — the
        operational contract is per leaf ("we kill the leaf server if it
        has not shut down after 3 minutes"), not per machine.
        """

        def one(leaf: LeafServer) -> RestartReport | None:
            deadline = (
                CooperativeDeadline(timeout=deadline_seconds, clock=leaf.clock)
                if deadline_seconds is not None
                else None
            )
            return leaf.shutdown(use_shm=use_shm, deadline=deadline)

        return self._run_phase(one)

    def start_all(
        self,
        memory_recovery_enabled: bool = True,
        serve_while_restoring: bool = False,
    ) -> list[RestartOutcome]:
        """Boot every leaf (shared memory first, disk fallback) in parallel.

        ``serve_while_restoring=True`` brings every leaf to *serving*
        instead of *restored*: each start returns at directory publish
        and the leaves fill in behind their background sweeps — call
        :meth:`wait_restored_all` to drain.
        """
        return self._run_phase(
            lambda leaf: leaf.start(
                memory_recovery_enabled=memory_recovery_enabled,
                serve_while_restoring=serve_while_restoring,
            )
        )

    def wait_restored_all(
        self, timeout: float | None = None
    ) -> list[RestartReport | None]:
        """Drain every leaf's serve-while-restoring sweep; returns the
        final per-leaf reports (see ``LeafServer.wait_restored``)."""
        return [leaf.wait_restored(timeout=timeout) for leaf in self.leaves]

    def restart_all(
        self,
        use_shm: bool = True,
        memory_recovery_enabled: bool = True,
        deadline_seconds: float | None = None,
        serve_while_restoring: bool = False,
    ) -> ParallelRestartReport:
        """The full cycle: parallel shutdown, then parallel restore.

        The two phases are separated by a barrier, mirroring a real
        machine event: every old process must be gone before the new
        binary's processes come up and attach.

        With ``serve_while_restoring=True`` the restore phase ends when
        every leaf is *serving* (directory published, fault-in armed),
        so ``restart_window_seconds`` measures time-to-availability;
        the bytes finish in the background (``wait_restored_all``).
        """
        report = ParallelRestartReport(
            workers=self.max_workers,
            serve_while_restoring=serve_while_restoring,
        )
        started = time.perf_counter()
        report.shutdown = self.shutdown_all(
            use_shm=use_shm, deadline_seconds=deadline_seconds
        )
        report.shutdown_seconds = time.perf_counter() - started
        started = time.perf_counter()
        report.restore = self.start_all(
            memory_recovery_enabled=memory_recovery_enabled,
            serve_while_restoring=serve_while_restoring,
        )
        report.restore_seconds = time.perf_counter() - started
        if self.budget is not None:
            report.peak_in_flight_bytes = self.budget.peak_in_flight
        return report
