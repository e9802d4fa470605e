"""A machine hosting several leaf servers and one aggregator.

"Having eight servers allows for greater parallelism during query
execution [...] More importantly for recovery, eight servers mean that we
can restart the servers one at a time, while the other seven servers
continue to execute queries."  (paper, Section 2)

The machine is the unit at which the rollover enforces "at most one leaf
per machine restarting", at which the simulator models
disk and memory bandwidth contention, and at which a *planned machine
event* — kernel upgrade, host move, power-down — restarts every leaf
together.  Doing those sequentially would multiply the 3–4 s per-leaf
copy window by eight, so the machine runs each phase of such a restart
over a thread pool, one worker per leaf by default, while keeping the
Section 4.4 footprint claim true *machine-wide*: the combined in-flight
bytes of all concurrent copies are capped by a
:class:`~repro.util.budget.FootprintBudget`.

The leaves here are in-process objects, so the bulk copies share one GIL
and largely serialize; a deployed leaf is a *process*
(``repro.server.process_worker``).  The machine only decides *when* each
leaf's own ``shutdown``/``start`` runs, so every single-leaf invariant
(valid bit last, disk fallback on exception) holds unchanged, and one
leaf's failure never poisons its siblings.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.engine import RestartReport
from repro.disk.backup import DiskBackup
from repro.server.aggregator import Aggregator
from repro.server.leaf import DEFAULT_CAPACITY_BYTES, LeafServer
from repro.util.budget import FootprintBudget
from repro.util.clock import Clock, SystemClock
from repro.util.memtrack import MemoryTracker

#: Paper: "Each machine currently runs eight leaf servers".
DEFAULT_LEAVES_PER_MACHINE = 8


@dataclass
class RestartOutcome:
    """One leaf's result from a machine-wide phase."""

    leaf_id: str
    report: RestartReport | None = None
    error: BaseException | None = None
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ParallelRestartReport:
    """What one machine-wide restart did."""

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


def _loud(outcomes: list[RestartOutcome]) -> list[RestartOutcome]:
    """``outcomes``, once every leaf has run, or the first leaf's error."""
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return outcomes


class Machine:
    """One machine's leaves, aggregator, and local backup directory.

    Each machine-wide phase runs one thread per leaf (``restart_all``
    takes a narrower ``workers``), under an optional ``budget_bytes``:
    a machine-wide in-flight cap — a byte count or a shared
    :class:`FootprintBudget` — installed on every leaf's engine for the
    phase, so the engines' copy windows queue against one limit.
    ``shutdown_all``, ``start_all`` and ``wait_restored_all`` raise the
    first leaf's error once every leaf has run; ``restart_all`` reports
    each leaf's error instead.
    """

    def __init__(
        self,
        machine_id: str,
        backup_root: str | Path,
        leaves_per_machine: int = DEFAULT_LEAVES_PER_MACHINE,
        namespace: str = "scuba",
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        clock: Clock | None = None,
        rows_per_block: int | None = None,
        version: str = "v1",
        shared_tracker: bool = False,
    ) -> None:
        if leaves_per_machine < 1:
            raise ValueError("a machine needs at least one leaf server")
        self.machine_id = str(machine_id)
        self.clock = clock or SystemClock()
        #: With ``shared_tracker`` every leaf reports to one tracker, so
        #: its peak is the machine's physical-memory high-water mark.
        self.tracker: MemoryTracker | None = (
            MemoryTracker() if shared_tracker else None
        )
        self.leaves: list[LeafServer] = []
        root = Path(backup_root) / f"machine-{self.machine_id}"
        for index in range(leaves_per_machine):
            leaf_id = f"{self.machine_id}.{index}"
            backup = DiskBackup(root / f"leaf-{index}")
            self.leaves.append(
                LeafServer(
                    leaf_id=leaf_id,
                    backup=backup,
                    namespace=namespace,
                    capacity_bytes=capacity_bytes,
                    clock=self.clock,
                    rows_per_block=rows_per_block,
                    version=version,
                    machine_id=self.machine_id,
                    tracker=self.tracker,
                )
            )
        self.aggregator = Aggregator(self.leaves)

    def _each_leaf(
        self,
        fn: Callable[[LeafServer], RestartReport | None],
        workers: int | None = None,
        budget: FootprintBudget | int | None = None,
    ) -> list[RestartOutcome]:
        """Apply ``fn`` to every leaf, ``workers`` at a time; never raises.

        Exceptions are captured per leaf — a shutdown that overruns its
        deadline or a restore that dies even on its disk fallback shows
        up as a failed :class:`RestartOutcome` while its siblings finish
        normally.  With a ``budget`` every engine gets its own back
        afterwards (a lazy restore captures the shared one at begin, so
        its background sweep keeps queueing against it).
        """
        workers = len(self.leaves) if workers is None else workers
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        budget = _budget(budget)
        previous = [leaf.engine.budget for leaf in self.leaves]
        if budget is not None:
            for leaf in self.leaves:
                leaf.engine.budget = budget

        def one(leaf: LeafServer) -> RestartOutcome:
            started = time.perf_counter()
            try:
                outcome = RestartOutcome(leaf.leaf_id, report=fn(leaf))
            except Exception as exc:
                outcome = RestartOutcome(leaf.leaf_id, error=exc)
            outcome.duration_seconds = time.perf_counter() - started
            return outcome

        try:
            with ThreadPoolExecutor(max_workers=min(workers, len(self.leaves))) as pool:
                return list(pool.map(one, self.leaves))
        finally:
            for leaf, own in zip(self.leaves, previous):
                leaf.engine.budget = own

    def _shutdown_phase(self, use_shm, deadline_seconds, workers, budget):
        """Each leaf's shutdown, with its *own* deadline: the operational
        contract is per leaf ("we kill the leaf server if it has not shut
        down after 3 minutes"), not per machine."""

        return self._each_leaf(
            lambda leaf: leaf.shutdown(use_shm=use_shm, deadline_seconds=deadline_seconds),
            workers,
            budget,
        )

    def _start_phase(self, serve_while_restoring, workers, budget):
        return self._each_leaf(
            lambda leaf: leaf.start(serve_while_restoring=serve_while_restoring),
            workers,
            budget,
        )

    def shutdown_all(
        self,
        use_shm: bool = True,
        deadline_seconds: float | None = None,
        budget_bytes: FootprintBudget | int | None = None,
    ) -> list[RestartOutcome]:
        """Shut every leaf down (to shared memory by default) in parallel."""
        return _loud(self._shutdown_phase(use_shm, deadline_seconds, None, budget_bytes))

    def start_all(
        self,
        serve_while_restoring: bool = False,
        budget_bytes: FootprintBudget | int | None = None,
    ) -> list[RestartOutcome]:
        """Boot every leaf (shared memory first, disk fallback) in parallel.

        ``serve_while_restoring=True`` brings every leaf to *serving*
        instead of *restored*: each start returns at directory publish
        and the leaves fill in behind their background sweeps — call
        :meth:`wait_restored_all` to drain.
        """
        return _loud(
            self._start_phase(serve_while_restoring, None, budget_bytes)
        )

    def wait_restored_all(self, timeout: float | None = None) -> list[RestartOutcome]:
        """Drain every leaf's serve-while-restoring background sweep; the
        outcomes carry the final per-leaf reports."""
        return _loud(self._each_leaf(lambda leaf: leaf.wait_restored(timeout=timeout)))

    def restart_all(
        self,
        workers: int | None = None,
        budget_bytes: FootprintBudget | int | None = None,
        use_shm: bool = True,
        deadline_seconds: float | None = None,
        serve_while_restoring: bool = False,
    ) -> ParallelRestartReport:
        """The machine event: every leaf shuts down through shared
        memory, then every leaf comes back, ``workers`` at a time.

        The two phases are separated by a barrier, mirroring a real
        machine event: every old process must be gone before the new
        binary's processes come up and attach.  ``budget_bytes`` caps the
        combined in-flight copy windows so the machine-wide footprint
        stays at data + budget + metadata.

        With ``serve_while_restoring=True`` the restore phase ends when
        every leaf is *serving* (directory published, fault-in armed),
        so ``restart_window_seconds`` measures time-to-availability;
        the bytes finish in the background (``wait_restored_all``).
        """
        budget = _budget(budget_bytes)
        report = ParallelRestartReport(
            workers=min(workers or len(self.leaves), len(self.leaves)),
            serve_while_restoring=serve_while_restoring,
        )
        started = time.perf_counter()
        report.shutdown = self._shutdown_phase(use_shm, deadline_seconds, workers, budget)
        report.shutdown_seconds = time.perf_counter() - started
        started = time.perf_counter()
        report.restore = self._start_phase(serve_while_restoring, workers, budget)
        report.restore_seconds = time.perf_counter() - started
        if budget is not None:
            report.peak_in_flight_bytes = budget.peak_in_flight
        return report

    @property
    def nbytes(self) -> int:
        return sum(leaf.used_bytes for leaf in self.leaves)

    def __repr__(self) -> str:
        alive = sum(1 for leaf in self.leaves if leaf.is_alive)
        return (
            f"Machine(id={self.machine_id!r}, leaves={len(self.leaves)}, "
            f"alive={alive})"
        )



def _budget(budget: FootprintBudget | int | None) -> FootprintBudget | None:
    return FootprintBudget(budget) if isinstance(budget, int) else budget
