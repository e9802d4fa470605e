"""Rolling upgrades (paper, Sections 4.3, 4.5 and 6).

"To maintain high availability of data without replication, we typically
restart only 2% of Scuba servers at a time" — with the additional rule
that at most one leaf per machine restarts at once, so every restarting
leaf gets its machine's full disk (or memory) bandwidth.

:class:`RolloverCoordinator` is the one deploy loop.  It walks *members*
grouped by machine, where a member is an in-process
:class:`~repro.server.leaf.LeafServer` or a worker process
(:class:`~repro.server.process_client.LeafProcess`): each batch is shut
down — §4.3's deadline turns an overrun into a kill, and a kill only
into a straggler — then relabelled with the new version and started.  A
:class:`~repro.cluster.cluster.Cluster` hands in its machines, a
:class:`~repro.cluster.deploy.ProcessDeployment` itself as one machine
(its workers share one host), and a canary the machines it runs on.
The full-scale timings of the same policy come from :mod:`repro.sim`,
which takes its batch size from :func:`batch_size`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

from repro.cluster.dashboard import Dashboard
from repro.core.engine import RecoveryMethod, RestartReport
from repro.core.watchdog import DEFAULT_SHUTDOWN_DEADLINE_SECONDS
from repro.errors import StateError
from repro.util.clock import Clock

#: Paper: "we typically restart only 2% of the servers at a time".
DEFAULT_BATCH_FRACTION = 0.02


def batch_size(members: int, fraction: float) -> int:
    """How many of ``members`` one batch restarts: ``fraction`` of them
    rounded down, but at least one.  The 1e-9 keeps a product that float
    error puts just below a whole number (100 × 0.29) on it."""
    if not 0 < fraction <= 1:
        raise ValueError("batch fraction must be in (0, 1]")
    return max(1, math.floor(members * fraction + 1e-9))


class Member(Protocol):
    """A leaf as the rollover sees it, in process or in its own process."""

    version: str

    @property
    def accepts_queries(self) -> bool: ...

    def shutdown(self, use_shm: bool, deadline_seconds: float | None) -> object: ...

    def start(self) -> RestartReport: ...


class Host(Protocol):
    """A machine: members sharing one box's bandwidth, and its clock."""

    clock: Clock

    @property
    def leaves(self) -> Sequence[Member]: ...


@dataclass
class RolloverResult:
    """Summary of one completed rollover, read from its start reports."""

    new_version: str
    use_shm: bool
    batches: int = 0
    wall_seconds: float = 0.0
    dashboard: Dashboard = field(default_factory=Dashboard)
    #: Every member's start report, in restart order.
    restart_reports: list[RestartReport] = field(default_factory=list)

    @property
    def leaves_restarted(self) -> int:
        return len(self.restart_reports)

    @property
    def by_rung(self) -> dict[str, int]:
        """Recovery method → leaves that came back on it."""
        return dict(Counter(report.method.value for report in self.restart_reports))

    @property
    def falls(self) -> dict[str, int]:
        """Fall reason → how often a rung fell for it."""
        return dict(
            Counter(
                event.reason
                for report in self.restart_reports
                for event in report.events
                if event.kind == "fall"
            )
        )

    @property
    def stragglers(self) -> int:
        """Leaves an shm rollover restarted that did not land on shared
        memory: killed at the deadline, failed copies, crashed leaves."""
        if not self.use_shm:
            return 0
        return self.leaves_restarted - self.by_rung.get(
            RecoveryMethod.SHARED_MEMORY.value, 0
        )

    @property
    def min_availability(self) -> float:
        return self.dashboard.min_availability


class RolloverCoordinator:
    """Upgrades every member of ``machines`` to ``new_version``."""

    def __init__(
        self,
        machines: Sequence[Host],
        new_version: str,
        batch_fraction: float = DEFAULT_BATCH_FRACTION,
        use_shm: bool = True,
        shutdown_deadline_seconds: float | None = DEFAULT_SHUTDOWN_DEADLINE_SECONDS,
    ) -> None:
        if not machines:
            raise ValueError("a rollover needs at least one machine")
        self.machines = [list(machine.leaves) for machine in machines]
        self.clock = machines[0].clock
        self.new_version = new_version
        self.batch_size = batch_size(sum(map(len, self.machines)), batch_fraction)
        self.use_shm = use_shm
        #: §4.3: a shutdown still running after this is killed, and the
        #: member comes back from disk; ``None`` waits for ever.
        self.shutdown_deadline_seconds = shutdown_deadline_seconds
        self.result = RolloverResult(new_version=new_version, use_shm=use_shm)

    def select_batch(self) -> list[Member]:
        """The next members to restart.

        At most ``batch_size`` members still on the old version, at most
        one per machine, and none from a machine with a member in flight
        (down on the new version) — the rule that multiplies effective
        recovery bandwidth by the leaves per machine (Sections 2, 6).  A
        member that is already down goes before its serving siblings.
        """
        batch: list[Member] = []
        for members in self.machines:
            if len(batch) == self.batch_size:
                break
            pending = [m for m in members if m.version != self.new_version]
            in_flight = any(
                not m.accepts_queries for m in members if m.version == self.new_version
            )
            if pending and not in_flight:
                batch.append(min(pending, key=lambda m: m.accepts_queries))
        return batch

    def batches(self) -> Iterator[list[Member]]:
        """Run the rollover, yielding each batch while it is down — so a
        caller can query or ingest around it — and filling ``result``."""
        result = self.result
        started = self.clock.now()
        self._sample()
        while batch := self.select_batch():
            result.batches += 1
            # The batch is on distinct machines: its shutdowns overlap in
            # production; here they run back to back, which keeps the
            # dashboard's shape (the sim models true concurrency).
            for member in batch:
                if not member.accepts_queries:
                    continue  # already down: started below, no shutdown
                try:
                    member.shutdown(
                        use_shm=self.use_shm,
                        deadline_seconds=self.shutdown_deadline_seconds,
                    )
                except Exception:
                    pass  # the deploy script's kill: the start uses disk
            self._sample()
            yield batch
            for member in batch:
                member.version = self.new_version
                result.restart_reports.append(member.start())
            self._sample()
        result.wall_seconds = self.clock.now() - started
        stuck = sum(m.version != self.new_version for ms in self.machines for m in ms)
        if stuck:
            raise StateError(
                f"rollover to {self.new_version} stalled with {stuck} "
                "member(s) behind: their machine has a member down on it"
            )

    def run(self) -> RolloverResult:
        """Perform the full rollover, one batch at a time."""
        for _ in self.batches():
            pass
        return self.result

    def _sample(self) -> None:
        members = [m for ms in self.machines for m in ms]
        rolling = sum(not m.accepts_queries for m in members)
        new = sum(
            m.accepts_queries and m.version == self.new_version for m in members
        )
        self.result.dashboard.record(
            self.clock.now(),
            len(members) - rolling - new,
            rolling,
            new,
            1.0 - rolling / len(members),
        )
