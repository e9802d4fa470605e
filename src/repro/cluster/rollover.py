"""Rolling cluster restarts (paper, Sections 1, 4.5 and 6).

"To maintain high availability of data without replication, we typically
restart only 2% of Scuba servers at a time" — with the additional rule
that at most one leaf per machine restarts at once, so every restarting
leaf gets its machine's full disk (or memory) bandwidth.

:class:`RolloverCoordinator` drives a real in-process cluster through a
version upgrade.  Wall-clock timings of these scaled-down rollovers feed
the measured side of experiments E1/E3; the full-scale timings come from
:mod:`repro.sim`, which replays the same policy against the paper's
hardware profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.dashboard import Dashboard
from repro.core.engine import RestartReport
from repro.core.watchdog import CooperativeDeadline
from repro.server.leaf import LeafServer, LeafStatus

#: Paper: "we typically restart only 2% of the servers at a time".
DEFAULT_BATCH_FRACTION = 0.02


@dataclass
class RolloverResult:
    """Summary of one completed rollover."""

    new_version: str
    use_shm: bool
    leaves_restarted: int = 0
    batches: int = 0
    stragglers: int = 0  # shm copies that failed; recovered from disk
    wall_seconds: float = 0.0
    dashboard: Dashboard = field(default_factory=Dashboard)
    restart_reports: list[RestartReport] = field(default_factory=list)
    min_availability: float = 1.0


class RolloverCoordinator:
    """Upgrades every leaf of a cluster to a new binary version."""

    def __init__(
        self,
        cluster: Cluster,
        new_version: str,
        batch_fraction: float = DEFAULT_BATCH_FRACTION,
        use_shm: bool = True,
        shutdown_deadline_seconds: float | None = None,
    ) -> None:
        if not 0 < batch_fraction <= 1:
            raise ValueError("batch fraction must be in (0, 1]")
        self.cluster = cluster
        self.new_version = new_version
        self.batch_fraction = batch_fraction
        self.use_shm = use_shm
        #: Optional §4.3 deadline applied to each shm shutdown.  A copy
        #: that overruns (or fails for any reason) is treated like a
        #: kill: the leaf comes back from disk and the rollover goes on.
        self.shutdown_deadline_seconds = shutdown_deadline_seconds

    @property
    def batch_size(self) -> int:
        return max(1, math.ceil(len(self.cluster.leaves) * self.batch_fraction))

    def select_batch(self) -> list[LeafServer]:
        """The next leaves to restart.

        At most ``batch_size`` leaves still on the old version, at most
        one per machine — the rule that multiplies effective recovery
        bandwidth by the number of leaves per machine (Sections 2, 6).
        """
        batch: list[LeafServer] = []
        for machine in self.cluster.machines:
            if len(batch) >= self.batch_size:
                break
            if machine.restarting_leaves:
                continue  # this machine is already busy
            for leaf in machine.leaves:
                if leaf.version != self.new_version and leaf.is_alive:
                    batch.append(leaf)
                    break
        return batch

    def _sample(self, dashboard: Dashboard) -> None:
        old = 0
        rolling = 0
        new = 0
        for leaf in self.cluster.leaves:
            if leaf.status in (LeafStatus.DOWN, LeafStatus.SHUTTING_DOWN) or (
                not leaf.is_alive
            ):
                rolling += 1
            elif leaf.version == self.new_version:
                new += 1
            else:
                old += 1
        dashboard.record(
            self.cluster.clock.now(), old, rolling, new, self.cluster.availability
        )

    def run(self) -> RolloverResult:
        """Perform the full rollover, one batch at a time."""
        result = RolloverResult(new_version=self.new_version, use_shm=self.use_shm)
        start = self.cluster.clock.now()
        self._sample(result.dashboard)
        while True:
            batch = self.select_batch()
            if not batch:
                break
            result.batches += 1
            # Shut the whole batch down (each on a distinct machine),
            # then restart each — the shutdowns overlap in production;
            # in-process we do them back to back, which preserves the
            # dashboard's shape (the sim layer models true concurrency).
            for leaf in batch:
                deadline = None
                if self.use_shm and self.shutdown_deadline_seconds is not None:
                    deadline = CooperativeDeadline(
                        self.shutdown_deadline_seconds, clock=self.cluster.clock
                    )
                try:
                    report = leaf.shutdown(use_shm=self.use_shm, deadline=deadline)
                except Exception:
                    # The deploy script's kill: heap is gone, valid bit
                    # unset; the replacement restarts from disk below.
                    result.stragglers += 1
                    report = None
                if report is not None:
                    result.restart_reports.append(report)
            self._sample(result.dashboard)
            for leaf in batch:
                leaf.version = self.new_version
                report = leaf.start()
                result.restart_reports.append(report)
                result.leaves_restarted += 1
            self._sample(result.dashboard)
        result.wall_seconds = self.cluster.clock.now() - start
        result.min_availability = result.dashboard.min_availability
        return result
