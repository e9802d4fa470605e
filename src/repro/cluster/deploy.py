"""Process-level deployment: the script behind Section 4.3 and 4.5.

"The script that issues the shutdown command to each leaf then waits in
a loop for the leaf server process to die [...] we kill the leaf server
if it has not shut down after 3 minutes."

:class:`ProcessDeployment` manages a fleet of real
:class:`~repro.server.process_client.LeafProcess` workers and performs a
rolling binary upgrade over actual operating system processes: shutdown
(to shared memory) → wait-or-kill → spawn the new version → verify it is
serving — a few leaves at a time, the rest of the fleet answering
queries throughout.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.dashboard import Dashboard
from repro.core.watchdog import DEFAULT_SHUTDOWN_DEADLINE_SECONDS
from repro.query.query import Query, QueryResult
from repro.server.aggregator import Aggregator
from repro.server.process_client import LeafProcess, LeafProcessConfig
from repro.util.clock import Clock, SystemClock


@dataclass
class ProcessRolloverResult:
    """Summary of a process-level rolling upgrade."""

    new_version: str
    leaves_restarted: int = 0
    batches: int = 0
    clean_shutdowns: int = 0
    killed: int = 0
    recovered_via: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    dashboard: Dashboard = field(default_factory=Dashboard)


class ProcessDeployment:
    """A fleet of leaf worker processes plus the deploy tooling."""

    def __init__(
        self,
        backup_root: str | Path,
        n_leaves: int,
        namespace: str = "scuba",
        version: str = "v1",
        rows_per_block: int | None = None,
        clock: Clock | None = None,
    ) -> None:
        if n_leaves < 1:
            raise ValueError("a deployment needs at least one leaf")
        self.clock = clock or SystemClock()
        root = Path(backup_root)
        self.leaves = [
            LeafProcess(
                LeafProcessConfig(
                    leaf_id=str(index),
                    backup_dir=root / f"leaf-{index}",
                    namespace=namespace,
                    version=version,
                    rows_per_block=rows_per_block,
                )
            )
            for index in range(n_leaves)
        ]
        #: The process-level aggregator: the running workers answer.
        self.aggregator = Aggregator(self.leaves)

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------

    def start_all(self) -> list[dict]:
        return [leaf.spawn() for leaf in self.leaves]

    def stop_all(self) -> None:
        """Tear the fleet down without shared memory (tests/teardown)."""
        for leaf in self.leaves:
            if leaf.running:
                leaf.shutdown(use_shm=False, deadline_seconds=60.0)

    @property
    def running_leaves(self) -> list[LeafProcess]:
        return [leaf for leaf in self.leaves if leaf.running]

    def query(self, query: Query) -> QueryResult:
        return self.aggregator.query(query)

    def ingest(self, table: str, rows: list[dict], batch_rows: int = 500) -> int:
        """Round-robin batches over running leaves (a minimal tailer)."""
        total = 0
        targets = self.running_leaves
        if not targets:
            raise RuntimeError("no running leaves to ingest into")
        for index in range(0, len(rows), batch_rows):
            batch = rows[index : index + batch_rows]
            total += targets[(index // batch_rows) % len(targets)].add_rows(table, batch)
        return total

    def sync_all(self) -> int:
        return sum(leaf.sync() for leaf in self.running_leaves)

    # ------------------------------------------------------------------
    # The rolling upgrade
    # ------------------------------------------------------------------

    def _sample(self, dashboard: Dashboard, new_version: str) -> None:
        old = rolling = new = 0
        for leaf in self.leaves:
            if not leaf.running:
                rolling += 1
            elif leaf.config.version == new_version:
                new += 1
            else:
                old += 1
        total = max(1, len(self.leaves))
        dashboard.record(
            self.clock.now(), old, rolling, new, 1.0 - rolling / total
        )

    def rolling_upgrade(
        self,
        new_version: str,
        batch_fraction: float = 0.02,
        use_shm: bool = True,
        shutdown_deadline: float = DEFAULT_SHUTDOWN_DEADLINE_SECONDS,
        workers: int = 1,
    ) -> ProcessRolloverResult:
        """Upgrade every leaf process to ``new_version``.

        Each batch: issue shutdowns, wait-or-kill, respawn with the new
        version, and confirm the recovery method.  A killed leaf (copy
        overran the deadline) comes back via disk — the result counts
        both paths.

        ``workers`` > 1 drives each batch's shutdowns — and then its
        respawns — concurrently; since the leaves are separate OS
        processes, that parallelism is real even from a single deploy
        script.  Batches still run one after another, which is what
        keeps most of the fleet serving.
        """
        if not 0 < batch_fraction <= 1:
            raise ValueError("batch fraction must be in (0, 1]")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        batch_size = max(1, math.ceil(len(self.leaves) * batch_fraction))
        result = ProcessRolloverResult(new_version=new_version)
        start = self.clock.now()
        self._sample(result.dashboard, new_version)
        pending = [
            leaf for leaf in self.leaves if leaf.config.version != new_version
        ]

        def shut_one(leaf: LeafProcess) -> bool:
            return leaf.shutdown(use_shm=use_shm, deadline_seconds=shutdown_deadline)

        def spawn_one(leaf: LeafProcess) -> dict:
            leaf.config.version = new_version
            return leaf.spawn()

        def run(fn, batch: list[LeafProcess]) -> list:
            # Fan out over the batch, collect in batch order; counters
            # are aggregated by the caller, never from worker threads.
            if workers == 1 or len(batch) == 1:
                return [fn(leaf) for leaf in batch]
            with ThreadPoolExecutor(max_workers=min(workers, len(batch))) as pool:
                return list(pool.map(fn, batch))

        for index in range(0, len(pending), batch_size):
            batch = pending[index : index + batch_size]
            result.batches += 1
            for clean in run(shut_one, batch):
                if clean:
                    result.clean_shutdowns += 1
                else:
                    result.killed += 1
            self._sample(result.dashboard, new_version)
            for report in run(spawn_one, batch):
                method = report["method"]
                result.recovered_via[method] = result.recovered_via.get(method, 0) + 1
                result.leaves_restarted += 1
            self._sample(result.dashboard, new_version)
        result.wall_seconds = self.clock.now() - start
        return result
