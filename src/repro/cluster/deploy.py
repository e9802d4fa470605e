"""Process-level deployment: leaf servers as real OS processes (§4.3).

:class:`ProcessDeployment` is a fleet of
:class:`~repro.server.process_client.LeafProcess` workers on one host,
with an aggregator over the running ones.  Its rolling upgrade is the
one :class:`~repro.cluster.rollover.RolloverCoordinator` loop, handed
the deployment as a single machine — the workers share one host's
``/dev/shm`` and memory bandwidth — so each batch runs the deploy
script's shutdown (to shared memory) → wait-or-kill → start the new
version, the rest of the fleet answering queries throughout.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.engine import RestartReport
from repro.query.query import Query, QueryResult
from repro.server.aggregator import Aggregator
from repro.server.process_client import LeafProcess, LeafProcessConfig
from repro.util.clock import Clock, SystemClock


class ProcessDeployment:
    """A fleet of leaf worker processes on one host."""

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

    def start_all(self) -> list[RestartReport]:
        return [leaf.start() for leaf in self.leaves]

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
