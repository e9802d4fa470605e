"""The Scuba cluster: machines × leaves, a root aggregator, and ingest.

Data for each table is spread over many leaves by the tailers' two-
random-choices routing, so every leaf holds "a fraction of most tables"
(paper, Section 2.1).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Mapping

from repro.cluster.replication import ReplicaCatalog
from repro.disk.backup import DiskBackup
from repro.ingest.scribe import ScribeLog
from repro.ingest.tailer import Tailer
from repro.query.query import Query, QueryResult
from repro.server.aggregator import Aggregator
from repro.server.leaf import DEFAULT_CAPACITY_BYTES, LeafServer
from repro.server.machine import DEFAULT_LEAVES_PER_MACHINE, Machine
from repro.types import ColumnValue
from repro.util.clock import Clock, SystemClock


class Cluster:
    """A set of machines behaving as one Scuba deployment."""

    def __init__(
        self,
        n_machines: int,
        backup_root: str | Path,
        leaves_per_machine: int = DEFAULT_LEAVES_PER_MACHINE,
        namespace: str = "scuba",
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        clock: Clock | None = None,
        rows_per_block: int | None = None,
        version: str = "v1",
        rng: random.Random | None = None,
        replication: bool = False,
    ) -> None:
        if n_machines < 1:
            raise ValueError("a cluster needs at least one machine")
        self.clock = clock or SystemClock()
        self.namespace = namespace
        self._rng = rng or random.Random()
        self.machines = [
            Machine(
                machine_id=str(index),
                backup_root=backup_root,
                leaves_per_machine=leaves_per_machine,
                namespace=namespace,
                capacity_bytes=capacity_bytes,
                clock=self.clock,
                rows_per_block=rows_per_block,
                version=version,
            )
            for index in range(n_machines)
        ]
        self.scribe = ScribeLog()
        self._tailers: dict[str, Tailer] = {}
        # Figure 1's two-level structure: the root aggregator over the
        # machine aggregators, each over its machine's leaves.
        self.root_aggregator = Aggregator(
            [machine.aggregator for machine in self.machines]
        )
        #: Table-level replication (the replica recovery tier).  Each
        #: primary gets a standby leaf hosted on the *next* machine —
        #: surviving a machine-wide outage of the primary's host — in
        #: its own shm namespace and backup directory, outside the
        #: machine aggregators' fan-out and the tailers' routing pool.
        self.replica_catalog: ReplicaCatalog | None = None
        self.replica_leaves: list[LeafServer] = []
        if replication:
            self.replica_catalog = ReplicaCatalog()
            root = Path(backup_root)
            n = len(self.machines)
            for index, machine in enumerate(self.machines):
                host = self.machines[(index + 1) % n]
                for leaf in machine.leaves:
                    replica = LeafServer(
                        leaf_id=f"{leaf.leaf_id}r",
                        backup=DiskBackup(
                            root
                            / f"machine-{host.machine_id}"
                            / f"replica-{leaf.leaf_id}"
                        ),
                        namespace=f"{namespace}-rep",
                        capacity_bytes=capacity_bytes,
                        clock=self.clock,
                        rows_per_block=rows_per_block,
                        version=version,
                        machine_id=host.machine_id,
                    )
                    self.replica_leaves.append(replica)
                    self.replica_catalog.assign(leaf.leaf_id, replica)
                    leaf.engine.replica_source = (
                        self.replica_catalog.session_source(leaf.leaf_id)
                    )
            for machine in self.machines:
                machine.aggregator.replica_router = self.replica_catalog.replica_for

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def leaves(self) -> list[LeafServer]:
        return [leaf for machine in self.machines for leaf in machine.leaves]

    def start_all(self) -> None:
        for machine in self.machines:
            machine.start_all()
        for replica in self.replica_leaves:
            replica.start()

    @property
    def availability(self) -> float:
        """Fraction of leaves currently able to answer queries."""
        leaves = self.leaves
        if not leaves:
            return 1.0
        return sum(1 for leaf in leaves if leaf.accepts_queries) / len(leaves)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def tailer_for(self, table: str, batch_rows: int = 1000) -> Tailer:
        """The (singleton) tailer feeding ``table``."""
        tailer = self._tailers.get(table)
        if tailer is None:
            tailer = Tailer(
                scribe=self.scribe,
                category=table,
                table=table,
                leaves=self.leaves,
                batch_rows=batch_rows,
                rng=self._rng,
                clock=self.clock,
                mirror=(
                    self.replica_catalog.mirror
                    if self.replica_catalog is not None
                    else None
                ),
            )
            self._tailers[table] = tailer
        return tailer

    def ingest(
        self,
        table: str,
        rows: Iterable[Mapping[str, ColumnValue]],
        batch_rows: int = 1000,
    ) -> int:
        """Log rows to Scribe and drain them into leaves via the tailer."""
        self.scribe.append(table, rows)
        return self.tailer_for(table, batch_rows=batch_rows).drain()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(self, query: Query) -> QueryResult:
        return self.root_aggregator.query(query)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def sync_all(self) -> int:
        """A cluster-wide disk sync point; returns rows written."""
        return sum(leaf.sync_to_disk() for leaf in self.leaves if leaf.is_alive)

    def close(self) -> None:
        """Release replication resources (block servers, sockets)."""
        if self.replica_catalog is not None:
            self.replica_catalog.close()
