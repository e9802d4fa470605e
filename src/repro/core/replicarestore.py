"""Serve-while-restoring over the wire: the replica recovery rung, lazily.

The protocol is :class:`~repro.core.lazyrestore.RestoreDriver`'s; this
module is its second source.  The *replica's wire catalog* is the block
directory and a :class:`~repro.cluster.replication.ReplicaFetchSession`
is where a pending block's bytes are: the restarting leaf starts serving
after one HELLO/CATALOG round-trip, and each fault-in is a GET/BLOCK
exchange followed by the driver's decode + verify + adopt.

The ladder position is between the shm tier and the disk rungs: the
engine routes here only when shared memory is unusable, and any wire
fault mid-serving routes the whole leaf down the *local disk* rungs —
``try_replica = False``, a burned session is not retried.  Crash safety
needs no valid-bit dance: this leaf's shm was already invalid (or
absent), and the replica's sealed blocks are pinned by its session
snapshot, so a kill mid-restore leaves nothing half-trusted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.core.lazyrestore import RestoreDriver
from repro.core.states import LeafRestoreState, TableRestoreState
from repro.errors import RecoveryError
from repro.shm.metadata import LeafMetadata

if TYPE_CHECKING:
    from repro.cluster.replication import ReplicaFetchSession, WireBlock


class ReplicaRestore(RestoreDriver):
    """The wire source: a standby leaf's sealed blocks, one session."""

    source = "replica"
    method = RecoveryMethod.REPLICA
    table_state = TableRestoreState.REPLICA_RECOVERY
    try_replica = False
    adopt_fault = "replica:adopt"

    # benchmarks/ledger/layers.py wraps these two through
    # vars(ReplicaRestore) so that a shm restore's spans read zero here:
    # keep them in this class's own namespace.
    fault_in_query = RestoreDriver.fault_in_query
    sweep_one = RestoreDriver.sweep_one

    def __init__(
        self, engine, leafmap, on_disk_fallback, session: "ReplicaFetchSession"
    ) -> None:
        super().__init__(engine, leafmap, on_disk_fallback)
        self._session = session

    @classmethod
    def begin(
        cls,
        engine: RestartEngine,
        leafmap: LeafMap,
        on_disk_fallback: Callable[[], None] | None = None,
    ) -> "ReplicaRestore | None":
        """Open a replica session and start serving off its catalog.

        Returns ``None`` when no replica is configured or the handshake
        fails *in any way* (dead peer, version-skewed or malformed
        catalog: anything odd means "no replica") — the caller then
        falls through to :meth:`LazyRestore.begin`, whose blocking
        ladder retries the replica rung (a fresh handshake) before the
        disk rungs and records the reroute on the final report, so a
        flaky-but-alive replica still gets its blocking shot.
        """
        if len(leafmap):
            raise RecoveryError("restore requires an empty leaf map")
        try:
            session = engine._open_replica_session()
        except Exception:
            return None
        if session is None:
            return None
        leafmap.drop_column_cache()  # heat counters survive the clear
        return cls(engine, leafmap, on_disk_fallback, session)._serve()

    def _publish_directory(self) -> None:
        """Index the session catalog and create the (empty) tables.

        No payload moves here — the catalog rode the HELLO reply — so
        the leaf starts serving in one wire round-trip.
        """
        engine = self._engine
        # This leaf's own shm state, if any, is stale or invalid —
        # begin_lazy_restore only routes here when it is unusable.
        # Discard it through the tracker before serving off the wire.
        if engine.shm_state_exists():
            meta = LeafMetadata.attach(engine.namespace, engine.leaf_id)
            try:
                engine._discard_shm_tracked(meta)
            except Exception:
                meta.close()
                raise
        self._machine.transition(LeafRestoreState.REPLICA_RECOVERY)
        for wire in self._session.tables:
            self._add_table(
                wire.name, wire.blocks, wire.rows_ingested, wire.rows_expired
            )
        engine._fault("restore:publish_directory")

    def _read_block(self, desc: "WireBlock") -> bytes:
        return self._session.fetch(desc.table, desc.index)

    def _close_source(self) -> None:
        self._session.close()


__all__ = ["ReplicaRestore"]
