"""The replica recovery rung: a standby's sealed blocks over the wire.

The protocol is :class:`~repro.core.lazyrestore.RestoreDriver`'s; this
module is its second source.  The *replica's wire catalog* is the block
directory and a :class:`ReplicaSession` (what ``RestartEngine``'s
``replica_source`` hands back; ``repro.cluster.replication`` implements
it) is where a pending block's bytes are: the restarting leaf can start
serving after one HELLO/CATALOG round-trip, each fault-in is a GET/BLOCK
exchange followed by the driver's decode + verify + adopt, and a drain —
all a blocking restore is — pulls everything still pending through the
session's pipelined streams.

The ladder position is between the shm tier and the disk rungs: the
engine routes here only when shared memory is unusable, and any wire
fault routes the whole leaf down the *local disk* rungs — a burned
session is not retried.  Crash safety
needs no valid-bit dance: this leaf's shm was already invalid (or
absent), and the replica's sealed blocks are pinned by its session
snapshot, so a kill mid-restore leaves nothing half-trusted.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Iterator, Protocol, Sequence

from repro.core.lazyrestore import RestoreDriver


class CatalogBlock(Protocol):
    """One sealed block of the catalog: the driver's block descriptor
    (``size``, ``row_count``, ``min_time``, ``max_time``, ``columns``,
    ``overlaps``), addressed by table and position."""

    table: str
    index: int


class CatalogTable(Protocol):
    """One table of the catalog, counters as of the handshake."""

    name: str
    rows_ingested: int
    rows_expired: int
    blocks: Sequence[CatalogBlock]


class ReplicaSession(Protocol):
    """What this rung asks of an open session to a standby."""

    #: Concurrent fetch connections a drain may drive.
    streams: int
    #: The catalog pinned at the handshake.
    tables: Sequence[CatalogTable]

    def fetch(self, table: str, index: int) -> bytes:
        """One block's packed bytes; raises on any wire fault."""

    def fetch_many(
        self,
        requests: list[tuple[str, int]],
        handler: Callable[[str, int, bytes], None],
    ) -> None:
        """Pipelined ``fetch`` of ``requests`` in order on one
        connection, ``handler(table, index, payload)`` per block."""

    def close(self) -> None: ...


class ReplicaRestore(RestoreDriver):
    """The wire source: a standby leaf's sealed blocks, one session
    (``None``: no replica — the handle only carries the disk rungs)."""

    source = "replica"

    # benchmarks/ledger/layers.py wraps these two through
    # vars(ReplicaRestore) so that a shm restore's spans read zero here:
    # keep them in this class's own namespace.
    fault_in_query = RestoreDriver.fault_in_query
    sweep_one = RestoreDriver.sweep_one

    def __init__(
        self, engine, leafmap, report, on_disk_fallback, session: ReplicaSession | None
    ) -> None:
        super().__init__(engine, leafmap, report, on_disk_fallback)
        self._session = session

    def _publish_directory(self) -> None:
        """Index the session catalog and create the (empty) tables.

        No payload moves here — the catalog rode the HELLO reply — so
        the leaf starts serving in one wire round-trip.
        """
        # This leaf's own shm state, if any, is untrusted — the engine
        # only routes here when it is.  Discard it through the tracker
        # before serving off the wire.
        self._engine._discard_untrusted_shm()
        for wire in self._session.tables:
            self._add_table(wire.name, wire.blocks, wire.rows_ingested, wire.rows_expired)

    def _read_block(self, desc: CatalogBlock) -> bytes:
        return self._session.fetch(desc.table, desc.index)

    def _read_blocks(self, descs: list) -> Iterator[tuple]:
        """Pipelined pull of everything a drain still wants.

        ``session.streams`` fetch threads each run fetch → unpack →
        verify (the CRC and decode work release the GIL, so the streams
        genuinely overlap); nothing is handed on until every block is
        home, and then in catalog order, so tables install
        all-or-nothing.  ``descs`` comes hottest table first, so a fault
        that kills the session late still pulled the data queries want
        most.
        """
        session = self._session
        decoded: dict[tuple[str, int], object] = {}

        def on_block(table: str, index: int, payload: bytes) -> None:
            decoded[table, index] = self._fault_block(payload)

        # Strided slices keep the heat order: every stream starts on the
        # hottest blocks of its share, and each stream amortizes the
        # round trip over its whole run via windowed pipelining.
        streams = max(1, session.streams)
        shares = [[(d.table, d.index) for d in descs[i::streams]] for i in range(streams)]
        # One thread per share, so every stream starts at once and the
        # pool's exit (also on a fault) waits for all of them.
        with ThreadPoolExecutor(
            max_workers=streams, thread_name_prefix="replica-fetch"
        ) as executor:
            futures = [
                executor.submit(session.fetch_many, share, on_block)
                for share in shares
                if share
            ]
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            # Any one will do: a stream that found the session condemned
            # raised the failure that condemned it.
            failed = next((f for f in futures if f in done and f.exception() is not None), None)
            if failed is not None:
                raise failed.exception()
        position = {name: at for at, name in enumerate(self._tables)}
        for desc in sorted(descs, key=lambda d: (position[d.table], d.index)):
            yield desc, decoded.pop((desc.table, desc.index))

    def _close_source(self) -> None:
        self._session.close()


__all__ = ["ReplicaRestore", "ReplicaSession"]
