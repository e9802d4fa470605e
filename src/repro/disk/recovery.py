"""Disk recovery: rebuild a leaf's heap state from the legacy backup.

This is the slow path the paper is escaping: every row is read in disk
format and *translated* into the in-memory format (columnarized,
compressed, serialized into row block columns).  The log is decoded
into column runs (:func:`~repro.disk.format.decode_chunk_columns`) and
the translation runs through the same seal boundaries and codecs as
live ingestion (``Table.add_runs``, ``RowBlock.from_columns``), so its
cost asymmetry against the shared-memory restore is real in this
implementation, not simulated.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import ColumnRun, Table
from repro.disk.backup import DiskBackup
from repro.disk.format import decode_chunk_columns, read_chunk_payloads
from repro.disk.shmformat import ShmSnapshot, read_table_snapshot
from repro.errors import CorruptionError, RecoveryError, SnapshotStaleError
from repro.types import TIME_COLUMN


def surviving_chunks(
    backup: DiskBackup, table_name: str
) -> tuple[list[tuple[int, bytes]], int]:
    """The log chunks that still hold live rows, as ``(chunks, skip)``.

    The log is append-only and expiry only moves a count in the
    manifest, so on a long-running leaf most chunks hold only dead rows.
    The trailing ``synced_rows - rows_expired`` rows of the intact chunk
    stream survive; chunk headers carry row counts, so the walk keeps the
    newest chunks that cover them and drops the rest undecoded.
    ``chunks`` are raw ``(row count, payload)`` pairs, oldest first; the
    first ``skip`` rows of ``chunks[0]`` are dead.  A dead chunk is still
    read and CRC-checked (:func:`read_chunk_payloads`: the file's
    validity does not depend on what survives), but whether its rows
    would decode is never asked.  The ``skip`` dead rows get the same
    rule one level down: :func:`decode_chunk_columns` walks them (the
    live rows start where they end) and builds none of their values.  A
    manifest from before the count was tracked keeps every chunk; its
    replay filters rows by timestamp.
    Nothing past the manifest's ``log_bytes`` is read, and nothing at all
    when it says no rows were synced: no publish vouched.
    """
    path = backup.table_file(table_name)
    synced = backup.synced_rows(table_name)
    expired = backup.rows_expired(table_name)
    keep = None if expired is None else max(0, synced - expired)
    if not synced or keep == 0 or not path.exists():
        return [], 0
    window: deque[tuple[int, bytes]] = deque()
    held = 0
    with open(path, "rb") as fh:
        for chunk in read_chunk_payloads(fh, backup.log_bytes(table_name)):
            window.append(chunk)
            held += chunk[0]
            while keep is not None and held - window[0][0] >= keep:
                held -= window.popleft()[0]
    return list(window), (0 if keep is None else max(0, held - keep))


def chunk_runs(chunks: Iterable[tuple[int, bytes]], skip: int = 0) -> Iterator[ColumnRun]:
    """The column runs of ``chunks``' rows less the first ``skip``,
    decoded one chunk at a time."""
    for n_rows, payload in chunks:
        yield from decode_chunk_columns(payload, n_rows, skip)
        skip = 0


def recover_table_runs(backup: DiskBackup, table_name: str) -> Iterator[ColumnRun]:
    """Yield a table's surviving rows as column runs (expiry applied).

    The live table's expiry is re-applied by *count*: the trailing
    ``synced_rows - rows_expired`` log rows survive, which reproduces
    the live table's prefix-of-blocks expiry exactly — including late
    rows below any cutoff that waited behind a newer block — and only
    the chunks holding them are decoded (:func:`surviving_chunks`).
    Manifests from before the count was tracked fall back to filtering
    rows by the timestamp cutoff (a row without one reads 0).
    """
    chunks, skip = surviving_chunks(backup, table_name)
    cutoff = 0 if backup.rows_expired(table_name) is not None else backup.expire_cutoff(table_name)
    for run in chunk_runs(chunks, skip):
        if cutoff:
            run = run.select([t >= cutoff for t in run.column(TIME_COLUMN) or [0] * run.n_rows])
        if run.n_rows:
            yield run


def restore_watermarks(backup: DiskBackup, table: Table, count: int) -> None:
    """Line a replayed table's ingest/expiry counters up with the backup
    so later syncs do: its ``count`` rows are the last ingested.  Expiry
    that ran past the synced rows (blocks sealed and dropped before any
    sync) stays counted; otherwise the next sync's rows would fall under
    the manifest's trim."""
    ingested = max(backup.synced_rows(table.name), backup.rows_expired(table.name) or 0)
    table.total_rows_ingested = ingested
    table.total_rows_expired = ingested - count


def materialize_chain(backup: DiskBackup, table_name: str) -> ShmSnapshot:
    """Fold a table's snapshot chain (base + deltas) into one snapshot.

    Every link is validated before its blocks are trusted: the chain must
    open with a base and continue with strictly newer delta generations,
    the tip must carry the manifest's current sync generation, each
    referenced file must exist, decode cleanly, agree with its link on
    generation / kind / block count / table name, and every dropped
    sequence number must name a block the chain actually holds.  Any
    failure raises — :class:`SnapshotStaleError` for generation or
    missing-file problems, :class:`CorruptionError` /
    :class:`LayoutVersionError` for torn, inconsistent, or incompatible
    content — and the caller routes the whole leaf down to legacy
    replay.

    The manifest alone says which blocks a later link drops, so that set
    is resolved first and those blocks are never unpacked: a long chain
    costs its file reads and CRCs, not a decode of blocks that are
    already dead.  The links' content keys are the *write* side's
    business and are not re-derived here — the file CRC and the
    generation / kind / count checks already vouch for the bytes.
    """
    expected = backup.snapshot_generation(table_name)
    if expected <= 0 or expected != backup.sync_generation(table_name):
        raise SnapshotStaleError(
            f"table '{table_name}': snapshot generation {expected} does not "
            f"match sync generation {backup.sync_generation(table_name)}"
        )
    chain = backup.snapshot_chain(table_name)
    if not chain:
        raise SnapshotStaleError(f"table '{table_name}': no snapshot chain")
    if chain[-1].get("gen") != expected:
        raise SnapshotStaleError(
            f"table '{table_name}': chain tip generation "
            f"{chain[-1].get('gen')}; manifest expects {expected}"
        )
    doomed = {
        seq
        for link in chain
        for seq in link.get("dropped", ())
        if isinstance(seq, int)
    }
    #: sequence -> block; ``None`` stands for a doomed block that was
    #: not unpacked.  Sequences never repeat (checked per link below) and
    #: a drop must find its block here, so each ``None`` is deleted by
    #: the link that dooms it — or that link raises.
    live: dict[int, RowBlock | None] = {}
    next_seq = 0
    prev_gen = 0
    tip: ShmSnapshot | None = None
    for index, link in enumerate(chain):
        kind = link.get("kind")
        if (index == 0) != (kind == "base"):
            raise CorruptionError(
                f"table '{table_name}': chain link {index} has kind "
                f"'{kind}' out of position"
            )
        gen = link.get("gen")
        if not isinstance(gen, int) or gen <= prev_gen:
            raise CorruptionError(
                f"table '{table_name}': chain generations not strictly "
                f"increasing at link {index}"
            )
        prev_gen = gen
        for seq in link.get("dropped", ()):
            if seq not in live:
                raise CorruptionError(
                    f"table '{table_name}': chain link {index} drops "
                    f"unknown block sequence {seq}"
                )
            del live[seq]
        filename = link.get("file")
        if filename is None:
            if kind == "base" or link.get("blocks"):
                raise CorruptionError(
                    f"table '{table_name}': chain link {index} declares "
                    "blocks but references no file"
                )
            continue
        path = backup.snapshot_dir / filename
        if not path.exists():
            raise SnapshotStaleError(
                f"table '{table_name}': chain file '{filename}' missing"
            )
        start = link.get("start_seq", 0)
        if not isinstance(start, int) or start < next_seq:
            raise CorruptionError(
                f"table '{table_name}': chain link {index} reuses block "
                f"sequence {start}"
            )
        snap = read_table_snapshot(path, skip={seq - start for seq in doomed})
        if snap.generation != gen:
            raise SnapshotStaleError(
                f"table '{table_name}': chain file '{filename}' carries "
                f"generation {snap.generation}; chain link says {gen}"
            )
        if snap.table_name != table_name:
            raise CorruptionError(
                f"snapshot file for '{table_name}' decodes as table "
                f"'{snap.table_name}'"
            )
        if snap.is_delta != (kind == "delta"):
            raise CorruptionError(
                f"table '{table_name}': chain file '{filename}' is "
                f"{'a delta' if snap.is_delta else 'a base'} but its link "
                f"says kind '{kind}'"
            )
        declared = link.get("blocks")
        if declared is not None and declared != len(snap.blocks):
            raise CorruptionError(
                f"table '{table_name}': chain file '{filename}' holds "
                f"{len(snap.blocks)} blocks; chain link says {declared}"
            )
        live.update(enumerate(snap.blocks, start=start))
        next_seq = start + len(snap.blocks)
        tip = snap
    last = chain[-1]
    rows_ingested = last.get("rows_ingested")
    rows_expired = last.get("rows_expired")
    if rows_ingested is None or rows_expired is None:
        # Legacy single-link chains synthesized from a bare
        # ``snapshot_gen`` leave the watermarks to the file envelope.
        if tip is None:
            raise CorruptionError(
                f"table '{table_name}': chain carries no watermarks"
            )
        rows_ingested = tip.rows_ingested
        rows_expired = tip.rows_expired
    return ShmSnapshot(
        table_name=table_name,
        blocks=[live[seq] for seq in sorted(live)],
        generation=expected,
        rows_ingested=rows_ingested,
        rows_expired=rows_expired,
    )


def _drop_expired(table_name: str, blocks: list[RowBlock], rows: int) -> list[RowBlock]:
    """``blocks`` less the leading blocks that hold exactly ``rows`` rows:
    what the live table expired after the chain's tip.  A count that
    does not end on a block boundary (or runs past the chain) describes
    some other table — a :class:`CorruptionError`."""
    n = 0
    while rows > 0 and n < len(blocks):
        rows -= blocks[n].row_count
        n += 1
    if rows != 0:
        raise CorruptionError(
            f"table '{table_name}': expired-row count does not end on a "
            "block boundary of its snapshot chain"
        )
    return blocks[n:]


def recover_leafmap_snapshots(
    backup: DiskBackup,
    leafmap: LeafMap,
    progress: Callable[[str, int], None] | None = None,
) -> int:
    """Rebuild every table from its shm-format snapshot; returns row count.

    The fast disk tier: each table is a file read plus bulk
    ``RowBlock.unpack`` — no row-by-row translation.  Watermarks are
    restored from the snapshot, and rows the live table expired after
    the chain's tip are dropped by count (:func:`_drop_expired`: "any
    needed deletions are made after recovery"), so the result is
    indistinguishable from a legacy replay of the same state.  The
    snapshot tier's validity gate: :func:`materialize_chain` checks
    every link before its blocks are trusted, and any failure raises, so
    the caller routes the whole leaf down to legacy replay (one leaf
    never mixes tiers).
    """
    if len(leafmap):
        raise RecoveryError("disk recovery requires an empty leaf map")
    total = 0
    for table_name in backup.table_names:
        expired = backup.rows_expired(table_name)
        if expired is None:  # a manifest from before the count: replay filters
            raise CorruptionError(f"table '{table_name}': no expired-row count to trim by")
        snap = materialize_chain(backup, table_name)
        blocks = _drop_expired(table_name, snap.blocks, expired - snap.rows_expired)
        table = leafmap.create_table(table_name)
        table.replace_blocks(blocks)
        table.total_rows_ingested = snap.rows_ingested
        table.total_rows_expired = expired
        total += table.row_count
        if progress is not None:
            progress(table_name, table.row_count)
    return total


def recover_leafmap(
    backup: DiskBackup,
    leafmap: LeafMap,
    progress: Callable[[str, int], None] | None = None,
) -> int:
    """Rebuild every backed-up table into ``leafmap``; returns row count.

    ``progress`` (if given) is called as ``progress(table_name, rows)``
    after each table completes, which is how a restarting leaf reports
    its gradually-increasing data coverage to the aggregators.
    """
    if len(leafmap):
        raise RecoveryError("disk recovery requires an empty leaf map")
    total = 0
    for table_name in backup.table_names:
        table = leafmap.create_table(table_name)
        count = table.add_runs(recover_table_runs(backup, table_name))
        restore_watermarks(backup, table, count)
        total += count
        if progress is not None:
            progress(table_name, count)
    return total
