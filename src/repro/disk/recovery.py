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
from typing import Iterable, Iterator

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
    """Fold a table's snapshot chain (base + deltas) into one snapshot,
    less the rows the manifest's ``rows_expired`` count says are gone.

    Precondition: the manifest vouches for the chain
    (:meth:`DiskBackup.snapshot_fault` is ``None``: generation, tip,
    files present, not written by an older build).  The engine checks
    that for every table before it enters the snapshot rung, and this
    does not check it again.  Every link is checked before its blocks
    are trusted: the chain opens with a base and continues with
    strictly newer delta generations, and each file decodes cleanly and
    agrees with its link on generation / kind / table name / block count
    and on the rows it holds — a base spans ingest positions ``[its
    rows_expired, its rows_ingested)``, a delta ``[the previous link's
    rows_ingested, its rows_ingested)``.  A failure raises
    :class:`CorruptionError` / :class:`LayoutVersionError`, and the
    caller routes the whole leaf down to legacy replay.

    Expiry is a prefix of the ingest order, so each file is told how
    many of its leading rows are dead (:func:`read_table_snapshot`'s
    ``skip_rows``) and never unpacks those blocks: a long chain costs
    its file reads and CRCs, not a decode of blocks that are already
    dead.  A count that does not end on a block boundary describes some
    other table and raises.  The links' content keys are the *write*
    side's business and are not re-derived here — the file CRC and the
    checks above already vouch for the bytes.
    """
    chain = backup.snapshot_chain(table_name)
    expired = backup.rows_expired(table_name)
    blocks: list[RowBlock] = []
    prev_gen = 0
    start = chain[0]["rows_expired"]
    for index, link in enumerate(chain):
        kind, gen, filename = link.get("kind"), link.get("gen"), link["file"]
        if (index == 0) != (kind == "base"):
            raise CorruptionError(
                f"table '{table_name}': chain link {index} has kind "
                f"'{kind}' out of position"
            )
        if not isinstance(gen, int) or gen <= prev_gen:
            raise CorruptionError(
                f"table '{table_name}': chain generations not strictly "
                f"increasing at link {index}"
            )
        prev_gen = gen
        span = link["rows_ingested"] - start
        skip = min(max(expired - start, 0), span)
        snap = read_table_snapshot(backup.snapshot_dir / filename, skip)
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
        if snap.skipped_blocks + len(snap.blocks) != link["blocks"]:
            raise CorruptionError(
                f"table '{table_name}': chain file '{filename}' holds "
                f"{snap.skipped_blocks + len(snap.blocks)} blocks; chain "
                f"link says {link['blocks']}"
            )
        if skip + snap.row_count != span:
            raise CorruptionError(
                f"table '{table_name}': chain file '{filename}' holds "
                f"{skip + snap.row_count} rows; its link spans {span}"
            )
        blocks += snap.blocks
        start = link["rows_ingested"]
    return ShmSnapshot(
        table_name=table_name,
        blocks=blocks,
        generation=prev_gen,
        # Rows sealed and expired after the tip, never synced: the
        # count runs past the chain, as replay's watermarks allow.
        rows_ingested=max(start, expired),
        rows_expired=expired,
    )


def recover_leafmap(backup: DiskBackup, leafmap: LeafMap) -> int:
    """Rebuild every backed-up table into ``leafmap``; returns row count."""
    if len(leafmap):
        raise RecoveryError("disk recovery requires an empty leaf map")
    total = 0
    for table_name in backup.table_names:
        table = leafmap.create_table(table_name)
        count = table.add_runs(recover_table_runs(backup, table_name))
        restore_watermarks(backup, table, count)
        total += count
    return total
