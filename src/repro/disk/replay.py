"""Parallel legacy replay: the worst recovery rung, fanned across workers.

Single-stream legacy replay (``recover_leafmap``) pays its time in two
loops: decoding the disk chunks into column runs and sealing those into
compressed blocks (``seal_groups``, ``RowBlock.from_columns``).  Both
are CPU-bound — the decode numpy over the payload plus a Python slice
per string cell (a one-shape chunk; a byte loop otherwise), the seal
Python around the column codecs — so this module fans *both* across a
worker pool: the parent scans each table file once for raw chunk
payloads (header row counts, no row decode), partitions the global row
stream at exact seal boundaries into chunk-aligned spans, and each
worker decodes its span's chunks, seals its groups, and returns
finished blocks.  The parent merges partitions back in seal order, so
the result is bit-identical to single-stream replay: the same rows
grouped at the same boundaries into blocks in the same order, and
recovery digests match.

The partitioner can place boundaries without decoding rows only while
the row-count threshold is the binding seal constraint — the normal
case; the pre-compression byte cap is 1 GB.  Every worker re-checks
that assumption against its actual rows; if the byte cap would have
sealed a group early anywhere, the whole table is redone through the
exact single-stream grouping (``seal_groups`` in the parent) with only
the sealing fanned out — slower, never wrong.  The same exact path
handles tables with a timestamp cutoff still to apply, where
chunk-header row counts overstate the surviving stream; expiry the live
table already ran is a count, and only moves where the stream starts.

The pool is of processes because of the GIL: a thread pool time-slices
one interpreter, so it only adds hand-off cost to the serial replay.
Chunks cross into workers as raw payload bytes and blocks cross back in
their packed (Figure 4) form — both near-memcpy for pickle — so the
parent's serial share stays small.

Each in-flight partition charges the payload bytes it ships against the
machine's :class:`~repro.util.budget.FootprintBudget` (when given),
so parallel replay's transient footprint queues against concurrent
restarts instead of stacking on top of them.  Releases ride the
future's done-callback — never the parent thread — so a parent blocked
in ``acquire`` can always be unblocked by a finishing worker.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from itertools import accumulate
from typing import Iterator

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.schema import Schema
from repro.columnstore.table import ColumnRun, Table, seal_groups
from repro.disk.backup import DiskBackup
from repro.disk.recovery import (
    chunk_runs,
    recover_table_runs,
    restore_watermarks,
    surviving_chunks,
)
from repro.errors import RecoveryError
from repro.types import ColumnValue
from repro.util.budget import FootprintBudget
from repro.util.clock import Clock, SystemClock

#: Partitions handed out per worker (per table): enough slices that a
#: slow partition does not leave the pool idle, few enough that the
#: boundary chunks decoded by two neighbours stay a rounding error.
_PARTITIONS_PER_WORKER = 3


# ----------------------------------------------------------------------
# Worker tasks (module-level: the pool pickles references)
# ----------------------------------------------------------------------


def _seal_group(schema: Schema, columns: dict[str, list[ColumnValue]], created_at: float) -> bytes:
    # Blocks cross the process boundary in their contiguous packed form;
    # the parent unpacks (and re-uids) them on arrival.
    return RowBlock.from_columns(schema, columns, created_at).pack()


def _span_runs(chunks: list[tuple[int, bytes]], skip: int, take: int) -> Iterator[ColumnRun]:
    """The column runs of the ``take`` rows from row ``skip`` of ``chunks``."""
    for run in chunk_runs(chunks, skip):
        if run.n_rows >= take:
            yield run.select([True] * take + [False] * (run.n_rows - take))
            return
        take -= run.n_rows
        yield run


def _replay_partition(
    chunks: list[tuple[int, bytes]],
    skip: int,
    take: int,
    rows_per_block: int,
    max_block_bytes: int,
    created_at: float,
) -> list[bytes] | None:
    """Decode a span of chunks and seal its ``take`` rows into blocks.

    ``skip`` positions the span's first row inside its first chunk (the
    partitioner aligns partitions to seal boundaries, not to chunk
    boundaries, so a boundary chunk is decoded by both neighbours).
    Returns ``None`` when the byte cap would have sealed a group before
    the row-count threshold — the count-based partitioning premise is
    then wrong for this table, and the caller falls back to exact
    single-stream grouping.
    """
    blocks: list[bytes] = []
    groups = seal_groups(_span_runs(chunks, skip, take), rows_per_block, max_block_bytes)
    for schema, columns, n_rows, nbytes in groups:
        if nbytes >= max_block_bytes and n_rows < rows_per_block:
            return None  # byte cap binds: count-based boundaries are wrong
        blocks.append(_seal_group(schema, columns, created_at))
    return blocks


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------


class _Submitter:
    """Budget-charged submission with in-order draining.

    Futures drain oldest-first, so results arrive in submission order —
    which the callers arrange to be seal order.  On an error every
    outstanding future is awaited (their done-callbacks return their
    budget bytes) before the error propagates, keeping the budget
    balanced for whatever path runs next.
    """

    def __init__(self, executor: Executor, budget: FootprintBudget | None) -> None:
        self._executor = executor
        self._budget = budget
        self._pending: deque[Future] = deque()

    def submit(self, nbytes: int, fn, /, *args) -> None:
        if self._budget is not None:
            self._budget.acquire(nbytes)
        try:
            future = self._executor.submit(fn, *args)
        except BaseException:
            if self._budget is not None:
                self._budget.release(nbytes)
            raise
        if self._budget is not None:
            # Release from the done-callback, not the drain: the parent
            # may be blocked in acquire() for the next submission, and
            # only a worker finishing can free bytes for it.
            future.add_done_callback(
                lambda _f, n=nbytes, b=self._budget: b.release(n)
            )
        self._pending.append(future)

    def __len__(self) -> int:
        return len(self._pending)

    def drain_oldest(self):
        return self._pending.popleft().result()

    def abandon(self) -> None:
        while self._pending:
            future = self._pending.popleft()
            if not future.cancel():
                try:
                    future.result()
                except BaseException:
                    pass


def _replay_table_exact(
    backup: DiskBackup,
    table: Table,
    executor: Executor,
    budget: FootprintBudget | None,
    clock: Clock,
    window: int,
) -> int:
    """The exact-grouping path: serial decode, parallel seal.

    Used when count-based partitioning cannot hold — an expiry cutoff
    thins the stream mid-chunk, or the byte cap sealed a group early.
    The parent streams the column runs once through ``seal_groups`` and
    fans only ``RowBlock.from_columns`` out; correct for every input,
    but the serial decode bounds its speedup.
    """
    sub = _Submitter(executor, budget)
    blocks: list[RowBlock] = []
    count = 0

    def drain_oldest() -> None:
        blocks.append(RowBlock.unpack(sub.drain_oldest()))

    try:
        groups = seal_groups(
            recover_table_runs(backup, table.name),
            table.rows_per_block,
            table.max_block_bytes,
        )
        for schema, columns, n_rows, nbytes in groups:
            sub.submit(nbytes, _seal_group, schema, columns, clock.now())
            count += n_rows
            while len(sub) >= window:
                drain_oldest()
        while len(sub):
            drain_oldest()
    except BaseException:
        sub.abandon()
        raise
    table.replace_blocks(blocks)
    return count


def _replay_table_partitioned(
    backup: DiskBackup,
    table: Table,
    executor: Executor,
    budget: FootprintBudget | None,
    clock: Clock,
    workers: int,
) -> int | None:
    """The fast path: chunk-aligned partitions, decode + seal in workers.

    Returns ``None`` when any worker reports the byte cap binding, in
    which case nothing was installed and the caller must rerun the
    table through :func:`_replay_table_exact`.
    """
    chunks, skip = surviving_chunks(backup, table.name)
    counts = [n_rows for n_rows, _ in chunks]
    stream_end = sum(counts)
    total = stream_end - skip
    if total == 0:
        table.replace_blocks([])
        return 0
    rpb = table.rows_per_block
    n_groups = -(-total // rpb)
    # At most workers * _PARTITIONS_PER_WORKER partitions: all in flight.
    per_part = max(1, -(-n_groups // (workers * _PARTITIONS_PER_WORKER))) * rpb
    # Chunk index of each stream row: starts[i] = first row of chunk i.
    starts = list(accumulate(counts, initial=0))
    sub = _Submitter(executor, budget)
    blocks: list[RowBlock] = []
    results: list = []
    try:
        chunk_idx = 0
        for begin in range(skip, stream_end, per_part):
            end = min(begin + per_part, stream_end)
            while starts[chunk_idx] + counts[chunk_idx] <= begin:
                chunk_idx += 1
            last = chunk_idx
            while starts[last] + counts[last] < end:
                last += 1
            span = chunks[chunk_idx : last + 1]
            sub.submit(
                sum(len(p) for _, p in span),
                _replay_partition,
                span,
                begin - starts[chunk_idx],
                end - begin,
                rpb,
                table.max_block_bytes,
                clock.now(),
            )
        while len(sub) and None not in results:
            results.append(sub.drain_oldest())
    except BaseException:
        sub.abandon()
        raise
    if None in results:
        # The byte cap bound: every later partition started at a wrong
        # boundary, so what it returns or raises does not count.
        sub.abandon()
        return None
    for result in results:
        blocks.extend(RowBlock.unpack(b) for b in result)
    table.replace_blocks(blocks)
    return total


def replay_leafmap(
    backup: DiskBackup,
    leafmap: LeafMap,
    workers: int = 4,
    budget: FootprintBudget | None = None,
    clock: Clock | None = None,
) -> int:
    """Rebuild every backed-up table via parallel legacy replay.

    A drop-in sibling of :func:`~repro.disk.recovery.recover_leafmap`:
    same empty-leafmap precondition, same watermark restoration, same
    return value — and the same recovered rows, block for block.  Only
    wall-clock differs.
    """
    if workers < 1:
        raise ValueError("replay needs at least one worker")
    if len(leafmap):
        raise RecoveryError("disk recovery requires an empty leaf map")
    clock = clock or SystemClock()
    total = 0
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    ) as executor:
        for table_name in backup.table_names:
            table = leafmap.create_table(table_name)
            count: int | None = None
            # A count trim cuts the chunk stream at its head only; a
            # manifest from before the count filters rows by time.
            by_time = backup.rows_expired(table_name) is None and backup.expire_cutoff(table_name)
            if not by_time:
                count = _replay_table_partitioned(
                    backup, table, executor, budget, clock, workers
                )
            if count is None:
                count = _replay_table_exact(
                    backup,
                    table,
                    executor,
                    budget,
                    clock,
                    window=workers * 2,
                )
            restore_watermarks(backup, table, count)
            total += count
    return total
