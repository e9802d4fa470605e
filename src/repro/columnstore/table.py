"""Tables: a vector of sealed row blocks plus an open write buffer.

New rows land in a row-oriented write buffer; once 65,536 rows (or the
1 GB pre-compression cap) accumulate, the buffer is sealed into a
compressed :class:`RowBlock`.  Tables also delete data "as it expires due
to either age or size limits" (paper, Section 2).

Legacy replay seals rows it read back from disk as column runs
(:meth:`Table.add_runs`, :func:`seal_groups`) at the boundaries, and
with the errors, that :meth:`Table.add_row` applies to rows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple

from repro.columnstore.colcache import DecodedColumnCache
from repro.columnstore.rowblock import ROWS_PER_BLOCK, RowBlock, TimeRange
from repro.columnstore.schema import EXACT_TYPES, Schema, infer_column_type
from repro.compression.base import MAX_ROWBLOCK_BYTES
from repro.compression.decoded import DecodedColumn
from repro.compression.pipeline import column_arrays
from repro.errors import SchemaError
from repro.types import TIME_COLUMN, ColumnType, ColumnValue
from repro.util.clock import Clock, SystemClock

#: The column type of an ordinary value, by its exact Python type (any
#: other value takes ``infer_column_type``).
_ROW_TYPES = {**EXACT_TYPES, list: ColumnType.STRING_VECTOR}
#: Bound once: looking members up on the enum class for every value made
#: the loop in ``add_row`` ~1.6x slower.
_STRING, _VECTOR = ColumnType.STRING, ColumnType.STRING_VECTOR


def _vector_bytes(value: list[str]) -> int:
    return sum(map(len, value)) + 4 * len(value)


def _fixed_bytes(name: str, ctype: ColumnType) -> int:
    """A column's part of ``estimate_row_bytes`` that does not depend on
    its value: the name, 8, and a number's 8."""
    return len(name) + (8 if ctype is _STRING or ctype is _VECTOR else 16)


def estimate_row_bytes(row: Mapping[str, ColumnValue]) -> int:
    """Rough pre-compression size of one row, for the 1 GB block cap."""
    total = 0
    for name, value in row.items():
        total += len(name) + 8
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, list):
            total += _vector_bytes(value)
        else:
            total += 8
    return total


_NO_TIME = f"row lacks the required '{TIME_COLUMN}' column"
_BAD_TIME = f"'{TIME_COLUMN}' must be an integer unix timestamp"


def _column_error(name: object, ctype: ColumnType, known: ColumnType | None) -> SchemaError:
    """Why a column ``name`` of ``ctype`` cannot join a buffer that has
    it as ``known`` (``None``: a new column)."""
    if known is not None:
        return SchemaError(f"column '{name}' seen as both {known.name} and {ctype.name}")
    return SchemaError(f"column names must be non-empty strings: {name!r}")


class ColumnRun(NamedTuple):
    """Consecutive rows whose columns agree on type: the columns in
    first-seen order, each a value list with the type's default where a
    row lacks the column.  What legacy replay decodes the row log into
    and :meth:`Table.add_runs` seals.

    ``layouts`` is ``None`` when every row carries every column in this
    order; otherwise each row's columns, in its own order, as positions
    in ``names`` (a position a row repeats: the name it repeats).
    """

    names: tuple[str, ...]
    types: tuple[ColumnType, ...]
    columns: list[list[ColumnValue]]
    n_rows: int
    layouts: list[tuple[int, ...]] | None = None

    def column(self, name: str) -> list[ColumnValue] | None:
        """One column's values; ``None`` when the run lacks it."""
        return self.columns[self.names.index(name)] if name in self.names else None

    def rows(self) -> list[dict[str, ColumnValue]]:
        """The run's rows, as dicts."""
        names, columns = self.names, self.columns
        if not names:
            return [{} for _ in range(self.n_rows)]
        if self.layouts is None:
            return [dict(zip(names, values)) for values in zip(*columns)]
        return [{names[j]: columns[j][i] for j in ls} for i, ls in enumerate(self.layouts)]

    def select(self, keep: list[bool]) -> "ColumnRun":
        """The run's rows where ``keep`` is true."""
        layouts = self.layouts and list(compress(self.layouts, keep))
        columns = [list(compress(column, keep)) for column in self.columns]
        return ColumnRun(self.names, self.types, columns, sum(keep), layouts)


def _row_bytes(run: ColumnRun) -> list[int]:
    """``estimate_row_bytes`` of each row of ``run``: its part that does
    not depend on the values follows from the columns the row carries,
    and a default it holds for a column it lacks adds nothing."""
    per_column = list(map(_fixed_bytes, run.names, run.types))
    if run.layouts is None:
        sizes = [sum(per_column)] * run.n_rows
    else:
        fixed = {ls: sum(map(per_column.__getitem__, set(ls))) for ls in set(run.layouts)}
        sizes = list(map(fixed.__getitem__, run.layouts))
    for ctype, column in zip(run.types, run.columns):
        if ctype is _STRING:
            sizes = list(map(add, sizes, map(len, column)))
        elif ctype is _VECTOR:
            sizes = list(map(add, sizes, map(_vector_bytes, column)))
    return sizes


def seal_groups(
    runs: Iterable[ColumnRun], rows_per_block: int, max_block_bytes: int
) -> Iterator[tuple[Schema, dict[str, list[ColumnValue]], int, int]]:
    """Cut ``runs`` into the row blocks :meth:`Table.add_rows` would seal
    from their rows, as ``(schema, columns, rows, estimated bytes)``,
    ready for :meth:`RowBlock.from_columns`.

    The same boundaries: a block seals after the row that brings it to
    ``rows_per_block`` rows or ``max_block_bytes`` estimated bytes, and
    its schema is its rows' columns in first-seen order.  The same
    :class:`SchemaError`s, from the same row: rows are checked a layout
    at a time, where one first occurs in the block (a layout that passed
    there passes again).
    """
    types: dict[str, ColumnType] = {}
    parts: list[tuple[ColumnRun, int, int, set[int]]] = []
    n_rows = n_bytes = 0
    for run in runs:
        ends = list(accumulate(_row_bytes(run)))  # ends[i]: the run's rows [0, i]
        time = run.names.index(TIME_COLUMN) if TIME_COLUMN in run.names else -1
        lo = 0
        while lo < run.n_rows:
            start = ends[lo - 1] if lo else 0
            hi = min(run.n_rows, lo + rows_per_block - n_rows)
            hi = min(hi, bisect_left(ends, max_block_bytes - n_bytes + start, lo, hi) + 1)
            layouts = dict.fromkeys(run.layouts[lo:hi]) if run.layouts else [range(len(run.names))]
            for layout in layouts:
                if time not in layout:
                    raise SchemaError(_NO_TIME)
                if run.types[time] is not ColumnType.INT64:
                    raise SchemaError(_BAD_TIME)
                for j in layout:
                    name, ctype = run.names[j], run.types[j]
                    known = types.get(name)
                    if known is not ctype:
                        if known is not None or not name:
                            raise _column_error(name, ctype, known)
                        types[name] = ctype
            parts.append((run, lo, hi, set().union(*layouts)))
            n_rows += hi - lo
            n_bytes += ends[hi - 1] - start
            lo = hi
            if n_rows >= rows_per_block or n_bytes >= max_block_bytes:
                yield Schema(types), _block_columns(types, parts, n_rows), n_rows, n_bytes
                types, parts, n_rows, n_bytes = {}, [], 0, 0
    if parts:
        yield Schema(types), _block_columns(types, parts, n_rows), n_rows, n_bytes


def _block_columns(
    types: dict[str, ColumnType],
    parts: list[tuple[ColumnRun, int, int, set[int]]],
    n_rows: int,
) -> dict[str, list[ColumnValue]]:
    """One block's columns from its runs' rows ``[lo, hi)``, of the
    columns present there; a value a row lacks, the type's default."""
    columns: dict[str, list[ColumnValue]] = {name: [] for name in types}
    at = 0
    for run, lo, hi, present in parts:
        for j in present:
            values = columns[run.names[j]]
            if len(values) < at:
                values += [types[run.names[j]].default()] * (at - len(values))
            values += run.columns[j][lo:hi]
        at += hi - lo
    for name, values in columns.items():
        values += [types[name].default()] * (n_rows - len(values))
    return columns


class _RowShape(NamedTuple):
    """What a row's full check leaves behind for the rows shaped like it."""

    names: tuple
    #: Each value's exact type, in column order.
    kinds: tuple
    #: The estimate's part that does not depend on the values.
    fixed_bytes: int
    strings: tuple[str, ...]
    vectors: tuple[str, ...]

    def bytes_of(self, row: Mapping[str, ColumnValue]) -> int:
        """``estimate_row_bytes(row)`` for a row of this shape."""
        nbytes = self.fixed_bytes
        for name in self.strings:
            nbytes += len(row[name])
        for name in self.vectors:
            value = row[name]
            nbytes += sum(map(len, value)) + 4 * len(value)
        return nbytes


class BufferBlock(TimeRange):
    """The write buffer as one more block: its rows read as they will
    seal — every schema column present, a value a row omits the type's
    default — and in array form for the vectorized executor.

    A snapshot: an add makes a new one (:meth:`Table.buffer_block`).
    Each column is built on first use, once; no cache holds it.
    """

    def __init__(
        self,
        rows: list[dict[str, ColumnValue]],
        schema: Schema,
        min_time: int,
        max_time: int,
    ) -> None:
        self._rows = rows
        self.schema = schema
        self.row_count = len(rows)
        self.min_time = min_time
        self.max_time = max_time
        self._columns: dict[str, DecodedColumn] = {}

    def decoded_column(self, name: str) -> DecodedColumn:
        """One column in array form, as its sealed block would decode it."""
        column = self._columns.get(name)
        if column is None:
            values = self.schema.column_values(name, self._rows)
            column = self._columns[name] = column_arrays(self.schema.type_of(name), values)
        return column

    def to_rows(self) -> list[dict[str, ColumnValue]]:
        """Every row as its sealed block would materialize it."""
        defaults = {name: ctype.default() for name, ctype in self.schema.items()}
        return [{**defaults, **row} for row in self._rows]


class Table:
    """One table's shard on one leaf server (paper, Figure 2).

    The header fields of Figure 2 — table name and row block count — are
    the ``name`` attribute and ``len(table.blocks)``.
    """

    def __init__(
        self,
        name: str,
        clock: Clock | None = None,
        rows_per_block: int = ROWS_PER_BLOCK,
        max_block_bytes: int = MAX_ROWBLOCK_BYTES,
        cache: DecodedColumnCache | None = None,
    ) -> None:
        if not name:
            raise ValueError("table name must be non-empty")
        if rows_per_block < 1:
            raise ValueError("rows_per_block must be positive")
        self.name = name
        self._clock = clock or SystemClock()
        self._rows_per_block = rows_per_block
        self._max_block_bytes = max_block_bytes
        self._cache = cache
        self._blocks: list[RowBlock] = []
        self._buffer: list[dict[str, ColumnValue]] = []
        self._buffer_bytes = 0
        #: The buffer's column types in first-seen order (its seal-time
        #: schema), the shape of its last row, its time range, and its
        #: memoized block view.
        self._buffer_types: dict[str, ColumnType] = {}
        self._buffer_shape: _RowShape | None = None
        self._buffer_min_time = self._buffer_max_time = 0
        self._buffer_view: BufferBlock | None = None
        #: Rows ever ingested / ever expired — monotone counters the
        #: incremental disk backup uses as sync watermarks.
        self.total_rows_ingested = 0
        self.total_rows_expired = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def add_row(self, row: Mapping[str, ColumnValue]) -> None:
        """Append one row; seals a row block when a cap is reached.

        The row's column types are checked against the buffer's first: a
        row the buffer could not seal raises :class:`SchemaError` and is
        not appended, so it cannot wedge every later seal.  A row shaped
        like the last one accepted into this buffer — the same column
        names in the same order, each value of the same exact type —
        passed those checks already and skips them.
        """
        shape = self._buffer_shape
        names = tuple(row)
        kinds = tuple(map(type, row.values()))
        if shape is not None and shape.names == names and shape.kinds == kinds:
            nbytes = shape.bytes_of(row)
        else:
            shape, nbytes = self._check_row(row, names, kinds)
        time_value = row[TIME_COLUMN]
        if not self._buffer:
            self._buffer_min_time = self._buffer_max_time = time_value
        elif time_value < self._buffer_min_time:
            self._buffer_min_time = time_value
        elif time_value > self._buffer_max_time:
            self._buffer_max_time = time_value
        self._buffer.append(dict(row))
        self._buffer_bytes += nbytes
        self._buffer_shape = shape
        self._buffer_view = None
        self.total_rows_ingested += 1
        if (
            len(self._buffer) >= self._rows_per_block
            or self._buffer_bytes >= self._max_block_bytes
        ):
            self.seal_buffer()

    def _check_row(
        self, row: Mapping[str, ColumnValue], names: tuple, kinds: tuple
    ) -> tuple[_RowShape, int]:
        """The full walk: check every field of ``row`` against the
        buffer's types and record its new columns; returns the row's
        shape and its byte estimate."""
        if TIME_COLUMN not in row:
            raise SchemaError(_NO_TIME)
        time_value = row[TIME_COLUMN]
        if not isinstance(time_value, int) or isinstance(time_value, bool):
            raise SchemaError(_BAD_TIME)
        types = self._buffer_types
        new_columns: dict[str, ColumnType] = {}
        fixed_bytes = 0
        strings: list[str] = []
        vectors: list[str] = []
        for name, value in row.items():
            ctype = _ROW_TYPES.get(type(value)) or infer_column_type(value)
            known = types.get(name)
            if known is not ctype:  # a new column, or a conflict
                if known is not None or type(name) is not str or not name:
                    raise _column_error(name, ctype, known)
                new_columns[name] = ctype
            fixed_bytes += _fixed_bytes(name, ctype)
            if ctype is _STRING:
                strings.append(name)
            elif ctype is _VECTOR:
                vectors.append(name)
        shape = _RowShape(names, kinds, fixed_bytes, tuple(strings), tuple(vectors))
        nbytes = shape.bytes_of(row)  # a vector item without a len raises here
        if new_columns:
            types.update(new_columns)
        return shape, nbytes

    def add_rows(self, rows: Iterable[Mapping[str, ColumnValue]]) -> int:
        """Append many rows; returns the number added."""
        count = 0
        for row in rows:
            self.add_row(row)
            count += 1
        return count

    def add_runs(self, runs: Iterable[ColumnRun]) -> int:
        """Append ``runs``' rows as sealed row blocks, cut where
        :meth:`add_rows` and a last :meth:`seal_buffer` would cut them on
        an empty buffer (:func:`seal_groups`; this buffer is sealed
        first); returns the number added."""
        self.seal_buffer()
        count = 0
        for schema, columns, n_rows, _ in seal_groups(
            runs, self._rows_per_block, self._max_block_bytes
        ):
            self._blocks.append(RowBlock.from_columns(schema, columns, self._clock.now()))
            count += n_rows
        self.total_rows_ingested += count
        return count

    def seal_buffer(self) -> RowBlock | None:
        """Compress the write buffer into a row block; no-op when empty."""
        if not self._buffer:
            return None
        block = RowBlock.from_rows(
            self._buffer, created_at=self._clock.now(), schema=Schema(self._buffer_types)
        )
        self._blocks.append(block)
        self._buffer = []
        self._buffer_bytes = 0
        self._buffer_types = {}
        self._buffer_shape = None
        self._buffer_view = None
        return block

    # ------------------------------------------------------------------
    # Expiry (age and size limits)
    # ------------------------------------------------------------------

    def expire_before(self, cutoff_time: int) -> int:
        """Drop sealed row blocks entirely older than ``cutoff_time``.

        Expiry is block-granular, as in Scuba: a block survives until its
        *maximum* timestamp has aged out.  Returns rows dropped.
        """
        kept: list[RowBlock] = []
        dropped: list[RowBlock] = []
        for block in self._blocks:
            if block.max_time < cutoff_time:
                dropped.append(block)
            else:
                kept.append(block)
        self._blocks = kept
        self._invalidate_cached(dropped)
        dropped_rows = sum(block.row_count for block in dropped)
        self.total_rows_expired += dropped_rows
        return dropped_rows

    def enforce_size_limit(self, max_bytes: int) -> int:
        """Drop oldest row blocks until compressed size fits ``max_bytes``."""
        dropped: list[RowBlock] = []
        while self._blocks and self.sealed_nbytes > max_bytes:
            dropped.append(self._blocks.pop(0))
        self._invalidate_cached(dropped)
        dropped_rows = sum(block.row_count for block in dropped)
        self.total_rows_expired += dropped_rows
        return dropped_rows

    # ------------------------------------------------------------------
    # Introspection / scan
    # ------------------------------------------------------------------

    @property
    def blocks(self) -> list[RowBlock]:
        """The sealed row blocks, oldest first."""
        return list(self._blocks)

    @property
    def rows_per_block(self) -> int:
        """The row-count seal threshold (parallel replay must match it)."""
        return self._rows_per_block

    @property
    def max_block_bytes(self) -> int:
        """The pre-compression byte seal threshold."""
        return self._max_block_bytes

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def row_count(self) -> int:
        """Rows across sealed blocks and the open buffer."""
        return sum(block.row_count for block in self._blocks) + len(self._buffer)

    @property
    def sealed_nbytes(self) -> int:
        return sum(block.nbytes for block in self._blocks)

    @property
    def nbytes(self) -> int:
        """Compressed sealed bytes plus the buffer's rough estimate."""
        return self.sealed_nbytes + self._buffer_bytes

    @property
    def buffered_row_count(self) -> int:
        return len(self._buffer)

    def buffer_block(self) -> BufferBlock | None:
        """The write buffer as a block (None when it is empty), memoized
        until the next add or seal so its columns are built once.  As
        with every mutation here, the caller serializes adds against
        queries (a leaf does, under its data-plane lock)."""
        if self._buffer_view is None and self._buffer:
            self._buffer_view = BufferBlock(
                list(self._buffer),
                Schema(self._buffer_types),
                self._buffer_min_time,
                self._buffer_max_time,
            )
        return self._buffer_view

    def scan(
        self,
        start_time: int | None = None,
        end_time: int | None = None,
    ) -> Iterator[dict[str, ColumnValue]]:
        """Yield rows whose timestamp falls in ``[start_time, end_time)``.

        Sealed blocks outside the range are pruned via their min/max
        timestamps without being decompressed.
        """
        for block in self._blocks:
            if not block.overlaps(start_time, end_time):
                continue
            for row in block.to_rows():
                if _time_in_range(row[TIME_COLUMN], start_time, end_time):
                    yield row
        for row in self._buffer:
            if _time_in_range(row[TIME_COLUMN], start_time, end_time):
                yield dict(row)

    def iter_buffer_rows(self) -> Iterator[dict[str, ColumnValue]]:
        """Yield (copies of) the unsealed write-buffer rows as they were
        added (a column a row omits stays missing): what the row-format
        log stores.  Queries read :meth:`buffer_block` instead.
        """
        for row in self._buffer:
            yield dict(row)

    def to_rows(self) -> list[dict[str, ColumnValue]]:
        """Every row in the table (for equality checks in tests)."""
        rows = [row for block in self._blocks for row in block.to_rows()]
        rows.extend(dict(row) for row in self._buffer)
        return rows

    # ------------------------------------------------------------------
    # Restart engine hooks
    # ------------------------------------------------------------------

    def replace_blocks(self, blocks: list[RowBlock]) -> None:
        """Install recovered row blocks (memory or disk recovery)."""
        self._invalidate_cached(self._blocks)
        self._blocks = list(blocks)

    def install_restored_blocks(self, restored: list[RowBlock]) -> None:
        """Reconcile the lazily-restored prefix with the live block list.

        Unlike :meth:`replace_blocks` (the blocking-restore hook, which
        drops the whole list and invalidates every cached decode), this
        installs the growing restored prefix *in directory order* ahead
        of any blocks sealed from rows added during the restore, and
        leaves cached decodes alone — already-adopted blocks stay
        resident, so their entries are still valid.  Blocks that left
        the table since adoption (expiry, size limits) must be omitted
        from ``restored`` by the caller; they are not resurrected here.
        """
        restored_uids = {block.uid for block in restored}
        tail = [b for b in self._blocks if b.uid not in restored_uids]
        self._blocks = list(restored) + tail

    def take_blocks(self) -> list[RowBlock]:
        """Remove and return all sealed blocks (shutdown copy loop).

        The caller becomes responsible for the blocks; the table is left
        empty so its heap bytes can be freed block-by-block as the copy
        proceeds (paper, Figure 6).  Cached decodes of the taken blocks
        are dropped here — the copy loop is about to release each RBC's
        heap buffer, and decoded arrays must not outlive the data they
        were derived from.
        """
        blocks = self._blocks
        self._blocks = []
        self._invalidate_cached(blocks)
        return blocks

    # ------------------------------------------------------------------
    # Decoded-column cache hooks
    # ------------------------------------------------------------------

    @property
    def cache(self) -> DecodedColumnCache | None:
        """The decoded-column cache sealed-block queries read through."""
        return self._cache

    def set_cache(self, cache: DecodedColumnCache | None) -> None:
        """Attach (or detach) the cache; used by the leaf map's adopt path."""
        self._cache = cache

    def _invalidate_cached(self, blocks: list[RowBlock]) -> None:
        if self._cache is not None and blocks:
            self._cache.invalidate_blocks(block.uid for block in blocks)


def _time_in_range(
    timestamp: ColumnValue, start_time: int | None, end_time: int | None
) -> bool:
    if start_time is not None and timestamp < start_time:
        return False
    if end_time is not None and timestamp >= end_time:
        return False
    return True
