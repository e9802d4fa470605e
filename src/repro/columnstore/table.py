"""Tables: a vector of sealed row blocks plus an open write buffer.

New rows are read into column runs, which the write buffer holds as they
are; once 65,536 rows (or the 1 GB pre-compression cap) accumulate, the
buffer is sealed into a compressed :class:`RowBlock`.  A batch whose
rows are dicts of one shape (the same keys in the same order, each
column one exact type) is read in whole-batch passes into one run; any
other batch, a generator included, is read a row at a time
(:class:`RunBuilder`, the row-log decoder's reader too).  Live ingest and
legacy replay hand their runs to the same open block: one check of what
a block may hold, one byte estimate summed a column at a time, one cut,
one seal.  Tables also delete data "as it expires due to either age or
size limits" (paper, Section 2).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress
from operator import add
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.columnstore.colcache import DecodedColumnCache
from repro.columnstore.rowblock import ROWS_PER_BLOCK, RowBlock, TimeRange
from repro.columnstore.schema import EXACT_TYPES, Schema, checked_column, infer_column_type
from repro.compression.base import MAX_ROWBLOCK_BYTES
from repro.compression.decoded import DecodedColumn
from repro.compression.pipeline import column_arrays
from repro.errors import SchemaError
from repro.types import TIME_COLUMN, ColumnType, ColumnValue
from repro.util.clock import Clock, SystemClock

_STRING, _VECTOR = ColumnType.STRING, ColumnType.STRING_VECTOR
_NUMBERS = (ColumnType.INT64, ColumnType.FLOAT64)


def _column_error(name: object, ctype: ColumnType, known: ColumnType | None) -> SchemaError:
    """Why a column ``name`` of ``ctype`` cannot join a block that has
    it as ``known`` (``None``: a new column)."""
    if known is not None:
        return SchemaError(f"column '{name}' seen as both {known.name} and {ctype.name}")
    return SchemaError(f"column names must be non-empty strings: {name!r}")


def _admit(
    types: Mapping[str, ColumnType], names: Sequence[str], ctypes: Sequence, layout: Iterable[int]
) -> dict[str, ColumnType]:
    """The columns a row adds to a block whose columns are ``types``:
    the one check of what a block may hold.  The row carries
    ``names[j]`` of ``ctypes[j]`` for each ``j`` in ``layout``, in its
    own order.  Raises :class:`SchemaError` — or the error a value had
    instead of a type — for the first field that cannot join, after the
    time column's checks."""
    time = names.index(TIME_COLUMN) if TIME_COLUMN in names else -1
    if time not in layout:
        raise SchemaError(f"row lacks the required '{TIME_COLUMN}' column")
    if ctypes[time] is not ColumnType.INT64:
        raise SchemaError(f"'{TIME_COLUMN}' must be an integer unix timestamp")
    new: dict[str, ColumnType] = {}
    for j in layout:
        name, ctype = names[j], ctypes[j]
        known = types.get(name, new.get(name))
        if known is not ctype:
            if isinstance(ctype, Exception):
                raise ctype
            if known is not None or type(name) is not str or not name:
                raise _column_error(name, ctype, known)
            new[name] = ctype
    return new


class ColumnRun(NamedTuple):
    """Consecutive rows whose columns agree on type: the columns in
    first-seen order, each a value list with the type's default where a
    row lacks the column.  What the write buffer holds, and what legacy
    replay decodes the row log into.

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

    def rows(self, lo: int = 0, hi: int | None = None) -> list[dict[str, ColumnValue]]:
        """The run's rows ``[lo, hi)``, as dicts: each as it was read,
        its columns in its own order and a column it lacks missing."""
        hi = self.n_rows if hi is None else hi
        names, columns = self.names, self.columns
        if not names:
            return [{} for _ in range(lo, hi)]
        if self.layouts is None:
            return [dict(zip(names, values)) for values in zip(*(c[lo:hi] for c in columns))]
        return [{names[j]: columns[j][i] for j in self.layouts[i]} for i in range(lo, hi)]

    def select(self, keep: list[bool]) -> "ColumnRun":
        """The run's rows where ``keep`` is true."""
        layouts = self.layouts and list(compress(self.layouts, keep))
        columns = [list(compress(column, keep)) for column in self.columns]
        return ColumnRun(self.names, self.types, columns, sum(keep), layouts)


class RunBuilder:
    """Rows read into column runs, in order — by the row-log decoder and
    by :meth:`Table.add_rows`: per row its values in its own order and
    where they go in the run (its layout, which each reader caches in
    ``layouts`` by its own key for the row's names and types).  A row
    that types a column otherwise than its run starts the next one.
    """

    def __init__(self) -> None:
        self.runs: list[ColumnRun] = []
        self._begin()

    def _begin(self) -> None:
        self.layouts: dict[Hashable, tuple[int, ...]] = {}
        self._types: dict[str, ColumnType] = {}  # the run's columns, in first-seen order
        self._rows: list[list[ColumnValue]] = []
        self._row_layouts: list[tuple[int, ...]] = []

    def place(
        self, key: Hashable, names: Sequence[str], types: Sequence[ColumnType]
    ) -> tuple[int, ...]:
        """Where a row with these fields puts its values, cached under
        ``key``: its new columns join the run, or the next run begins
        when it types a column otherwise.  A name the row repeats takes
        its first position and its last type, as the row's dict does."""
        row = dict(zip(names, types))
        if any(self._types.get(name, ctype) is not ctype for name, ctype in row.items()):
            self._close()
        self._types.update(row)
        index = {name: j for j, name in enumerate(self._types)}
        layout = self.layouts[key] = tuple(map(index.__getitem__, names))
        return layout

    def add(self, values: list[ColumnValue], layout: tuple[int, ...]) -> None:
        self._rows.append(values)
        self._row_layouts.append(layout)

    def finish(self) -> list[ColumnRun]:
        self._close()
        return self.runs

    def _close(self) -> None:
        rows, layouts, n = self._rows, self._row_layouts, len(self._rows)
        if n:
            names, types = tuple(self._types), tuple(self._types.values())
            if layouts[0] == tuple(range(len(names))) and layouts.count(layouts[0]) == n:
                run = ColumnRun(names, types, [list(column) for column in zip(*rows)], n)
            else:
                columns = [[ctype.default()] * n for ctype in types]
                for i, (layout, values) in enumerate(zip(layouts, rows)):
                    for j, value in zip(layout, values):
                        columns[j][i] = value
                run = ColumnRun(names, types, columns, n, layouts)
            self.runs.append(run)
        self._begin()


def _field_type(name: object, value: ColumnValue) -> ColumnType | Exception:
    """A row field's column type; the error instead, when its value has
    none or its name is not a string (:func:`_admit` raises it)."""
    try:
        ctype = infer_column_type(value)
    except SchemaError as exc:
        return exc
    return ctype if isinstance(name, str) else _column_error(name, ctype, None)


def _one_shape_run(rows: Iterable[Mapping[str, ColumnValue]]) -> ColumnRun | None:
    """``rows`` read in whole-batch passes as one layout-free run, vectors
    copied; ``None``, for the row loop, unless they are a list or tuple
    of dicts that all carry the first one's keys in its order, each key
    a non-empty string, and each column holds one exact type's values
    (:data:`EXACT_TYPES`, or lists of strings)."""
    if type(rows) not in (list, tuple) or not rows or set(map(type, rows)) != {dict}:
        return None
    names = tuple(rows[0])
    if not names or not all(type(name) is str and name for name in names):
        return None
    if not all(map(names.__eq__, map(tuple, rows))):  # stops at the first row that differs
        return None
    columns = list(map(list, zip(*map(dict.values, rows))))
    types = []
    for j, column in enumerate(columns):
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        ctype = EXACT_TYPES.get(kind) or (_VECTOR if kind is list else None)
        if ctype is None:
            return None
        if ctype is _VECTOR:
            try:
                columns[j] = checked_column(ctype, column)
            except TypeError:  # an item that is not a string
                return None
        types.append(ctype)
    return ColumnRun(names, tuple(types), columns, len(rows))


def _batch_runs(
    rows: Iterable[Mapping[str, ColumnValue]],
) -> tuple[list[ColumnRun], Mapping | Exception | None]:
    """``rows`` read into column runs, vectors copied, up to the first
    that cannot be: ``(runs, refused)``, ``refused`` that row (a value
    without a column type, a name not a string, a vector item not one),
    what reading it raised, or ``None``.  A one-shape batch is read in
    whole-batch passes (:func:`_one_shape_run`); anything else, one row
    at a time."""
    run = _one_shape_run(rows)
    if run is not None:
        return [run], None
    builder = RunBuilder()
    refused: Mapping | Exception | None = None
    try:
        for row in rows:
            names, values = tuple(row), list(row.values())
            key = (names, tuple(map(type, values)))
            layout = builder.layouts.get(key)
            if layout is None:
                types = list(map(_field_type, names, values))
                if any(isinstance(ctype, Exception) for ctype in types):
                    refused = row
                    break
                layout = builder.place(key, names, types)
            builder.add(values, layout)
    except Exception as exc:  # the rows before it are still added
        refused = exc
    runs = builder.finish()
    for at, run in enumerate(runs):
        try:
            for j, ctype in enumerate(run.types):
                if ctype is _VECTOR:
                    run.columns[j] = checked_column(ctype, run.columns[j])
        except TypeError:  # which row has a vector item that is not a string?
            read = run.rows()  # the first that fails read alone (one row: that row)
            bad = next(i for i, r in enumerate(read) if len(read) == 1 or _batch_runs([r])[1])
            runs[at:] = _batch_runs(read[:bad])[0]
            return runs, read[bad]
    return runs, refused


def _refuse(types: Mapping[str, ColumnType], refused: Mapping | Exception) -> None:
    """Raise why a block of ``types`` refuses a row :func:`_batch_runs`
    did: the first field :func:`_admit` does not let in, else what the
    row's byte estimate (a vector item without a ``len``) or its check
    raises."""
    if isinstance(refused, Exception):
        raise refused
    names, values = tuple(refused), list(refused.values())
    ctypes = tuple(map(_field_type, names, values))
    _admit(types, names, ctypes, range(len(names)))
    _run_bytes(ColumnRun(names, ctypes, [[value] for value in values], 1), 0, 1)
    for ctype, value in zip(ctypes, values):
        checked_column(ctype, [value])


def _fixed_bytes(run: ColumnRun, lo: int, hi: int) -> list[int]:
    """Each of rows ``[lo, hi)``'s size less its values' lengths: per
    column it carries, the name's length and 8, and 8 more for a number."""
    per_column = [len(n) + (16 if t in _NUMBERS else 8) for n, t in zip(run.names, run.types)]
    if run.layouts is None:
        return [sum(per_column)] * (hi - lo)
    layouts = run.layouts[lo:hi]
    fixed = {ls: sum(map(per_column.__getitem__, set(ls))) for ls in set(layouts)}
    return list(map(fixed.__getitem__, layouts))


def _row_bytes(run: ColumnRun, lo: int, hi: int) -> list[int]:
    """Each of rows ``[lo, hi)``'s rough pre-compression size, for the 1 GB
    block cap: :func:`_fixed_bytes`, and per column the row carries, its
    value's length — a string's, or a vector's items' lengths and 4 an
    item.  A default a row holds for a column it lacks adds nothing."""
    sizes = _fixed_bytes(run, lo, hi)
    for ctype, column in zip(run.types, run.columns):
        if ctype is _STRING:
            sizes = list(map(add, sizes, map(len, column[lo:hi])))
        elif ctype is _VECTOR:
            sizes = [size + sum(map(len, v)) + 4 * len(v) for size, v in zip(sizes, column[lo:hi])]
    return sizes


def _run_bytes(run: ColumnRun, lo: int, hi: int) -> int:
    """``sum(_row_bytes(run, lo, hi))``, summed a column at a time."""
    total = sum(_fixed_bytes(run, lo, hi))
    for ctype, column in zip(run.types, run.columns):
        if ctype is _STRING:
            total += sum(map(len, column[lo:hi]))
        elif ctype is _VECTOR:
            values = column[lo:hi]
            total += sum(map(len, chain.from_iterable(values))) + 4 * sum(map(len, values))
    return total


#: A block's schema, columns, row count and estimated bytes: ready to seal.
Group = tuple[Schema, dict[str, list[ColumnValue]], int, int]
_Part = tuple[ColumnRun, int, int]  # a run's rows [lo, hi)


class _OpenBlock:
    """The rows of the next row block, before it seals: slices of column
    runs, the block's column types in first-seen order (its schema), and
    its row count and estimated bytes."""

    def __init__(self, rows_per_block: int, max_block_bytes: int) -> None:
        self.rows_per_block, self.max_block_bytes = rows_per_block, max_block_bytes
        self.types: dict[str, ColumnType] = {}
        #: The last sealed block's schema: the next block of the same
        #: shape shares it, and with it its wire bytes, built once.
        self.schema: Schema | None = None
        self.parts: list[_Part] = []
        self.n_rows = self.n_bytes = 0

    def add(self, run: ColumnRun) -> Iterator[Group]:
        """Append ``run``'s rows; yield each block they fill (at the row
        that brings it to ``rows_per_block`` rows or ``max_block_bytes``
        estimated bytes) and go on in the next.  A slice's bytes are
        summed a column at a time; each row's size is built only when the
        slice reaches the byte cap, to find the row that does.  Rows are
        checked a layout at a time, where one first occurs in the block (a
        layout that passed there passes again); the first row that cannot
        join raises (:func:`_admit`), the rows before it kept."""
        lo = 0
        while lo < run.n_rows:
            hi = min(run.n_rows, lo + self.rows_per_block - self.n_rows)
            nbytes, room = _run_bytes(run, lo, hi), self.max_block_bytes - self.n_bytes
            if nbytes >= room:
                ends = list(accumulate(_row_bytes(run, lo, hi)))  # ends[i]: rows [lo, lo + i]
                cut = bisect_left(ends, room)
                hi, nbytes = lo + cut + 1, ends[cut]
            layouts = dict.fromkeys(run.layouts[lo:hi]) if run.layouts else [range(len(run.names))]
            try:
                for layout in layouts:
                    self.types.update(_admit(self.types, run.names, run.types, layout))
            except SchemaError:
                hi = run.layouts.index(layout, lo) if run.layouts else lo
                nbytes = _run_bytes(run, lo, hi)
                raise
            finally:
                if hi > lo:
                    self.parts.append((run, lo, hi))
                    self.n_rows += hi - lo
                    self.n_bytes += nbytes
            lo = hi
            if self.n_rows >= self.rows_per_block or self.n_bytes >= self.max_block_bytes:
                yield self.take()

    def take(self) -> Group:
        """The block as it stands, and an empty one opened."""
        columns = {name: _block_column(self.parts, name, t) for name, t in self.types.items()}
        if self.schema is None or list(self.schema.items()) != list(self.types.items()):
            self.schema = Schema(self.types)
        group = self.schema, columns, self.n_rows, self.n_bytes
        self.types, self.parts, self.n_rows, self.n_bytes = {}, [], 0, 0
        return group


def _block_column(parts: list[_Part], name: str, ctype: ColumnType) -> list[ColumnValue]:
    """One column of a block of ``parts`` (a run holds the default where a
    row lacks it; a run that types it otherwise has no row that has it)."""
    values: list[ColumnValue] = []
    for run, lo, hi in parts:
        j = run.names.index(name) if name in run.names else -1
        if j >= 0 and run.types[j] is ctype:
            values += run.columns[j][lo:hi]
        else:
            values += [ctype.default()] * (hi - lo)
    return values


def seal_groups(
    runs: Iterable[ColumnRun], rows_per_block: int, max_block_bytes: int
) -> Iterator[Group]:
    """Cut ``runs`` into the row blocks :meth:`Table.add_runs` seals from
    them (:meth:`_OpenBlock.add`, the last block as it stands), with the
    same errors from the same row."""
    block = _OpenBlock(rows_per_block, max_block_bytes)
    for run in runs:
        yield from block.add(run)
    if block.n_rows:
        yield block.take()


class BufferBlock(TimeRange):
    """The write buffer as one more block: its rows read as they will
    seal — every schema column present, a value a row omits the type's
    default — and in array form for the vectorized executor.

    A snapshot: an add makes a new one (:meth:`Table.buffer_block`).
    Each column is built on first use, once; no cache holds it.
    """

    def __init__(self, parts: list[_Part], schema: Schema) -> None:
        self._parts = parts
        self.schema = schema
        times = _block_column(parts, TIME_COLUMN, ColumnType.INT64)
        self.row_count, self.min_time, self.max_time = len(times), min(times), max(times)
        self._columns: dict[str, DecodedColumn] = {}

    def decoded_column(self, name: str) -> DecodedColumn:
        """One column in array form, as its sealed block would decode it."""
        column = self._columns.get(name)
        if column is None:
            ctype = self.schema.type_of(name)
            values = _block_column(self._parts, name, ctype)
            column = self._columns[name] = column_arrays(ctype, values)
        return column

    def to_rows(self) -> list[dict[str, ColumnValue]]:
        """Every row as its sealed block would materialize it."""
        columns = [_block_column(self._parts, name, ctype) for name, ctype in self.schema.items()]
        return [dict(zip(self.schema.names, values)) for values in zip(*columns)]


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
        self._cache = cache
        self._blocks: list[RowBlock] = []
        #: The write buffer: the open block, and its memoized block view.
        self._open = _OpenBlock(rows_per_block, max_block_bytes)
        self._buffer_view: BufferBlock | None = None
        #: Rows ever ingested / ever expired — monotone counters the
        #: incremental disk backup uses as sync watermarks.
        self.total_rows_ingested = 0
        self.total_rows_expired = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def add_rows(self, rows: Iterable[Mapping[str, ColumnValue]]) -> int:
        """Append rows, read into column runs; seals a row block each
        time a cap is reached.  Returns the number added.

        A row a block could not hold — a value without a column type, a
        column it types otherwise than the open block, no integer
        ``time``, a vector item that is not a string — raises
        (:class:`SchemaError`, or ``TypeError`` for the vector item), and
        neither it nor any row after it is added; the rows before it are.
        """
        runs, refused = _batch_runs(rows)
        count = self._add(runs)
        if refused is not None:
            _refuse(self._open.types, refused)
        return count

    def add_runs(self, runs: Iterable[ColumnRun]) -> int:
        """Append ``runs``' rows as sealed row blocks, cut as :meth:`add_rows`
        cuts them on an empty buffer (this buffer seals first, the last
        block after); returns the number added."""
        self.seal_buffer()
        count = self._add(runs)
        self.seal_buffer()
        return count

    def _add(self, runs: Iterable[ColumnRun]) -> int:
        """Append ``runs`` to the open block, sealing each block they
        fill; counts the rows added as ingested, an error's too."""
        before, sealed = self._open.n_rows, 0
        try:
            for run in runs:
                for group in self._open.add(run):
                    sealed += self._seal(group).row_count
        finally:
            added = sealed + self._open.n_rows - before
            self.total_rows_ingested += added
            self._buffer_view = None
        return added

    def seal_buffer(self) -> RowBlock | None:
        """Compress the write buffer into a row block; no-op when empty."""
        return self._seal(self._open.take()) if self._open.n_rows else None

    def _seal(self, group: Group) -> RowBlock:
        block = RowBlock.from_columns(*group[:2], self._clock.now())
        self._blocks.append(block)
        self._buffer_view = None
        return block

    # ------------------------------------------------------------------
    # Expiry (age and size limits)
    # ------------------------------------------------------------------

    def expire(self, cutoff_time: int | None = None, max_bytes: int | None = None) -> int:
        """Drop the oldest sealed row blocks while each is aged out (its
        *maximum* timestamp below ``cutoff_time``, block-granular as in
        Scuba) or the sealed blocks exceed ``max_bytes``; returns rows
        dropped.

        The walk stops at the first block that survives, so a late block
        waits for the blocks ingested before it: expiry only ever drops
        a prefix of ingest order, and ``total_rows_expired`` alone says
        which rows are gone.
        """
        blocks, size, n = self._blocks, self.sealed_nbytes, 0
        while n < len(blocks) and (
            (cutoff_time is not None and blocks[n].max_time < cutoff_time)
            or (max_bytes is not None and size > max_bytes)
        ):
            size -= blocks[n].nbytes
            n += 1
        dropped, self._blocks = blocks[:n], blocks[n:]
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
        return self._open.rows_per_block

    @property
    def max_block_bytes(self) -> int:
        """The pre-compression byte seal threshold."""
        return self._open.max_block_bytes

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def row_count(self) -> int:
        """Rows across sealed blocks and the open buffer."""
        return sum(block.row_count for block in self._blocks) + self._open.n_rows

    @property
    def sealed_nbytes(self) -> int:
        return sum(block.nbytes for block in self._blocks)

    @property
    def nbytes(self) -> int:
        """Compressed sealed bytes plus the buffer's rough estimate."""
        return self.sealed_nbytes + self._open.n_bytes

    @property
    def buffered_row_count(self) -> int:
        return self._open.n_rows

    def buffer_block(self) -> BufferBlock | None:
        """The write buffer as a block (None when it is empty), memoized
        until the next add or seal so its columns are built once.  As
        with every mutation here, the caller serializes adds against
        queries (a leaf does, under its data-plane lock)."""
        if self._buffer_view is None and self._open.n_rows:
            self._buffer_view = BufferBlock(list(self._open.parts), Schema(self._open.types))
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
        for row in self.iter_buffer_rows():
            if _time_in_range(row[TIME_COLUMN], start_time, end_time):
                yield row

    def iter_buffer_rows(self) -> Iterator[dict[str, ColumnValue]]:
        """Yield the unsealed rows as they were added (their columns in
        their own order, a column a row omits missing): what the row-format
        log stores.  Queries read :meth:`buffer_block` instead."""
        for run, lo, hi in self._open.parts:
            yield from run.rows(lo, hi)

    def to_rows(self) -> list[dict[str, ColumnValue]]:
        """Every row in the table (for equality checks in tests)."""
        rows = [row for block in self._blocks for row in block.to_rows()]
        rows.extend(self.iter_buffer_rows())
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
        resident, so their entries are still valid.
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
