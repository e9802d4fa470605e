"""Query execution on one leaf.

A leaf scans the target table's row blocks — skipping any whose min/max
timestamps fall outside the query's time range — applies filters, groups,
and produces mergeable partial aggregate states.

Two executors share that contract:

- :func:`execute_on_leaf` (the default) is **vectorized**, a *run* at a
  time: the surviving blocks are gathered into maximal runs of
  consecutive blocks whose referenced columns (time ∪ filters ∪
  group_by ∪ aggregation columns) have the same presence and type, and
  a run is fetched, masked and reduced as one.  Each column it needs
  comes in one decoded-column cache round for the run's blocks that
  still matter; one time mask covers the blocks that straddle a bound (a
  block wholly inside the range has no mask and never decodes its time
  column); each filter runs over the blocks some row of which survives;
  the kernels of ``repro.query.kernels`` run once per run.  No row dicts
  are ever materialized.  The unsealed write buffer is one more block
  (``Table.buffer_block``, read as it will seal), run last and alone.
  How blocks fall into runs never shows in an answer: each block's sums
  still accumulate from zero in row order and fold in block order — so
  sealing the buffer moves no bit.
- :func:`execute_on_leaf_rows` is the original row-at-a-time loop, kept
  as the differential-testing oracle: for any query the two must
  produce equal partials, scan counts, and errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.columnstore.colcache import DecodedColumnCache
from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import BufferBlock
from repro.compression.decoded import DecodedColumn, DecodedKind
from repro.errors import QueryError
from repro.query import kernels
from repro.query.aggregate import AggState, LeafPartial, canonical
from repro.query.query import Query
from repro.types import TIME_COLUMN, ColumnValue


#: No run exceeds the paper's row-block limit (§2.1), so the arrays a
#: run concatenates are what one maximal block would need — a bounded
#: transient that no MemoryTracker region is charged for.
MAX_RUN_ROWS = 65_536


@dataclass
class LeafExecution:
    """A leaf's partial result plus scan statistics."""

    partial: LeafPartial
    rows_scanned: int = 0
    rows_matched: int = 0
    blocks_pruned: int = 0


def execute_on_leaf(
    leafmap: LeafMap, query: Query, cache: DecodedColumnCache | None = None
) -> LeafExecution:
    """Run ``query`` against one leaf's data.

    A leaf that does not hold the table contributes an empty partial —
    tables are spread over many leaves and any given leaf may have none
    of a small table's rows.

    ``cache`` overrides the table's attached decoded-column cache.
    """
    execution = LeafExecution(partial={})
    _fault_in_for_query(leafmap, query.table, query.start_time, query.end_time)
    if query.table not in leafmap:
        return execution
    table = leafmap.get_table(query.table)
    cache = table.cache if cache is None else cache
    unpruned = [b for b in table.blocks if b.overlaps(query.start_time, query.end_time)]
    execution.blocks_pruned = len(table.blocks) - len(unpruned)
    for run in _runs(unpruned, _needed_columns(query)):
        _execute_run(execution, query, run, cache)
    # The buffer runs last and alone, so its sums fold onto the carried
    # totals where its block's will once sealed.  It is never counted as
    # pruned, and never cached: its view memoizes its columns itself.
    buffer = table.buffer_block()
    if buffer is not None and buffer.overlaps(query.start_time, query.end_time):
        _execute_run(execution, query, [buffer], None)
    return execution


def execute_on_leaf_rows(leafmap: LeafMap, query: Query) -> LeafExecution:
    """Row-at-a-time reference executor (the differential-test oracle).

    Walks the blocks exactly once, folding pruning statistics into the
    same pass as the scan.
    """
    execution = LeafExecution(partial={})
    _fault_in_for_query(leafmap, query.table, query.start_time, query.end_time)
    if query.table not in leafmap:
        return execution
    table = leafmap.get_table(query.table)
    buffer = table.buffer_block()
    for block in [*table.blocks, *([buffer] if buffer else [])]:
        if not block.overlaps(query.start_time, query.end_time):
            execution.blocks_pruned += int(block is not buffer)  # a buffer never counts
            continue
        for row in block.to_rows():
            if _in_range(row[TIME_COLUMN], query.start_time, query.end_time):
                _fold_row(execution, query, row)
    return execution


def rows_in_time_range(
    leafmap: LeafMap, table: str, start: int | None, end: int | None
) -> Iterator[dict[str, ColumnValue]]:
    """Raw row access with pruning (used by tests and examples).

    Always a generator: a leaf without the table yields nothing, rather
    than handing back a bare ``iter(())`` whose concrete type differs
    from every other call's.
    """
    _fault_in_for_query(leafmap, table, start, end)
    if table not in leafmap:
        return
    yield from leafmap.get_table(table).scan(start, end)


def _fault_in_for_query(
    leafmap: LeafMap, table: str, start: int | None, end: int | None
) -> None:
    """Serve-while-restoring hook: pull in the blocks this query touches.

    While a lazy restore is pending, ``table.blocks`` holds only the
    already-faulted prefix; the query's time range decides which pending
    blocks must be decoded from shared memory before the scan below can
    be complete.  A no-op on a fully-resident leaf — the common case is
    one attribute load and a None check.
    """
    restorer = leafmap.restorer
    if restorer is not None:
        restorer.fault_in_query(table, start, end)


# ----------------------------------------------------------------------
# Vectorized execution, a run of blocks at a time
# ----------------------------------------------------------------------


def _needed_columns(query: Query) -> list[str]:
    """The columns the query actually references — the projection set."""
    aggregated = (agg.column for agg in query.aggregations if agg.func != "count")
    filtered = (filt.column for filt in query.filters)
    return sorted({TIME_COLUMN, *filtered, *query.group_by, *aggregated})


def _runs(blocks: list[RowBlock], needed: list[str]) -> Iterator[list[RowBlock]]:
    """Maximal runs of consecutive blocks that hold every needed column
    with the same presence and type, of at most ``MAX_RUN_ROWS`` rows
    (a block is always a run by itself, whatever its size)."""
    run: list[RowBlock] = []
    run_types, run_rows = None, 0
    for block in blocks:
        schema = block.schema
        types = [schema.type_of(name) if name in schema else None for name in needed]
        if run and (types != run_types or run_rows + block.row_count > MAX_RUN_ROWS):
            yield run
            run, run_rows = [], 0
        run.append(block)
        run_types, run_rows = types, run_rows + block.row_count
    if run:
        yield run


def _execute_run(
    execution: LeafExecution,
    query: Query,
    blocks: list[RowBlock] | list[BufferBlock],
    cache: DecodedColumnCache | None,
) -> None:
    def get_many(picked: list, name: str) -> list[DecodedColumn]:
        if cache is None:
            return [block.decoded_column(name) for block in picked]
        return cache.get_many(picked, name)

    fetched: dict[tuple[str, int], DecodedColumn] = {}

    def fetch(name: str, indices: list[int]) -> list[DecodedColumn | None]:
        """Column ``name`` of the run's blocks ``indices``, None where the
        schema lacks it (alike for a whole run): one cache round for the
        blocks not fetched before, so no (block, column) is looked up twice."""
        todo = [i for i in indices if (name, i) not in fetched]
        if todo and name in blocks[0].schema:
            got = get_many([blocks[i] for i in todo], name)
            fetched.update(((name, i), column) for i, column in zip(todo, got))
        return [fetched.get((name, i)) for i in indices]

    # Time: a block's surviving rows are a mask, or None for every row.  A
    # block inside the range needs neither its time column nor a mask;
    # the straddling ones share one time_mask over their joined times.
    start, end = query.start_time, query.end_time
    masks: list[np.ndarray | None] = [None] * len(blocks)
    straddling = [i for i, block in enumerate(blocks) if not block.within(start, end)]
    if straddling:
        times = [column.values for column in fetch(TIME_COLUMN, straddling)]
        joined = kernels.time_mask(np.concatenate(times), start, end)
        for i, mask in zip(straddling, np.split(joined, np.cumsum([t.size for t in times[:-1]]))):
            masks[i] = mask
        execution.rows_scanned += int(np.count_nonzero(joined))
    execution.rows_scanned += sum(b.row_count for b, m in zip(blocks, masks) if m is None)
    alive = [i for i, mask in enumerate(masks) if mask is None or mask.any()]
    # Filters, in query order, over the blocks some row of which survives
    # (string verdicts per dictionary).  As in the row path, a filter no
    # row reaches is never evaluated, so cannot raise; filter errors are
    # type-level, alike for every block of a run, so evaluating a block at
    # a time raises what the row path raises first.
    for filt in query.filters:
        for i, column in zip(alive, fetch(filt.column, alive)):
            verdict = kernels.filter_mask(filt, column, blocks[i].row_count)
            masks[i] = verdict if masks[i] is None else masks[i] & verdict
        alive = [i for i in alive if masks[i].any()]
    if not alive:
        return
    # Group-by and aggregation columns, for the live blocks only.
    for name in (*query.group_by, *(a.column for a in query.aggregations if a.func != "count")):
        fetch(name, alive)
    # A block every row of which survives is read in place, unindexed.
    sizes = [blocks[i].row_count if masks[i] is None else np.count_nonzero(masks[i]) for i in alive]
    sels = [
        kernels.EVERY_ROW if size == blocks[i].row_count else np.flatnonzero(masks[i])
        for i, size in zip(alive, sizes)
    ]
    matched = int(sum(sizes))
    execution.rows_matched += matched

    def gather(name: str, dtype: type | None = None) -> np.ndarray:
        """A numeric column's selected values, run-wide."""
        parts = [column.values[sel] for column, sel in zip(fetch(name, alive), sels)]
        return np.concatenate(parts, dtype=dtype)

    factors = []
    if query.bucket_seconds is not None:
        selected = gather(TIME_COLUMN)
        factors.append(kernels.factorize_values(selected - selected % query.bucket_seconds))
    for name in query.group_by:
        factors.append(kernels.factorize_column(fetch(name, alive), sels, matched))
    gids, keys = kernels.combine_groups(factors, matched)
    run_states = [_states_for(execution, query, key) for key in keys]
    group_sizes = np.bincount(gids, minlength=len(keys))
    counts = group_sizes.tolist()
    valued: dict[str, list[int]] = {}  # numeric column -> the aggregations that reduce it
    for index, agg in enumerate(query.aggregations):
        if agg.func == "count":
            for states, count in zip(run_states, counts):
                states[index].count += count
            continue
        first = fetch(agg.column, alive)[0]
        if first is None:
            # Missing column: the row path updates with None, a no-op —
            # the group still exists, its state stays at count 0.
            continue
        if first.kind is not DecodedKind.NUMERIC:
            typename = "str" if first.kind is DecodedKind.DICT else "list"
            raise QueryError(f"aggregation '{agg.func}' requires numeric values, got {typename}")
        valued.setdefault(agg.column, []).append(index)
    if not valued:
        return  # a query that only counts needs no sort
    # One reduction per column serves all its aggregations: their totals
    # took the same values in the same order, so are equal.
    block_of = np.repeat(np.arange(len(alive)), sizes)
    columns = [
        (gather(name, np.float64), np.array([states[indices[0]].total for states in run_states]))
        for name, indices in valued.items()
    ]
    starts, reduced = kernels.grouped_reduce(gids, group_sizes, block_of, columns)
    for indices, (sums, mins, maxs, ordered) in zip(valued.values(), reduced):
        per_group = list(zip(counts, starts.tolist(), sums.tolist(), mins.tolist(), maxs.tolist()))
        for index in indices:
            # A percentile keeps its group's slice of the sorted values; any
            # other state gets none (an empty view would pin the array).
            sampled = query.aggregations[index].func.startswith("p")
            for states, (count, first_row, total, low, high) in zip(run_states, per_group):
                states[index].total = total
                chunks = (ordered[first_row : first_row + count],) if sampled else ()
                states[index].absorb(count, low, high, chunks)


# ----------------------------------------------------------------------
# Row-path fold (the oracle)
# ----------------------------------------------------------------------


def _fold_row(execution: LeafExecution, query: Query, row: dict[str, ColumnValue]) -> None:
    execution.rows_scanned += 1
    if any(not f.matches(row) for f in query.filters):
        return
    execution.rows_matched += 1
    group = tuple(canonical(row.get(column)) for column in query.group_by)
    if query.bucket_seconds is not None:
        timestamp = row[TIME_COLUMN]
        group = (timestamp - timestamp % query.bucket_seconds,) + group
    for agg, state in zip(query.aggregations, _states_for(execution, query, group)):
        state.update(None if agg.func == "count" else row.get(agg.column))


def _states_for(execution: LeafExecution, query: Query, key: tuple) -> list[AggState]:
    states = execution.partial.get(key)
    if states is None:
        states = execution.partial[key] = [AggState(agg.func) for agg in query.aggregations]
    return states


def _in_range(timestamp: ColumnValue, start: int | None, end: int | None) -> bool:
    return (start is None or timestamp >= start) and (end is None or timestamp < end)


__all__ = [
    "LeafExecution",
    "execute_on_leaf",
    "execute_on_leaf_rows",
    "rows_in_time_range",
]
