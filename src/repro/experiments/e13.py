"""E13 — the motivating latency gap: queries vs recovery.

Paper (§1): Scuba queries "typically run in under a second over GBs of
data", which makes 2.5-3 hour recoveries "about 4 orders of magnitude
longer than query response time".  We measure aggregation latency on a
populated leaf — through the vectorized executor and its decoded-column
cache, cold and warm — compare it against the original row-at-a-time
loop (the before/after of the vectorized rewrite), and relate both to
the simulated recovery time.

The speedup floor is the vectorized executor's acceptance gate: grouped
aggregation over the ``service_requests`` leaf must be at least 20x
faster vectorized than row-at-a-time (5x before the executor ran its
kernels once per run of blocks instead of once per block) — and give the
same finalized answer, merged and finalized as an aggregator would.

A leaf whose rows all sit in its write buffer (one block's worth) checks
that the newest rows take the vectorized path too: the buffer is read
in array form, ``BUFFER_SPEEDUP_FLOOR`` faster than row-at-a-time.

A leaf cut into the ledger's 512-row blocks, where ``host`` is
near-unique per block and stored raw (varint-length-prefixed values,
no dictionary), checks that a group-by on a raw string column gives the
row path's answer; its cold latency goes in the payload.

Another leaf, cut into ``SCAN_BLOCKS`` blocks, checks that the cache
survives the scans a dashboard mixes with its refreshes: with the cache
at a quarter of the grouped query's working set, a full-range grouped
query and a newest-block window query run in a loop, and the window
query must stay warm while the loop keeps a fixed share of the scan.
"""

from __future__ import annotations

import math

from repro.columnstore.colcache import DecodedColumnCache
from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rbc import RowBlockColumn
from repro.compression import CompressionFlags
from repro.experiments import Gate, build_payload, ratio, timed
from repro.query.aggregate import merge_leaf_results
from repro.query.execute import LeafExecution, execute_on_leaf, execute_on_leaf_rows
from repro.query.query import Aggregation, Filter, Query
from repro.sim import paper_profile
from repro.types import TIME_COLUMN
from repro.util.clock import ManualClock
from repro.workloads import service_requests

ROWS = 50_000
#: At the default size; a smaller leaf is still cut into a few blocks so
#: time pruning has something to prune.
ROWS_PER_BLOCK = 8192
MIN_BLOCKS = 3
CACHE_MB = 64
REPEATS = 3
#: Acceptance floor: vectorized grouped aggregation vs the row path.
SPEEDUP_FLOOR = 20.0
#: ... and over a write buffer of one block's rows, unsealed.
BUFFER_SPEEDUP_FLOOR = 5.0
LATENCY_CEILING_S = 2.0
FIRST_SECOND = 1_390_000_000

GROUPED = "grouped-aggregation"
FILTERED = "filtered-count"
BUCKETS = "time-window-buckets"

#: The raw-string leaf's block size: the ledger's, at which ``host``
#: (~4,000 distinct values) is near-unique per block and stored raw.
RAW_ROWS_PER_BLOCK = 512

#: The scan-resistance leaf: its block count, its cache as a fraction
#: of the grouped query's working set, the warm loops after a cold one,
#: and the loop's hit-rate floor (~ the cache fraction for a policy that
#: keeps a fixed subset of a cyclic scan; an LRU keeps none of it).
SCAN_BLOCKS = 16
SCAN_CACHE_FRACTION = 4
SCAN_LOOPS = 4
SCAN_HIT_FLOOR = 0.20

SAME_ANSWERS = "vectorized and row executors: same finalized grouped answers (count/avg/p99)"
BUFFERED = "vectorized vs row-at-a-time on a one-block write buffer"
NO_TIME_DECODE = "full-range grouped query decodes no time column"
SCAN_RESISTANT = "scan-resistant cache: newest-block query stays warm between full scans"
RAW_STRING = "group-by on a raw string column (host): same answers as the row path"
GATES = (
    "vectorized vs row-at-a-time grouped aggregation",
    SAME_ANSWERS,
    BUFFERED,
    RAW_STRING,
    NO_TIME_DECODE,
    "grouped aggregation latency",
    "blocks pruned by time predicate",
    "decoded-column cache hit rate (warm dashboard)",
    SCAN_RESISTANT,
    "machine recovery / query latency",
)


def queries(rows: int) -> dict[str, Query]:
    return {
        GROUPED: Query(
            "service_requests",
            aggregations=(
                Aggregation("count"),
                Aggregation("avg", "latency_ms"),
                Aggregation("p99", "latency_ms"),
            ),
            group_by=("endpoint",),
        ),
        FILTERED: Query(
            "service_requests",
            aggregations=(Aggregation("count"),),
            filters=(
                Filter("status", "ge", 500),
                Filter("tags", "contains", "prod"),
            ),
        ),
        BUCKETS: Query(
            "service_requests",
            aggregations=(Aggregation("count"), Aggregation("max", "latency_ms")),
            start_time=FIRST_SECOND,
            end_time=FIRST_SECOND + rows // 8,
            bucket_seconds=60,
            group_by=("datacenter",),
        ),
    }


def finalized(query: Query, execution: LeafExecution) -> list[tuple]:
    """``(group, count, avg, p99)`` per group of a grouped answer."""
    rows = merge_leaf_results(query, [execution.partial], 1).rows
    return [(row.group, *row.values.values()) for row in rows]


def buffer_query(rows: int, grouped: Query, repeats: int) -> dict:
    """``grouped`` over a leaf whose rows (at most one block's worth) are
    all still in its write buffer: row-at-a-time, then vectorized cold
    (the buffer's view builds its columns) and warm."""
    buffered = min(rows, ROWS_PER_BLOCK)
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=buffered + 1)
    leafmap.get_or_create("service_requests").add_rows(service_requests(buffered))
    row_s, slow = timed(lambda: execute_on_leaf_rows(leafmap, grouped), repeats)
    cold_s, _ = timed(lambda: execute_on_leaf(leafmap, grouped))
    warm_s, fast = timed(lambda: execute_on_leaf(leafmap, grouped), repeats)
    return {
        "rows": buffered,
        "row_ms": row_s * 1000,
        "vector_cold_ms": cold_s * 1000,
        "vector_warm_ms": warm_s * 1000,
        "speedup": ratio(row_s, warm_s),
        # One block, summed from zero in row order either way: exact.
        "same_answers": finalized(grouped, fast) == finalized(grouped, slow)
        and fast.rows_scanned == buffered,
    }


def raw_string_query(rows: int, repeats: int) -> dict:
    """A count and max per ``host`` over 512-row blocks, which store
    ``host`` raw: row-at-a-time, then vectorized cold and warm."""
    cache = DecodedColumnCache(CACHE_MB << 20)
    leafmap = LeafMap(
        clock=ManualClock(0.0), rows_per_block=RAW_ROWS_PER_BLOCK, column_cache=cache
    )
    table = leafmap.get_or_create("service_requests")
    table.add_rows(service_requests(rows))
    leafmap.seal_all()
    query = Query(
        "service_requests",
        aggregations=(Aggregation("count"), Aggregation("max", "latency_ms")),
        group_by=("host",),
    )
    row_s, slow = timed(lambda: execute_on_leaf_rows(leafmap, query), repeats)
    cold_s, _ = timed(lambda: execute_on_leaf(leafmap, query))
    warm_s, fast = timed(lambda: execute_on_leaf(leafmap, query), repeats)
    answer = finalized(query, fast)
    return {
        "rows": rows,
        "blocks": len(table.blocks),
        "raw_blocks": sum(
            CompressionFlags.DICT not in RowBlockColumn(block.rbc_buffer("host")).flags
            for block in table.blocks
        ),
        "groups": len(answer),
        "row_ms": row_s * 1000,
        "vector_cold_ms": cold_s * 1000,
        "vector_warm_ms": warm_s * 1000,
        # Counts and maxima: exact on both paths.
        "same_answers": answer == finalized(query, slow) and fast.rows_scanned == rows,
    }


def scan_loop(rows: int, grouped: Query) -> dict:
    """Loop ``grouped`` (full range) and a window on its newest block over
    a leaf whose cache is a quarter of ``grouped``'s working set."""
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=max(1, rows // SCAN_BLOCKS))
    table = leafmap.get_or_create("service_requests")
    table.add_rows(service_requests(rows))
    leafmap.seal_all()
    sizing = DecodedColumnCache(1 << 40)
    execute_on_leaf(leafmap, grouped, cache=sizing)
    cache = DecodedColumnCache(sizing.nbytes // SCAN_CACHE_FRACTION)
    window = Query(
        grouped.table,
        aggregations=grouped.aggregations,
        group_by=grouped.group_by,
        start_time=table.blocks[-1].max_time,
    )

    def loop() -> int:
        """One grouped scan, then the window query; the window's misses."""
        execute_on_leaf(leafmap, grouped, cache=cache)
        before = cache.stats().misses
        execute_on_leaf(leafmap, window, cache=cache)
        return cache.stats().misses - before

    loop()  # cold
    start = cache.stats()
    window_misses = sum(loop() for _ in range(SCAN_LOOPS))
    end = cache.stats()
    lookups = end.hits + end.misses - start.hits - start.misses
    return {
        "blocks": len(table.blocks),
        "working_set_bytes": sizing.nbytes,
        "capacity_bytes": cache.capacity_bytes,
        "loops": SCAN_LOOPS,
        "window_misses": window_misses,
        "hit_rate": (end.hits - start.hits) / lookups,
        "evictions": end.evictions - start.evictions,
        "refused": end.refused - start.refused,
    }


def run(rows: int = ROWS, cache_mb: int = CACHE_MB, repeats: int = REPEATS) -> dict:
    cache = DecodedColumnCache(cache_mb << 20)
    leafmap = LeafMap(
        clock=ManualClock(0.0),
        rows_per_block=min(ROWS_PER_BLOCK, max(1, rows // MIN_BLOCKS)),
        column_cache=cache,
    )
    leafmap.get_or_create("service_requests").add_rows(service_requests(rows))
    leafmap.seal_all()
    data_bytes = sum(t.sealed_nbytes for t in leafmap)

    results = {}
    executions = {}
    row_executions = {}
    for name, query in queries(rows).items():
        row_s, row_executions[name] = timed(
            lambda: execute_on_leaf_rows(leafmap, query), repeats
        )
        cache.clear()
        lookups_before = cache.stats().column_lookups.get(TIME_COLUMN, 0)
        cold_s, _ = timed(lambda: execute_on_leaf(leafmap, query))
        warm_s, executions[name] = timed(
            lambda: execute_on_leaf(leafmap, query), repeats
        )
        results[name] = {
            "query": name,
            "row_ms": row_s * 1000,
            "vector_cold_ms": cold_s * 1000,
            "vector_warm_ms": warm_s * 1000,
            "speedup": ratio(row_s, warm_s),
            # cold and warm runs together
            "time_lookups": cache.stats().column_lookups.get(TIME_COLUMN, 0) - lookups_before,
        }
    stats = cache.stats()

    # Nearly all queries predicate on time; min/max pruning makes a
    # narrow window — the first 4% of the leaf's time span, ~4 rows a
    # second — touch a fraction of the blocks.
    narrow = execute_on_leaf(
        leafmap,
        Query(
            "service_requests",
            start_time=FIRST_SECOND,
            end_time=FIRST_SECOND + max(1, rows // 100),
        ),
    )

    buffer = buffer_query(rows, queries(rows)[GROUPED], repeats)
    raw = raw_string_query(rows, repeats)
    scan = scan_loop(rows, queries(rows)[GROUPED])

    # The 4-orders-of-magnitude claim, from the calibrated model: whole
    # machine disk recovery against a typical subsecond query.
    recovery_s = paper_profile().disk_restart_seconds(8) * 8
    orders = recovery_s / 0.5

    grouped = results[GROUPED]
    # Counts and p99s exactly; avgs to the last bits that the per-block
    # sums of the vectorized executor's rounding contract move.
    fast, slow = (
        finalized(queries(rows)[GROUPED], execution)
        for execution in (executions[GROUPED], row_executions[GROUPED])
    )
    same = len(fast) == len(slow) and all(
        (group, count, p99) == (group_, count_, p99_) and math.isclose(avg, avg_, rel_tol=1e-9)
        for (group, count, avg, p99), (group_, count_, avg_, p99_) in zip(fast, slow)
    )
    gates = [
        Gate(
            "vectorized vs row-at-a-time grouped aggregation",
            f">= {SPEEDUP_FLOOR:.0f}x",
            f"{grouped['speedup']:.1f}x ({grouped['row_ms']:.0f} ms -> "
            f"{grouped['vector_warm_ms']:.1f} ms)",
            grouped["speedup"] >= SPEEDUP_FLOOR
            and executions[GROUPED].rows_scanned == rows,
        ),
        Gate(
            SAME_ANSWERS,
            "equal (avg to 1e-9: per-block sums)",
            f"{len(fast)} groups, {'equal' if same else 'DIFFERENT'}",
            same and len(fast) > 0,
        ),
        Gate(
            BUFFERED,
            f">= {BUFFER_SPEEDUP_FLOOR:.0f}x, same answers",
            f"{buffer['speedup']:.1f}x ({buffer['row_ms']:.1f} ms -> "
            f"{buffer['vector_warm_ms']:.2f} ms over {buffer['rows']:,} buffered rows), "
            f"{'same' if buffer['same_answers'] else 'DIFFERENT'}",
            buffer["speedup"] >= BUFFER_SPEEDUP_FLOOR and buffer["same_answers"],
        ),
        Gate(
            RAW_STRING,
            "equal, every block storing host raw",
            f"{raw['groups']:,} groups, {'equal' if raw['same_answers'] else 'DIFFERENT'}; "
            f"{raw['raw_blocks']} of {raw['blocks']} blocks raw; cold "
            f"{raw['vector_cold_ms']:.1f} ms, warm {raw['vector_warm_ms']:.1f} ms, "
            f"row path {raw['row_ms']:.0f} ms",
            raw["same_answers"] and raw["groups"] > 0 and raw["raw_blocks"] == raw["blocks"],
        ),
        Gate(
            NO_TIME_DECODE,
            "0 time lookups, cold + warm (> 0 with buckets)",
            f"{results[GROUPED]['time_lookups']} grouped, "
            f"{results[BUCKETS]['time_lookups']} {BUCKETS}",
            results[GROUPED]["time_lookups"] == 0 and results[BUCKETS]["time_lookups"] > 0,
        ),
        Gate(
            "grouped aggregation latency",
            f"subsecond over GBs (< {LATENCY_CEILING_S:.0f} s here)",
            f"{grouped['vector_warm_ms']:.1f} ms over {rows:,} rows",
            grouped["vector_warm_ms"] < LATENCY_CEILING_S * 1000,
        ),
        Gate(
            "blocks pruned by time predicate",
            "most",
            f"{narrow.blocks_pruned} pruned, "
            f"{narrow.rows_scanned:,} of {rows:,} rows scanned",
            narrow.blocks_pruned >= 1 and narrow.rows_scanned < rows,
        ),
        Gate(
            "decoded-column cache hit rate (warm dashboard)",
            "high on repetitive queries",
            f"{stats.hit_rate:.1%}",
            stats.hits > 0 and executions[FILTERED].rows_matched > 0,
        ),
        Gate(
            SCAN_RESISTANT,
            f"0 window misses after its first run, loop hit rate >= {SCAN_HIT_FLOOR:.0%}",
            f"{scan['window_misses']} misses over {SCAN_LOOPS} loops, hit rate "
            f"{scan['hit_rate']:.1%} (cache 1/{SCAN_CACHE_FRACTION} of "
            f"{scan['working_set_bytes']:,} B, {scan['blocks']} blocks)",
            scan["window_misses"] == 0 and scan["hit_rate"] >= SCAN_HIT_FLOOR,
        ),
        Gate(
            "machine recovery / query latency",
            "~4 orders of magnitude",
            f"{orders:.1e}x (model recovery vs 0.5 s query)",
            orders > 1e4,
        ),
    ]
    return build_payload(
        "E13",
        gates,
        rows=rows,
        compressed_bytes=data_bytes,
        queries=list(results.values()),
        min_speedup=min(r["speedup"] for r in results.values()),
        cache={
            "entries": stats.entries,
            "nbytes": stats.nbytes,
            "hit_rate": stats.hit_rate,
            "refused": stats.refused,
        },
        buffer_query=buffer,
        raw_string_query=raw,
        scan_loop=scan,
        pruning={
            "blocks_pruned": narrow.blocks_pruned,
            "rows_scanned": narrow.rows_scanned,
        },
        recovery_over_query=orders,
    )
