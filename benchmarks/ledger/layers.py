"""Per-layer metrics: which public functions the traced run wraps, and
how spans and the program's own counters reduce to one number each.

``_ms`` metrics are **self time**: for each cycle, the span's self time
summed over its calls (all threads); the value is the median over the
cycles in which the span ran at all, 0 when it never ran.  A layer a
workload bypasses therefore reports 0 ms and 0 calls.
"""

from __future__ import annotations

import importlib
import statistics

#: (module under ``repro.``, class or None, attributes).  A span is named
#: ``<module>.<attribute>``, e.g. ``shm.layout.copy_events``.
TARGETS = (
    (
        "server.leaf",
        "LeafServer",
        "shutdown sync_to_disk start wait_restored query add_rows expire sealed_snapshot",
    ),
    ("server.aggregator", "Aggregator", "query"),
    ("columnstore.rowblock", "RowBlock", "from_rows unpack verify decoded_column"),
    ("columnstore.table", "Table", "to_rows"),
    ("compression.pipeline", None, "encode_column decode_column decode_column_arrays"),
    ("compression.lzs", None, "lz_compress lz_decompress"),
    ("shm.segment", "ShmSegment", "create attach unlink"),
    ("shm.layout", "TableSegmentWriter", "copy_events write_rbc"),
    ("shm.layout", None, "write_table_to_segment iter_blocks_from_segment read_block_headers"),
    ("shm.metadata", "LeafMetadata", "create attach set_valid set_records unlink"),
    ("core.engine", "RestartEngine", "backup_to_shm restore begin_lazy_restore"),
    ("core.lazyrestore", "LazyRestore", "fault_in_query sweep_one"),
    ("core.replicarestore", "ReplicaRestore", "fault_in_query sweep_one"),
    ("disk.backup", "DiskBackup", "sync_leafmap sync_table record_expiry"),
    ("disk.format", None, "write_chunk decode_chunk_rows"),
    ("disk.shmformat", None, "write_table_shm_format read_table_snapshot"),
    ("disk.recovery", None, "materialize_chain recover_leafmap"),
    ("disk.replay", None, "replay_leafmap"),
    ("cluster.replication", "ReplicaFetchSession", "fetch_many fetch"),
    ("cluster.replication", "ReplicaCatalog", "mirror"),
    ("query.execute", None, "execute_on_leaf"),
    (
        "query.kernels",
        None,
        "time_mask filter_mask factorize_column factorize_values combine_groups grouped_reduce",
    ),
    ("query.aggregate", None, "merge_leaf_results"),
)

#: What to keep of a call's result: blocks faulted in, bytes received.
MEASURES = {
    "core.lazyrestore.fault_in_query": int,
    "core.lazyrestore.sweep_one": int,
    "core.replicarestore.fault_in_query": int,
    "core.replicarestore.sweep_one": int,
    "cluster.replication.fetch": len,
}

#: The runner's own timed windows (root spans on the client thread).
WINDOWS = (
    "bench.ingest",
    "bench.expire",
    "bench.query",
    "bench.persist",
    "bench.restart",
    "bench.cold_query",
)

#: metric -> the spans whose self time it sums.
SELF_MS = {
    "server.leaf.shutdown_ms": ("server.leaf.shutdown",),
    "server.leaf.sync_to_disk_ms": ("server.leaf.sync_to_disk",),
    "server.leaf.start_ms": ("server.leaf.start", "server.leaf.wait_restored"),
    "server.leaf.query_ms": ("server.leaf.query",),
    "server.leaf.add_rows_ms": ("server.leaf.add_rows",),
    "server.leaf.expire_ms": ("server.leaf.expire",),
    "server.aggregator.query_self_ms": ("server.aggregator.query",),
    "columnstore.rowblock.from_rows_ms": ("columnstore.rowblock.from_rows",),
    "columnstore.table.to_rows_ms": ("columnstore.table.to_rows",),
    "columnstore.rowblock.unpack_ms": ("columnstore.rowblock.unpack",),
    "columnstore.rowblock.verify_ms": ("columnstore.rowblock.verify",),
    "columnstore.rowblock.decoded_column_ms": ("columnstore.rowblock.decoded_column",),
    "compression.encode_column_ms": ("compression.pipeline.encode_column",),
    "compression.lz_compress_ms": ("compression.lzs.lz_compress",),
    "compression.decode_column_ms": (
        "compression.pipeline.decode_column",
        "compression.pipeline.decode_column_arrays",
    ),
    "compression.lz_decompress_ms": ("compression.lzs.lz_decompress",),
    "shm.segment.create_ms": ("shm.segment.create",),
    "shm.segment.attach_ms": ("shm.segment.attach",),
    "shm.layout.copy_out_ms": (
        "shm.layout.copy_events",
        "shm.layout.write_rbc",
        "shm.layout.write_table_to_segment",
    ),
    "shm.layout.read_ms": (
        "shm.layout.iter_blocks_from_segment",
        "shm.layout.read_block_headers",
    ),
    "shm.metadata.ms": (
        "shm.metadata.create",
        "shm.metadata.attach",
        "shm.metadata.set_valid",
        "shm.metadata.set_records",
        "shm.metadata.unlink",
    ),
    "core.engine.backup_to_shm_ms": ("core.engine.backup_to_shm",),
    "core.engine.restore_self_ms": ("core.engine.restore",),
    "core.engine.begin_lazy_restore_ms": ("core.engine.begin_lazy_restore",),
    "core.lazyrestore.fault_in_query_ms": ("core.lazyrestore.fault_in_query",),
    "core.lazyrestore.sweep_one_ms": ("core.lazyrestore.sweep_one",),
    "core.replicarestore.fault_in_query_ms": ("core.replicarestore.fault_in_query",),
    "core.replicarestore.sweep_one_ms": ("core.replicarestore.sweep_one",),
    "disk.backup.sync_leafmap_ms": ("disk.backup.sync_leafmap",),
    "disk.backup.sync_table_self_ms": ("disk.backup.sync_table",),
    "disk.format.write_chunk_ms": ("disk.format.write_chunk",),
    "disk.recovery.materialize_chain_ms": ("disk.recovery.materialize_chain",),
    "disk.shmformat.read_table_snapshot_ms": ("disk.shmformat.read_table_snapshot",),
    "disk.replay.replay_leafmap_ms": ("disk.replay.replay_leafmap",),
    "disk.recovery.recover_leafmap_ms": ("disk.recovery.recover_leafmap",),
    "disk.format.decode_chunk_rows_ms": ("disk.format.decode_chunk_rows",),
    "cluster.replication.session_open_ms": ("cluster.replication.session_open",),
    "cluster.replication.fetch_many_ms": ("cluster.replication.fetch_many",),
    "cluster.replication.fetch_ms": ("cluster.replication.fetch",),
    "cluster.replication.mirror_ms": ("cluster.replication.mirror",),
    "cluster.replication.sealed_snapshot_ms": ("server.leaf.sealed_snapshot",),
    "query.execute.execute_on_leaf_self_ms": ("query.execute.execute_on_leaf",),
    "query.kernels.time_mask_ms": ("query.kernels.time_mask",),
    "query.kernels.filter_mask_ms": ("query.kernels.filter_mask",),
    "query.kernels.factorize_ms": (
        "query.kernels.factorize_column",
        "query.kernels.factorize_values",
        "query.kernels.combine_groups",
    ),
    "query.kernels.grouped_reduce_ms": ("query.kernels.grouped_reduce",),
    "query.aggregate.merge_leaf_results_ms": ("query.aggregate.merge_leaf_results",),
}


def install(recorder) -> None:
    """Wrap every target; call before any leaf is built."""
    for module_name, class_name, attrs in TARGETS:
        owner = importlib.import_module(f"repro.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name)
        for attr in attrs.split():
            span_name = f"{module_name}.{attr}"
            recorder.instrument(owner, attr, span_name, MEASURES.get(span_name))


def _cycle_median_ms(totals: dict, spans: tuple[str, ...]) -> float:
    per_cycle: dict[int, float] = {}
    for span in spans:
        for cycle, cell in totals.get(span, {}).items():
            if cycle >= 0:
                per_cycle[cycle] = per_cycle.get(cycle, 0.0) + cell[0]
    return statistics.median(per_cycle.values()) * 1e3 if per_cycle else 0.0


def _sum(totals: dict, spans: tuple[str, ...], slot: int) -> float:
    return sum(
        cell[slot]
        for span in spans
        for cycle, cell in totals.get(span, {}).items()
        if cycle >= 0
    )


def derive(recorder, workload, samples, counters: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``counters`` carries what the runner read from the program's own
    statistics over the measured cycles (cache, snapshot, wire, tracker).
    """
    from repro.core.engine import RecoveryMethod

    totals = recorder.totals()
    speed = counters["speed_factor"]
    out: dict[str, tuple[float, str]] = {
        name: (_cycle_median_ms(totals, spans) / speed, "ms")
        for name, spans in SELF_MS.items()
    }

    def put(name: str, value: float, unit: str = "count") -> None:
        out[name] = (value, unit)

    put("server.aggregator.failovers", counters["failovers"])
    put("server.aggregator.partial_answers", samples.partial_answers)
    put(
        "columnstore.rowblock.sealed_blocks",
        _sum(totals, ("columnstore.rowblock.from_rows",), 2),
    )
    put("columnstore.rowblock.unpack_calls", _sum(totals, ("columnstore.rowblock.unpack",), 2))
    put("columnstore.colcache.hit_rate", counters["cache_hit_rate"], "ratio")
    put("columnstore.colcache.evictions", counters["cache_evictions"])
    put("columnstore.colcache.invalidations", counters["cache_invalidations"])
    put("columnstore.colcache.nbytes_peak", counters["cache_nbytes_peak"], "bytes")
    put("compression.bytes_per_row", counters["bytes_per_row"], "bytes/row")
    put(
        "shm.segment.calls",
        _sum(totals, ("shm.segment.create", "shm.segment.attach", "shm.segment.unlink"), 2),
    )
    put("shm.bytes_out", sum(r.bytes_copied for r in samples.shutdown_reports), "bytes")
    in_shm = [
        r for r in samples.restore_reports if r.method is RecoveryMethod.SHARED_MEMORY
    ]
    put("shm.bytes_in", sum(r.bytes_copied for r in in_shm), "bytes")
    put(
        "shm.rbc_copies",
        sum(r.rbc_copies for r in samples.shutdown_reports) + sum(r.rbc_copies for r in in_shm),
    )
    for method in RecoveryMethod:
        put(
            f"core.engine.rung.{method.value}",
            sum(1 for r in samples.restore_reports if r.method is method),
        )
    put(
        "core.engine.fallbacks",
        sum(
            1
            for r in samples.restore_reports
            if r.fell_back_to_disk or r.fell_back_to_legacy or r.fell_back_from_replica
        ),
    )
    put(
        "core.engine.peak_tracked_bytes",
        max((r.peak_tracked_bytes for r in samples.restore_reports), default=0),
        "bytes",
    )
    for restorer, on_rung in (
        ("core.lazyrestore", workload.rung is RecoveryMethod.SHARED_MEMORY),
        ("core.replicarestore", workload.rung is RecoveryMethod.REPLICA),
    ):
        put(f"{restorer}.fault_in_blocks", _sum(totals, (f"{restorer}.fault_in_query",), 3))
        put(f"{restorer}.sweep_blocks", _sum(totals, (f"{restorer}.sweep_one",), 3))
        fractions = samples.fraction_at_first_answer if on_rung else []
        put(
            f"{restorer}.fraction_at_first_answer",
            statistics.median(fractions) if fractions else 0.0,
            "ratio",
        )
    for name in (
        "snapshot_bytes_written",
        "legacy_bytes_written",
        "deltas_written",
        "bases_written",
        "compactions",
        "manifest_only_links",
        "skipped_unchanged",
    ):
        put(
            f"disk.backup.{name}",
            counters[name],
            "bytes" if name.endswith("bytes_written") else "count",
        )
    replay_rows = sum(rows for rows, _ in samples.replays)
    replay_s = sum(seconds for _, seconds in samples.replays)
    put("disk.replay.rows_per_s", replay_rows / replay_s if replay_s else 0.0, "rows/s")
    put("cluster.replication.blocks_fetched", counters["blocks_served"])
    put("cluster.replication.bytes_received", counters["bytes_served"], "bytes")
    for name, (queries, rows_scanned, blocks_pruned) in samples.by_class.items():
        put(f"query.{name}.rows_scanned", rows_scanned / max(1, queries), "rows")
        put(f"query.{name}.blocks_pruned", blocks_pruned / max(1, queries), "blocks")

    window_self = _sum(totals, WINDOWS, 0)
    window_total = _sum(totals, WINDOWS, 1)
    put(
        "bench.unattributed_pct",
        100.0 * window_self / window_total if window_total else 0.0,
        "%",
    )
    overhead_s = recorder.span_count() * counters["per_span_cost_s"]
    put(
        "bench.trace_overhead_pct",
        100.0 * overhead_s / max(1e-9, samples.measured_s - overhead_s),
        "%",
    )
    put("bench.spin_ms", counters["spin_ms"], "ms")
    put("bench.box_speed", speed, "ratio")
    return out
