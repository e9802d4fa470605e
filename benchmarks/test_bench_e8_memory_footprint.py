"""E8 — the memory footprint stays flat during the copy.

Paper (§4.4): "there is still not enough physical memory free to
allocate enough space for it in shared memory, copy it all, and then
free it from the heap.  Instead, we copy data gradually, allocating
enough space for one row block column at a time [...] this method keeps
the total memory footprint of the leaf nearly unchanged during both
shutdown and restart."

Measured through the engine's logical memory tracker: the gradual
strategy peaks at ~1x the data (+ one row block in flight and the
part-page under the next), while the naive copy-everything-then-free
strategy peaks at ~2x.  The shutdown still copies one RBC per memcpy,
but charges shm for a block's landed bytes and frees its heap bytes
once per row block, so its transient is one block plus the preambles;
the restore hands pages back as the blocks above them come home, so
its transient is one block plus a part-page.  Both sit inside the gate
of one block and one page.
"""

import mmap

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RestartEngine
from repro.shm.layout import table_segment_size, write_table_to_segment
from repro.shm.segment import ShmSegment
from repro.util.memtrack import MemoryTracker
from repro.workloads import service_requests

N_ROWS = 15_000
ROWS_PER_BLOCK = 1024
N_TABLES = 8  # Scuba has hundreds; the bound is per block, whatever the count


def build_leafmap(clock):
    """Rows spread over several tables, as on a real leaf: the gradual
    copy's transient overhead is one row block (and a page), however the
    data is split into tables."""
    leafmap = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
    rows = list(service_requests(N_ROWS))
    per_table = len(rows) // N_TABLES
    for index in range(N_TABLES):
        table = leafmap.get_or_create(f"service_requests_{index}")
        table.add_rows(rows[index * per_table : (index + 1) * per_table])
    leafmap.seal_all()
    return leafmap


def test_gradual_copy_keeps_footprint_flat(benchmark, shm_namespace, clock, record_result):
    peaks = {}

    def setup():
        return (build_leafmap(clock),), {}

    def run(leafmap):
        data_bytes = sum(t.sealed_nbytes for t in leafmap)
        largest = max(block.nbytes for table in leafmap for block in table.blocks)
        peaks["bound"] = 1 + (largest + mmap.PAGESIZE) / data_bytes
        tracker = MemoryTracker()
        engine = RestartEngine(
            "g", namespace=shm_namespace, clock=clock, tracker=tracker
        )
        engine.backup_to_shm(leafmap)
        restored = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
        RestartEngine(
            "g", namespace=shm_namespace, clock=clock, tracker=tracker
        ).restore(restored)
        peaks["ratio"] = tracker.peak_total / data_bytes

    benchmark.pedantic(run, setup=setup, rounds=5)
    assert peaks["ratio"] < peaks["bound"]  # data + one block + one page, never ~2x
    record_result("E8", "peak footprint / data, gradual copy",
                  "~1x ('nearly unchanged')",
                  f"{peaks['ratio']:.3f}x (bound {peaks['bound']:.3f}x)")


def test_naive_copy_then_free_needs_2x(benchmark, shm_namespace, clock, record_result):
    """The strategy the paper could not afford: allocate shm for all
    tables, copy everything, then free the heap."""
    peaks = {}

    def setup():
        return (build_leafmap(clock),), {}

    def run(leafmap):
        data_bytes = sum(t.sealed_nbytes for t in leafmap)
        largest = max(block.nbytes for table in leafmap for block in table.blocks)
        peaks["bound"] = 1 + (largest + mmap.PAGESIZE) / data_bytes
        tracker = MemoryTracker()
        tracker.allocate("heap", data_bytes)
        segments = []
        try:
            for index, table in enumerate(leafmap):
                blocks = table.blocks
                size = table_segment_size(table.name, blocks)
                segment = ShmSegment.create(f"{shm_namespace}-naive-{index}", size)
                tracker.allocate("shm", size)
                write_table_to_segment(segment, table.name, blocks)
                segments.append(segment)
            # Only now is the heap freed — after everything is copied.
            tracker.free("heap", data_bytes)
            peaks["ratio"] = tracker.peak_total / data_bytes
        finally:
            for segment in segments:
                segment.unlink()

    benchmark.pedantic(run, setup=setup, rounds=5)
    assert peaks["ratio"] > 1.9
    record_result("E8", "peak footprint / data, copy-then-free",
                  "~2x (unaffordable)", f"{peaks['ratio']:.2f}x")


def test_footprint_headroom_at_full_scale(benchmark, record_result):
    """144 GB of RAM, ~120 GB of data: a 2x strategy needs 240 GB and
    cannot run; the gradual strategy needs data + one RBC (<= 2 GB)."""

    def run():
        from repro.sim import paper_profile

        profile = paper_profile()
        ram = profile.machine_ram_gb
        data = profile.data_gb_per_machine
        max_rbc_gb = 2.0  # paper: RBCs capped at 2 GB
        return ram, data, data * 2, data + max_rbc_gb

    ram, data, naive_need, gradual_need = benchmark(run)
    assert naive_need > ram
    assert gradual_need < ram
    record_result("E8", "naive need vs 144 GB RAM", "does not fit",
                  f"{naive_need:.0f} GB > {ram:.0f} GB")
    record_result("E8", "gradual need vs 144 GB RAM", "fits",
                  f"{gradual_need:.0f} GB < {ram:.0f} GB")
