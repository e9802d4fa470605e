"""E2 — where disk recovery spends its time: read vs translate.

Paper (§1): "Reading about 120 GB of data from disk takes 20-25 minutes;
reading that data in its disk format and translating it to its in-memory
format takes 2.5-3 hours" — i.e. translation dominates by ~7x.

Measured for real by splitting our disk recovery into the two phases
legacy replay runs: parsing the row-format chunks into column runs (the
read) and cutting those at seal boundaries into compressed row blocks
(the translate).
"""

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.disk.backup import DiskBackup
from repro.disk.recovery import chunk_runs, surviving_chunks
from repro.sim import paper_profile
from repro.workloads import service_requests

N_ROWS = 25_000
ROWS_PER_BLOCK = 4096
TABLE = "service_requests"


@pytest.fixture(scope="module")
def synced_backup(tmp_path_factory):
    from repro.util.clock import ManualClock

    clock = ManualClock(0.0)
    backup = DiskBackup(tmp_path_factory.mktemp("e2") / "backup")
    leafmap = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK)
    leafmap.get_or_create(TABLE).add_rows(service_requests(N_ROWS))
    backup.sync_leafmap(leafmap)
    return backup


def read_runs(backup):
    """The surviving chunks, each decoded to column runs."""
    return list(chunk_runs(*surviving_chunks(backup, TABLE)))


def test_read_phase(benchmark, synced_backup, record_result):
    """Parse the disk format into column runs (no compression)."""

    def run():
        runs = read_runs(synced_backup)
        assert sum(r.n_rows for r in runs) == N_ROWS
        return runs

    benchmark(run)
    record_result("E2", "read phase (scaled)", "20-25 min @ 120 GB",
                  f"{benchmark.stats['mean']:.3f} s")


def test_translate_phase(benchmark, synced_backup, clock, record_result):
    """Seal already-read runs into compressed blocks: the paper's
    dominant cost, which in this implementation measures below the read
    (EXPERIMENTS.md, E2)."""
    runs = read_runs(synced_backup)

    def run():
        table = LeafMap(clock=clock, rows_per_block=ROWS_PER_BLOCK).create_table(TABLE)
        assert table.add_runs(runs) == N_ROWS

    benchmark(run)
    record_result("E2", "translate phase (scaled)", "~2.2-2.6 h @ 120 GB",
                  f"{benchmark.stats['mean']:.3f} s")


def test_translation_dominates(benchmark, synced_backup, clock, record_result):
    """The shape claim: translate >= read (paper has ~7x at full scale;
    the model reproduces that exactly)."""

    def run():
        profile = paper_profile()
        nbytes = profile.data_bytes_per_leaf
        return profile.disk_read_seconds(nbytes), profile.translate_seconds(nbytes)

    read_s, translate_s = benchmark(run)
    ratio = translate_s / read_s
    assert ratio > 2
    benchmark.extra_info["translate_over_read"] = ratio
    record_result("E2", "translate/read ratio (sim)", "~7x", f"{ratio:.1f}x")
