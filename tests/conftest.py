"""Shared fixtures.

Every test that touches shared memory gets a unique namespace, and the
fixture asserts at teardown that no segment with that namespace survived
— leaked segments are real bugs in lifetime management, not test noise.
Every test also fails if it leaves a segment handle open in this process
(:func:`shm_handles`); files, sockets and pipes are covered by the
``error::ResourceWarning`` filter in ``pyproject.toml``.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.disk.backup import DiskBackup
from repro.shm.segment import ShmSegment
from repro.util.clock import ManualClock

SHM_DIR = Path("/dev/shm")


# ----------------------------------------------------------------------
# reprosan — runtime lock-order / resource-balance sanitizer
# ----------------------------------------------------------------------


def pytest_addoption(parser):
    group = parser.getgroup("reprosan")
    group.addoption(
        "--reprosan",
        action="store_true",
        default=False,
        help="instrument repro locks, budgets, and trackers; fail tests "
        "on observed lock-order cycles or unreleased budget bytes",
    )
    group.addoption(
        "--reprosan-report",
        default="reprosan.json",
        metavar="FILE",
        help="where to write the sanitizer JSON report "
        "(feeds `repro lint --san-report`)",
    )


def pytest_configure(config):
    if config.getoption("--reprosan"):
        from repro.analysis import reprosan

        config._reprosan = reprosan.install(
            root=Path(__file__).resolve().parent.parent
        )


def pytest_unconfigure(config):
    san = getattr(config, "_reprosan", None)
    if san is not None:
        san.write_report(config.getoption("--reprosan-report"))
        san.uninstall()
        config._reprosan = None


@pytest.fixture(autouse=True)
def _reprosan_guard(request):
    san = getattr(request.config, "_reprosan", None)
    if san is None:
        yield
        return
    san.begin_test(request.node.nodeid)
    yield
    record = san.end_test()
    assert not record["problems"], "reprosan: " + "; ".join(record["problems"])


def open_handles(handles):
    """The names of the segment handles in ``handles`` still open."""
    return [handle.name for handle in handles if not handle._closed]


@pytest.fixture(autouse=True)
def shm_handles(monkeypatch):
    """Fail a test that leaves a :class:`ShmSegment` handle open; yields
    the handles built so far.

    Every handle built during the test (``LeafMetadata`` wraps one, so
    its handles count too) is kept here by a strong reference.  That
    reference is the point: without it CPython's ``SharedMemory.__del__``
    closes a dropped handle as soon as its refcount reaches zero, and a
    leak on any path the test does not hold on to goes unseen.  The
    leaked handles are closed at teardown so the next test starts clean.
    """
    handles = []
    init = ShmSegment.__init__

    def tracked_init(self, raw):
        init(self, raw)
        handles.append(self)

    monkeypatch.setattr(ShmSegment, "__init__", tracked_init)
    yield handles
    leaked = open_handles(handles)
    for handle in handles:
        handle.close()
    assert not leaked, f"shared memory handles left open: {leaked}"


@pytest.fixture
def shm_namespace():
    """A unique shared-memory namespace, leak-checked at teardown."""
    namespace = f"reprotest-{uuid.uuid4().hex[:10]}"
    yield namespace
    if SHM_DIR.is_dir():
        leaked = [p.name for p in SHM_DIR.iterdir() if p.name.startswith(namespace)]
        for name in leaked:
            try:
                os.unlink(SHM_DIR / name)
            except OSError:
                pass
        assert not leaked, f"leaked shared memory segments: {leaked}"


@pytest.fixture
def dirty_shm_namespace():
    """Like ``shm_namespace`` but only cleans up, without asserting —
    for tests that deliberately leave segments behind mid-scenario."""
    namespace = f"reprotest-{uuid.uuid4().hex[:10]}"
    yield namespace
    if SHM_DIR.is_dir():
        for path in SHM_DIR.iterdir():
            if path.name.startswith(namespace):
                try:
                    os.unlink(path)
                except OSError:
                    pass


@pytest.fixture
def clock():
    return ManualClock(1_390_000_000.0)


@pytest.fixture(scope="session")
def repo_root():
    """The repository checkout the analysis tests lint."""
    return Path(__file__).resolve().parent.parent


@pytest.fixture
def backup(tmp_path):
    return DiskBackup(tmp_path / "backup")


def make_leafmap(clock, rows_per_block=50, tables=("events",), rows=120):
    """A small populated leaf map for restart tests."""
    leafmap = LeafMap(clock=clock, rows_per_block=rows_per_block)
    for t_index, name in enumerate(tables):
        table = leafmap.get_or_create(name)
        table.add_rows(
            {
                "time": 1000 + t_index * 10_000 + i,
                "host": f"web{i % 7:02d}",
                "latency_ms": float(i % 250) / 2,
                "tags": ["prod", "canary"][: (i % 3)],
            }
            for i in range(rows)
        )
    return leafmap


@pytest.fixture
def small_leafmap(clock):
    return make_leafmap(clock)


def sealed_sync(backup, leafmap):
    """A sync point with nothing buffered: the snapshot side runs too."""
    leafmap.seal_all()
    backup.sync_leafmap(leafmap)


def grow_table(leafmap, n, start, table="events"):
    """Append ``n`` rows shaped like :func:`make_leafmap`'s (the legacy
    chunk writer pads rows to the table-wide schema, so differently
    shaped rows would round-trip differently through the two disk
    tiers); returns the next free timestamp."""
    leafmap.get_table(table).add_rows(
        {
            "time": start + i,
            "host": f"h{i % 5}",
            "latency_ms": float(i),
            "tags": ["prod"],
        }
        for i in range(n)
    )
    return start + n


def two_table_leaf(directory, clock, tables=("events", "metrics")):
    """Two tables, three sealed blocks each, synced; then one more block
    each, sealed and not yet synced.  Returns ``(backup, leafmap, pre)``
    with ``pre`` the rows as last synced."""
    backup = DiskBackup(directory)
    leafmap = make_leafmap(clock, tables=tables, rows=150)
    sealed_sync(backup, leafmap)
    pre = leafmap.snapshot_rows()
    for index, name in enumerate(tables):
        grow_table(leafmap, 50, 20_000 + index * 10_000, table=name)
    leafmap.seal_all()
    return backup, leafmap, pre


def restart_spanning_chain(directory, clock, tables=("events",)):
    """A backup whose chains are six links long and written by two
    processes: base + two deltas, then a crash, a ``DISK_SNAPSHOT``
    restore into a new leaf map under a reopened manager, and three more
    deltas from that one (the first of them drops two base blocks).

    Returns ``(backup, leafmap)``, both the second process's.
    """
    from repro.disk.recovery import recover_leafmap_snapshots

    backup = DiskBackup(directory)
    leafmap = make_leafmap(clock, tables=tables)  # per table: 3 blocks
    sealed_sync(backup, leafmap)
    start = 5000
    for _ in range(2):
        for t_index, name in enumerate(tables):
            grow_table(leafmap, 60, start + t_index * 10_000, table=name)
        start += 1000
        sealed_sync(backup, leafmap)

    backup = DiskBackup(directory)  # the next process
    reborn = LeafMap(clock=clock, rows_per_block=50)
    recover_leafmap_snapshots(backup, reborn)
    assert reborn.snapshot_rows() == leafmap.snapshot_rows()
    for round_index in range(3):
        for t_index, name in enumerate(tables):
            if round_index == 0:
                cutoff = 1100 + t_index * 10_000  # the first two blocks
                reborn.get_table(name).expire_before(cutoff)
                backup.record_expiry(name, cutoff)
            grow_table(reborn, 60, start + t_index * 10_000, table=name)
        start += 1000
        sealed_sync(backup, reborn)
    for name in tables:
        chain = backup.snapshot_chain(name)
        assert [link["kind"] for link in chain] == ["base"] + ["delta"] * 5
        assert chain[3]["dropped"] == [0, 1]
    assert backup.stats.bases_written == 0, "the restart must not cost a base"
    assert backup.snapshots_ready()
    return backup, reborn
