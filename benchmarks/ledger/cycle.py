"""The restart cycle every ledger workload runs, and its correctness oracle.

One :class:`Machine` is a 2-leaf box (``min(2, nproc)`` leaves) with an
aggregator in front, driven by a single client thread in a closed loop.
The four workloads share :meth:`Machine.run_cycle` step for step; they
differ only in how the restarting leaf goes down and therefore which
rung of the recovery ladder has to bring it back.
"""

from __future__ import annotations

import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.cluster.replication import ReplicaCatalog
from repro.core.engine import RecoveryMethod, RestartReport
from repro.disk.backup import DiskBackup
from repro.query.query import Aggregation, Filter, Query, QueryResult
from repro.server.aggregator import Aggregator
from repro.server.leaf import LeafServer, LeafStatus
from repro.util.checksum import rows_digest
from repro.util.clock import ManualClock
from repro.workloads import SCENARIOS, error_logs, service_requests

from .boxspeed import Probe

T0 = 1_390_000_000
ROWS_PER_BLOCK = 512
#: Event-time width of one ingest slot.  The generators advance time by
#: at most one second per row, so a slot wider than a batch keeps each
#: table's timestamps monotone across slots.
SLOT_SECONDS = 600
TABLES = (("service_requests", service_requests), ("error_logs", error_logs))
#: The steady mix: (class, queries per cycle), issued in an order the
#: seeded RNG shuffles.  Fixed counts, and seven in ten of them
#: q_recent, so that p50 sits inside the q_recent mode and p95 inside
#: the q_grouped mode; at an even split the median would fall on the
#: gap between the two and jump with every sample.
QUERY_MIX = (("q_recent", 7), ("q_grouped", 1), ("q_filtered", 1), ("q_errors", 1))
#: Decoded bytes the mix keeps hot per (row index, both tables): five
#: int64/float64/id arrays on service_requests, three on error_logs.
WORKING_SET_BYTES_PER_ROW = 64
SHM_DIR = Path("/dev/shm")


@dataclass(frozen=True)
class Workload:
    """How the restarting leaf goes down, and which rung must answer."""

    name: str
    rung: RecoveryMethod
    #: True: ``shutdown(use_shm=True)``.  False: ``sync_to_disk()`` then
    #: ``crash()``.
    clean_shutdown: bool
    #: Ingest slots the retention window keeps (data set = slots x batch
    #: rows, per table per leaf).
    slots: int
    #: Rows per table per leaf per slot.  Whole blocks everywhere except
    #: crash_legacy, where the short batch leaves rows buffered at every
    #: sync so the snapshot is stale and only the row-format log is left.
    batch_rows: int
    #: Restart cycles in a 15 s run on the reference box; scaled by
    #: ``--seconds / 15`` to a fixed even count, never time-boxed.
    cycles_at_15s: int
    #: Whether the decoded-column cache is a quarter of the query mix's
    #: working set (evictions) or the 32 MiB default (fits).
    cache_overflows: bool = False
    #: Whether every batch is mirrored to a standby reachable over TCP.
    replica: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "upgrade_shm",
            RecoveryMethod.SHARED_MEMORY,
            clean_shutdown=True,
            slots=16,
            batch_rows=ROWS_PER_BLOCK,
            cycles_at_15s=64,
        ),
        Workload(
            "crash_snapshot",
            RecoveryMethod.DISK_SNAPSHOT,
            clean_shutdown=False,
            slots=16,
            batch_rows=ROWS_PER_BLOCK,
            cache_overflows=True,
            cycles_at_15s=56,
        ),
        Workload(
            "crash_legacy",
            RecoveryMethod.DISK,
            clean_shutdown=False,
            slots=8,
            batch_rows=ROWS_PER_BLOCK - 24,
            cycles_at_15s=24,
        ),
        Workload(
            "crash_replica",
            RecoveryMethod.REPLICA,
            clean_shutdown=False,
            slots=16,
            batch_rows=ROWS_PER_BLOCK,
            replica=True,
            cycles_at_15s=50,
        ),
    )
}


def leaf_count() -> int:
    return min(2, os.cpu_count() or 1)


def slot_batches(workload: Workload, seed: int, slot: int) -> list[tuple[int, str, list[dict]]]:
    """One slot's input: ``(leaf index, table, rows)`` per table per
    leaf, a pure function of the seed."""
    base = T0 + slot * SLOT_SECONDS
    out = []
    for leaf_index in range(leaf_count()):
        for table_index, (table, generate) in enumerate(TABLES):
            row_seed = seed * 1_000_003 + slot * 16 + leaf_index * 4 + table_index
            rows = list(generate(workload.batch_rows, start_time=base, seed=row_seed))
            out.append((leaf_index, table, rows))
    return out


def cycles_for(workload: Workload, seconds: float, smoke: bool) -> int:
    if smoke:
        return 3
    return max(4, 2 * round(workload.cycles_at_15s * seconds / 30))


def slots_for(workload: Workload, smoke: bool) -> int:
    return 4 if smoke else workload.slots


@dataclass
class Samples:
    """Everything one run measured, before it is reduced to metrics."""

    setup_s: list[float] = field(default_factory=list)
    restored_s: list[float] = field(default_factory=list)
    first_answer_s: list[float] = field(default_factory=list)
    serving_restored_s: list[float] = field(default_factory=list)
    persist_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    query_cold_s: list[float] = field(default_factory=list)
    ingest_s: float = 0.0
    ingest_rows: int = 0
    sealed_bytes_added: int = 0
    peak_ratios: list[float] = field(default_factory=list)
    fraction_at_first_answer: list[float] = field(default_factory=list)
    partial_answers: int = 0
    cache_nbytes_peak: int = 0
    #: class -> [queries, rows_scanned, blocks_pruned]
    by_class: dict[str, list[int]] = field(
        default_factory=lambda: {name: [0, 0, 0] for name, _ in QUERY_MIX}
    )
    shutdown_reports: list[RestartReport] = field(default_factory=list)
    restore_reports: list[RestartReport] = field(default_factory=list)
    #: (rows, seconds) of every restart that replayed the row-format log.
    replays: list[tuple[int, float]] = field(default_factory=list)
    measured_s: float = 0.0
    #: Box speed, probed before every cycle and every set-up; timed
    #: metrics are reported at the reference speed (README, "Box speed").
    probe: Probe = field(default_factory=Probe)


class Oracle:
    """Counts operations attempted and failed; remembers why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(what)


def same_answer(a: QueryResult, b: QueryResult) -> bool:
    """Equal groups and values; floats to 1e-9 relative, because a
    restore that re-seals rows into different blocks (legacy replay)
    adds the same numbers in another order."""
    if len(a.rows) != len(b.rows):
        return False
    for row_a, row_b in zip(a.rows, b.rows):
        if row_a.group != row_b.group or row_a.values.keys() != row_b.values.keys():
            return False
        for label, value in row_a.values.items():
            other = row_b.values[label]
            if isinstance(value, float) and isinstance(other, float):
                if not math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif value != other:
                return False
    return True


class _Window:
    """A timed window; under ``--trace`` also a root span of that name."""

    __slots__ = ("seconds", "started", "_span")

    def __init__(self, span=None) -> None:
        self.seconds = 0.0
        self.started = 0.0
        self._span = span

    def __enter__(self) -> "_Window":
        if self._span is not None:
            self._span.__enter__()
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = perf_counter() - self.started
        if self._span is not None:
            self._span.__exit__(*exc_info)


class Machine:
    """Leaves, standbys, aggregator and clock for one workload run."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        workdir: Path,
        namespace: str,
        oracle: Oracle,
        smoke: bool = False,
        recorder=None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.namespace = namespace
        self.oracle = oracle
        self.recorder = recorder
        self.slots = slots_for(workload, smoke)
        self.retention = self.slots * SLOT_SECONDS
        self.clock = ManualClock(T0)
        self.rng = random.Random(seed * 7919 + 17)
        rows_per_table = self.slots * workload.batch_rows
        cache_bytes = (
            rows_per_table * WORKING_SET_BYTES_PER_ROW // 4
            if workload.cache_overflows
            else 32 << 20
        )
        self.leaves = [
            self._leaf(f"{index}", cache_bytes) for index in range(leaf_count())
        ]
        self.standbys: list[LeafServer] = []
        self.catalog: ReplicaCatalog | None = None
        self.aggregator = Aggregator(self.leaves)
        if workload.replica:
            self.catalog = ReplicaCatalog(streams=min(4, os.cpu_count() or 1))
            self.aggregator.replica_router = self.catalog.replica_for
            for leaf in self.leaves:
                standby = self._leaf(f"{leaf.leaf_id}s", cache_bytes)
                self.standbys.append(standby)
                self.catalog.assign(leaf.leaf_id, standby)
                source = self.catalog.session_source(leaf.leaf_id)
                if recorder is not None:
                    # The engine calls this attribute to open the wire
                    # session; the benchmark sets it, so it wraps it.
                    source = recorder.wrap(source, "cluster.replication.session_open")
                leaf.engine.replica_source = source
        self.next_slot = 0
        self.closed = False

    def _leaf(self, leaf_id: str, cache_bytes: int) -> LeafServer:
        leaf = LeafServer(
            leaf_id,
            backup=DiskBackup(self.workdir / f"leaf-{leaf_id}"),
            namespace=self.namespace,
            clock=self.clock,
            rows_per_block=ROWS_PER_BLOCK,
            query_cache_bytes=cache_bytes,
        )
        leaf.start()
        return leaf

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def query(self, name: str) -> Query:
        if name == "q_recent":
            newest = max(1, round(0.05 * self.slots))
            return Query(
                "service_requests",
                aggregations=(Aggregation("count"), Aggregation("avg", "latency_ms")),
                group_by=("datacenter",),
                start_time=int(self.clock.now()) - newest * SLOT_SECONDS,
            )
        if name == "q_grouped":
            return SCENARIOS["requests"].query
        if name == "q_filtered":
            return Query("service_requests", filters=(Filter("status", "eq", 500),))
        return SCENARIOS["errors"].query

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def window(self, name: str) -> _Window:
        recorder = self.recorder
        return _Window(recorder.span(name) if recorder is not None else None)

    def add(self, batches) -> None:
        for leaf_index, table, rows in batches:
            leaf = self.leaves[leaf_index]
            leaf.add_rows(table, rows)
            if self.catalog is not None:
                self.catalog.mirror(leaf.leaf_id, table, rows)
        self.next_slot += 1
        self.clock.set(T0 + self.next_slot * SLOT_SECONDS)

    def setup(self, slot_batches: list) -> float:
        """Build + seal + first sync (+ mirror); returns its seconds."""
        started = perf_counter()
        for batches in slot_batches:
            self.add(batches)
        for leaf in self.leaves:
            leaf.leafmap.seal_all()
            leaf.sync_to_disk()
        return perf_counter() - started

    def warm(self) -> None:
        """Fill the caches once so cycle 0 looks like every other cycle."""
        for name, _ in QUERY_MIX:
            self.aggregator.query(self.query(name))

    def sealed_blocks(self) -> dict[tuple[str, str], int]:
        return {
            (leaf.leaf_id, table.name): table.block_count
            for leaf in self.leaves
            for table in leaf.leafmap
        }

    def run_cycle(self, cycle: int, samples: Samples, digest: bool) -> None:
        oracle, agg, workload = self.oracle, self.aggregator, self.workload
        leaf = self.leaves[cycle % len(self.leaves)]
        serving = cycle % 2 == 1
        samples.probe.sample()

        # 1. ingest one slot, slide the retention window.
        batches = slot_batches(workload, self.seed, self.next_slot)
        before = self.sealed_blocks()
        with self.window("bench.ingest") as timed:
            self.add(batches)
        samples.ingest_s += timed.seconds
        samples.ingest_rows += sum(len(rows) for _, _, rows in batches)
        oracle.attempted += len(batches)
        for member in self.leaves:
            for table in member.leafmap:
                fresh = table.blocks[before[(member.leaf_id, table.name)] :]
                samples.sealed_bytes_added += sum(block.nbytes for block in fresh)
        with self.window("bench.expire"):
            for member in self.leaves + self.standbys:
                member.expire(self.retention)

        # 2. steady queries from the seeded mix.
        mix = [name for name, count in QUERY_MIX for _ in range(count)]
        self.rng.shuffle(mix)
        for name in mix:
            query = self.query(name)
            with self.window("bench.query") as timed:
                result = agg.query(query)
            samples.query_s.append(timed.seconds)
            tally = samples.by_class[name]
            tally[0] += 1
            tally[1] += result.rows_scanned
            tally[2] += result.blocks_pruned
            oracle.check(
                result.leaves_responded == result.leaves_total,
                f"cycle {cycle}: steady {name} answered by "
                f"{result.leaves_responded}/{result.leaves_total} leaves",
            )

        samples.cache_nbytes_peak = max(
            samples.cache_nbytes_peak,
            max(member.column_cache.nbytes for member in self.leaves),
        )

        # Reference values for the oracle, outside every timed window.
        recent = self.query("q_recent")
        expect_rows = leaf.leafmap.row_count
        expect_answer = agg.query(recent)
        expect_digest = rows_digest(leaf.leafmap.snapshot_rows()) if digest else None
        # Shutdown and crash both drop the decoded-column cache first;
        # dropping it here keeps cached decodes out of the restart peak.
        leaf.column_cache.clear()
        leaf.tracker.reset_peak()

        # 3. persist, then go down the workload's way.
        with self.window("bench.persist") as timed:
            if workload.clean_shutdown:
                report = leaf.shutdown(use_shm=True)
            else:
                leaf.sync_to_disk()
        samples.persist_s.append(timed.seconds)
        if workload.clean_shutdown:
            samples.shutdown_reports.append(report)
        else:
            leaf.crash()
            # A dead process takes its heap with it; crash() alone keeps
            # the engine's charge on the tracker.
            leaf.engine.forget_heap()
        oracle.check(leaf.status is LeafStatus.DOWN, f"cycle {cycle}: leaf not down")

        # While the leaf is down: a stand-in answer where there is a
        # standby, a knowingly partial one where there is not.
        failovers = agg.failovers
        result = agg.query(recent)
        if workload.replica:
            oracle.check(
                result.leaves_responded == result.leaves_total
                and agg.failovers == failovers + 1
                and same_answer(result, expect_answer),
                f"cycle {cycle}: stand-in answer incomplete or different",
            )
        else:
            samples.partial_answers += 1
            oracle.check(
                result.leaves_responded == result.leaves_total - 1,
                f"cycle {cycle}: down-window answer claims "
                f"{result.leaves_responded}/{result.leaves_total} leaves",
            )

        # 4. come back: blocking on even cycles, serving on odd ones.
        with self.window("bench.restart") as timed:
            if not serving:
                report = leaf.start()
            else:
                leaf.start(serve_while_restoring=True)
                for _ in range(50):
                    failovers = agg.failovers
                    result = agg.query(recent)
                    if (
                        result.leaves_responded == result.leaves_total
                        and agg.failovers == failovers
                    ):
                        break
                first_answer_s = perf_counter() - timed.started
                report = leaf.wait_restored()
        if serving:
            samples.first_answer_s.append(first_answer_s)
            samples.serving_restored_s.append(timed.seconds)
            if report.bytes_total:
                samples.fraction_at_first_answer.append(
                    (report.bytes_restored_at_first_query or 0) / report.bytes_total
                )
        else:
            samples.restored_s.append(timed.seconds)
            samples.peak_ratios.append(leaf.tracker.peak_total / max(1, leaf.used_bytes))
            if report.method is RecoveryMethod.DISK:
                samples.replays.append((report.rows, timed.seconds))
            result = agg.query(recent)
        samples.restore_reports.append(report)
        oracle.check(
            leaf.status is LeafStatus.ALIVE and report.method is workload.rung,
            f"cycle {cycle}: came back {leaf.status.value} via "
            f"{report.method.value if report.method else None}, want {workload.rung.value}",
        )
        oracle.check(
            result.leaves_responded == result.leaves_total
            and same_answer(result, expect_answer),
            f"cycle {cycle}: q_recent after restart differs from before",
        )

        # 5. one cold grouped query over the whole restored table.
        with self.window("bench.cold_query") as timed:
            result = agg.query(self.query("q_grouped"))
        samples.query_cold_s.append(timed.seconds)
        oracle.check(
            result.leaves_responded == result.leaves_total,
            f"cycle {cycle}: cold query answered by {result.leaves_responded} leaves",
        )
        oracle.check(
            leaf.leafmap.row_count == expect_rows,
            f"cycle {cycle}: {leaf.leafmap.row_count} rows after restart, "
            f"{expect_rows} before",
        )
        # Expiry is not reported to the tracker, so across a clean
        # shutdown the heap region keeps the few bytes by which expired
        # blocks outweighed new ones; a lost table or a double charge is
        # orders of magnitude more than the 1 % allowed here.
        sealed = sum(table.sealed_nbytes for table in leaf.leafmap)
        oracle.check(
            leaf.tracker.in_region("shm") == 0
            and abs(leaf.tracker.in_region("heap") - sealed) <= sealed // 100
            and leaf.tracker.in_region("cache") == leaf.column_cache.nbytes,
            f"cycle {cycle}: tracker unbalanced {dict(leaf.tracker.regions)} "
            f"vs {sealed} sealed bytes",
        )
        if expect_digest is not None:
            oracle.check(
                rows_digest(leaf.leafmap.snapshot_rows()) == expect_digest,
                f"cycle {cycle}: row digest changed across the restart",
            )

    # ------------------------------------------------------------------
    # Counters and teardown
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The program's own cumulative counters, summed over primaries;
        the runner reports their growth over the measured cycles."""
        out = {"failovers": self.aggregator.failovers, "blocks_served": 0, "bytes_served": 0}
        for key in ("hits", "misses", "evictions", "invalidations"):
            out[f"cache_{key}"] = sum(getattr(leaf.cache_stats, key) for leaf in self.leaves)
        for key in (
            "snapshot_bytes_written",
            "deltas_written",
            "bases_written",
            "compactions",
            "manifest_only_links",
            "skipped_unchanged",
        ):
            out[key] = sum(getattr(leaf.backup.stats, key) for leaf in self.leaves)
        # The row-format log is append-only, so its size is bytes written.
        out["legacy_bytes_written"] = sum(
            leaf.backup.table_file(name).stat().st_size
            for leaf in self.leaves
            for name in leaf.backup.table_names
            if leaf.backup.table_file(name).exists()
        )
        if self.catalog is not None:
            for leaf in self.leaves:
                server = self.catalog.server_for(leaf.leaf_id)
                if server is not None:
                    out["blocks_served"] += server.blocks_served
                    out["bytes_served"] += server.bytes_served
        return out

    def bytes_per_row(self) -> float:
        """Stored size: sealed bytes per sealed row, over the primaries."""
        blocks = [b for leaf in self.leaves for table in leaf.leafmap for b in table.blocks]
        return sum(b.nbytes for b in blocks) / max(1, sum(b.row_count for b in blocks))

    def close(self) -> None:
        """Tear down; leaks and unbalanced trackers are failed ops."""
        if self.closed:
            return
        self.closed = True
        oracle = self.oracle
        for leaf in self.leaves + self.standbys:
            try:
                if leaf.status is not LeafStatus.DOWN:
                    leaf.crash()
                leaf.engine.forget_heap()
            except Exception as exc:  # teardown must reach the cleanup below
                oracle.fail(f"teardown of leaf {leaf.leaf_id}: {exc!r}")
            oracle.check(
                leaf.tracker.total == 0,
                f"leaf {leaf.leaf_id}: tracker holds {dict(leaf.tracker.regions)} at exit",
            )
        if self.catalog is not None:
            self.catalog.close()
        leaked = leaked_segments(self.namespace)
        oracle.check(not leaked, f"segments left in /dev/shm: {leaked}")
        for name in leaked:
            (SHM_DIR / name).unlink(missing_ok=True)
        shutil.rmtree(self.workdir, ignore_errors=True)
        oracle.check(not self.workdir.exists(), f"work dir {self.workdir} left behind")


def leaked_segments(namespace: str) -> list[str]:
    if not SHM_DIR.is_dir():
        return []
    return sorted(p.name for p in SHM_DIR.iterdir() if p.name.startswith(namespace))
