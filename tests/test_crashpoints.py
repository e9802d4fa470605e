"""Every side effect of every restart cycle is a crash point.

Figure 7's argument — the valid bit is set last and cleared first, and
anything odd sends the leaf to disk — is checked here mechanically.  A
clean run of each cycle is recorded (:mod:`tests.crashpoints`); then,
for every effect *k* it performed, the cycle runs again twice:

* **raise** — effect *k* raises.  A restore must still end ALIVE, on a
  rung below its own; on the bottom rung the raise propagates and the
  next boot must end ALIVE.  A shutdown, sync or expiry propagates, and
  a shutdown leaves the valid bit false.
* **die** — a forked child runs the cycle and ``os._exit(0)``\\ s right
  after effect *k*; a fresh process then boots.

After either, the boot that follows must hold the uninterrupted run's
rows with the tracker balanced (no shm charge, the heap charge exactly
the restored tables), nothing of the run's namespace left in
``/dev/shm``, nothing in the backup directory its manifest does not
name once the next sync point has run, and at most one ``fall`` event.
"""

from __future__ import annotations

from itertools import count

import pytest

from repro.cluster.replication import ReplicaBlockServer, ReplicaFetchSession, snapshot_leafmap
from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.core.states import LeafRestoreMachine, LeafRestoreState
from repro.disk.backup import DiskBackup
from repro.disk.format import read_table_chunks
from repro.server.leaf import LeafServer
from repro.util.budget import FootprintBudget
from repro.util.memtrack import MemoryTracker

from tests.conftest import SHM_DIR, make_leafmap, sealed_sync, two_table_leaf
from tests.crashpoints import InjectedFault, Recorder, in_child

TABLES = ("events", "metrics")
ROWS = 160  # per table: three sealed blocks of 50 and ten buffered rows
RETENTION = 940


def fresh_map(clock):
    return LeafMap(clock=clock, rows_per_block=50)


class World:
    """One run's shm namespace, backup directory and clock."""

    def __init__(self, namespace, directory, clock):
        self.namespace = namespace
        self.directory = directory
        self.clock = clock
        self.server = None
        self.snapshot_tier = True

    def engine(self, tracker=None, budget=None):
        engine = RestartEngine(
            "0",
            namespace=self.namespace,
            backup=DiskBackup(self.directory),
            tracker=tracker or MemoryTracker(),
            clock=self.clock,
            budget=budget,
            disk_snapshot_tier=self.snapshot_tier,
        )
        if self.server is not None:
            address = self.server.address
            engine.replica_source = lambda: ReplicaFetchSession(address, streams=1)
        return engine

    def leftovers(self) -> list[str]:
        prefix = f"{self.namespace}-"
        return sorted(path.name for path in SHM_DIR.iterdir() if path.name.startswith(prefix))

    def orphans(self) -> list[str]:
        """Files under the backup directory its manifest does not name."""
        backup = DiskBackup(self.directory)
        named = {backup.directory / "manifest.json"}
        for table in backup.table_names:
            named.add(backup.table_file(table))
            named.update(backup.chain_files(table))
        return sorted(
            str(path.relative_to(self.directory))
            for path in self.directory.rglob("*")
            if path.is_file() and path not in named
        )

    def close(self):
        if self.server is not None:
            self.server.close()


def check_timeline(report, restored):
    """The walk as it happened: ordered in time, a legal Figure 5 path
    to ALIVE with at most one fall, and every table home once on the
    rung that won."""
    times = [event.at for event in report.events]
    assert times == sorted(times)
    states = [LeafRestoreState(state) for state in report.leaf_states]
    assert states[0] is LeafRestoreState.INIT
    assert states[-1] is LeafRestoreState.ALIVE
    for source, target in zip(states, states[1:]):
        LeafRestoreMachine.check(source, target)
    falls = [event for event in report.events if event.kind == "fall"]
    assert len(falls) <= 1
    won = report.events[report.events.index(falls[-1]) + 1 :] if falls else report.events
    homes = [event.what for event in won if event.kind == "table"]
    assert sorted(homes) == sorted(restored.table_names)


def check_alive(world, engine, restored, report, expected):
    """The state after a boot (or a restore that survived its fault)."""
    check_timeline(report, restored)
    assert restored.snapshot_rows() == expected
    assert engine.tracker.in_region("shm") == 0
    assert engine.tracker.in_region("heap") == sum(table.nbytes for table in restored)
    assert world.leftovers() == []


def check_synced(world, engine, restored):
    """The next sync point leaves nothing unnamed in the backup
    directory, whatever the cycle's fault left half written."""
    engine.backup.sync_leafmap(restored)
    assert world.orphans() == []


def boot(world, expected, sync=False):
    """A fresh process's restore over what the last one left; ``sync``
    for a cycle that was writing the backup directory."""
    engine = world.engine()
    restored = fresh_map(world.clock)
    report = engine.restore(restored)
    check_alive(world, engine, restored, report, expected)
    if sync:
        engine.backup.sync_leafmap(restored)
    assert world.orphans() == []
    return report


# ----------------------------------------------------------------------
# The cycles
# ----------------------------------------------------------------------


class Shutdown:
    """Figure 6: shut a synced two-table leaf down into shared memory."""

    def setup(self, world):
        self.leafmap = make_leafmap(world.clock, tables=TABLES, rows=ROWS)
        DiskBackup(world.directory).sync_leafmap(self.leafmap)
        self.expected = self.leafmap.snapshot_rows()
        self.budget = FootprintBudget(1 << 30)
        self.engine = world.engine(budget=self.budget)

    def run(self, world):
        self.engine.backup_to_shm(self.leafmap)

    def finish(self, world, outcome):
        assert self.budget.in_flight == 0
        if outcome == "clean":
            assert self.engine.shm_state_valid()
            assert boot(world, self.expected, sync=True).method is RecoveryMethod.SHARED_MEMORY
            return
        if outcome == "raised":
            assert not self.engine.shm_state_valid()
            # The process dies with its heap; what it put in shm stays
            # charged on the tracker until the next boot discards it.
            self.engine.forget_heap()
            engine = world.engine(tracker=self.engine.tracker)
            restored = fresh_map(world.clock)
            report = engine.restore(restored)
            check_alive(world, engine, restored, report, self.expected)
            check_synced(world, engine, restored)
            assert report.method is not RecoveryMethod.SHARED_MEMORY
            return
        boot(world, self.expected, sync=True)


class Sync:
    """One sync point over two tables, one sealed block each unsynced."""

    def setup(self, world):
        self.backup, self.leafmap, self.pre = two_table_leaf(world.directory, world.clock, TABLES)
        self.post = self.leafmap.snapshot_rows()

    def run(self, world):
        self.backup.sync_leafmap(self.leafmap)

    def finish(self, world, outcome):
        engine = world.engine()
        restored = fresh_map(world.clock)
        report = engine.restore(restored)
        rows = restored.snapshot_rows()
        # Per table, the state before the sync or the state after it.
        for name in TABLES:
            assert rows[name] in (self.pre[name], self.post[name]), name
            assert len(rows[name]) == engine.backup.synced_rows(name)
        assert rows == self.post or outcome != "clean"
        if outcome == "died":
            # One publish per leaf sync: a death leaves no half of it.
            assert rows in (self.pre, self.post)
        self.rows = rows
        check_alive(world, engine, restored, report, rows)
        # The legacy log replay sees the same side of the death: no
        # unpublished chunk may reach it either.
        world.snapshot_tier = False
        replayed = fresh_map(world.clock)
        assert world.engine().restore(replayed).method is RecoveryMethod.DISK
        assert replayed.snapshot_rows() == rows
        world.snapshot_tier = True
        # The new process takes the same rows again; the retried sync
        # lands each exactly once, on both disk rungs.
        for name in TABLES:
            restored.get_table(name).add_rows(self.post[name][len(rows[name]) :])
        restored.seal_all()
        engine.backup.sync_leafmap(restored)
        assert world.orphans() == []
        for snapshot_tier in (True, False):
            world.snapshot_tier = snapshot_tier
            reread = fresh_map(world.clock)
            world.engine().restore(reread)
            assert reread.snapshot_rows() == self.post
        for name in TABLES:
            with open(engine.backup.table_file(name), "rb") as fh:
                assert [len(chunk) for chunk in read_table_chunks(fh)] == [150, 50]


class Expire:
    """One expiry run over a live two-table leaf: one manifest."""

    def setup(self, world):
        self.leaf = LeafServer(
            "0",
            backup=DiskBackup(world.directory),
            namespace=world.namespace,
            clock=world.clock,
            rows_per_block=50,
        )
        self.leaf.start()
        now = int(world.clock.now())
        for index, name in enumerate(TABLES):
            self.leaf.add_rows(name, ({"time": now - 1000 + i + index} for i in range(120)))
        self.leaf.sync_to_disk()
        self.pre = self.leaf.leafmap.snapshot_rows()
        # Each table's first block ends before the cutoff, and only it.
        self.post = {name: rows[50:] for name, rows in self.pre.items()}

    def run(self, world):
        assert self.leaf.expire(RETENTION) == 2 * 50

    def finish(self, world, outcome):
        assert outcome != "clean" or self.leaf.leafmap.snapshot_rows() == self.post
        self.leaf.crash()
        leaf = LeafServer(
            "0",
            backup=DiskBackup(world.directory),
            namespace=world.namespace,
            clock=world.clock,
            rows_per_block=50,
        )
        report = leaf.start()
        rows = leaf.leafmap.snapshot_rows()
        for name in TABLES:
            assert rows[name] in (self.pre[name], self.post[name]), name
        check_alive(world, leaf.engine, leaf.leafmap, report, rows)
        check_synced(world, leaf.engine, leaf.leafmap)
        # Retention runs again in the new process and lands the same cut.
        leaf.expire(RETENTION)
        assert leaf.leafmap.snapshot_rows() == self.post
        leaf.crash()


class Restore:
    """A restore on one rung of the ladder, blocking or serving."""

    #: The rung a raise lands on, or ``None`` at the bottom.
    BELOW = {
        "shm": RecoveryMethod.DISK_SNAPSHOT,
        "replica": RecoveryMethod.DISK_SNAPSHOT,
        "snapshot": RecoveryMethod.DISK,
        "legacy": None,
    }
    ON = {
        "shm": RecoveryMethod.SHARED_MEMORY,
        "replica": RecoveryMethod.REPLICA,
        "snapshot": RecoveryMethod.DISK_SNAPSHOT,
        "legacy": RecoveryMethod.DISK,
    }

    def __init__(self, rung, serving):
        self.rung = rung
        self.serving = serving

    def setup(self, world):
        leafmap = make_leafmap(world.clock, tables=TABLES, rows=ROWS)
        leafmap.seal_all()
        self.expected = leafmap.snapshot_rows()
        if self.rung == "shm":
            world.engine().backup_to_shm(leafmap)  # PREPARE syncs every table
        else:
            sealed_sync(DiskBackup(world.directory), leafmap)
        if self.rung == "replica":
            world.server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        world.snapshot_tier = self.rung != "legacy"
        self.budget = FootprintBudget(1 << 30)
        self.engine = world.engine(budget=self.budget)
        self.restored = fresh_map(world.clock)
        self.report = None

    def run(self, world):
        if self.serving:
            handle = self.engine.begin_lazy_restore(self.restored)
            handle.drain()
            self.report = handle.report
        else:
            self.report = self.engine.restore(self.restored)

    def finish(self, world, outcome):
        if outcome == "died":
            boot(world, self.expected)
            return
        assert self.budget.in_flight == 0
        if outcome == "propagated":
            assert self.BELOW[self.rung] is None, "only the bottom rung may raise"
            boot(world, self.expected)
            return
        check_alive(world, self.engine, self.restored, self.report, self.expected)
        assert world.orphans() == []
        falls = [event for event in self.report.events if event.kind == "fall"]
        if outcome == "clean":
            assert self.report.method is self.ON[self.rung]
            assert falls == []
        else:
            assert self.report.method is self.BELOW[self.rung]
            (fall,) = falls
            assert fall.what == self.ON[self.rung].value
            assert "InjectedFault" in fall.reason


CYCLES = {
    "shutdown": Shutdown,
    "sync": Sync,
    "expire": Expire,
    **{
        f"restore-{rung}-{entry}": (
            lambda rung=rung, entry=entry: Restore(rung, entry == "serving")
        )
        for rung in ("shm", "replica", "snapshot", "legacy")
        for entry in ("blocking", "serving")
    },
}


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


class Sweep:
    """Runs of one cycle, each in its own namespace and directory."""

    def __init__(self, name, monkeypatch, namespace, tmp_path, clock):
        self.name = name
        self.monkeypatch = monkeypatch
        self.namespace = namespace
        self.tmp_path = tmp_path
        self.clock = clock
        self.runs = count()

    def run(self, mode, arm=None):
        """One run of the cycle in ``mode`` (clean, raise or die);
        ``arm(recorder)`` picks its fault.  Returns the cycle, with the
        ``effects`` this process recorded."""
        run = f"{self.name}-{mode}{next(self.runs)}"
        world = World(f"{self.namespace}-{run}", self.tmp_path / run, self.clock)
        cycle = CYCLES[self.name]()
        try:
            cycle.setup(world)
            with self.monkeypatch.context() as patch:
                recorder = Recorder(patch, root=world.directory, namespace=world.namespace)
                if arm is None:
                    cycle.run(world)
                    outcome = "clean"
                elif mode == "die":
                    arm(recorder)
                    assert in_child(lambda: cycle.run(world)) == 0, "the effect was never reached"
                    outcome = "died"
                else:
                    arm(recorder)
                    try:
                        cycle.run(world)
                    except InjectedFault:
                        outcome = "raised" if self.name in ("shutdown", "sync", "expire") else "propagated"
                    else:
                        assert self.name.startswith("restore"), "the fault did not propagate"
                        assert recorder.fired is not None, "the armed effect never happened"
                        outcome = "fell"
            cycle.finish(world, outcome)
            cycle.effects = recorder.effects
            return cycle
        finally:
            world.close()


def effect_count_line(name, effects):
    kinds = {}
    for effect in effects:
        kinds[effect.kind] = kinds.get(effect.kind, 0) + 1
    detail = ", ".join(f"{kind} {count}" for kind, count in kinds.items())
    return f"{name}: {len(effects)} effects ({detail})"


@pytest.fixture
def sweep(monkeypatch, shm_namespace, tmp_path, clock):
    return lambda name: Sweep(name, monkeypatch, shm_namespace, tmp_path, clock)


@pytest.mark.parametrize("mode", ["raise", "die"])
@pytest.mark.parametrize("cycle", list(CYCLES))
def test_every_effect_is_a_safe_crash_point(sweep, cycle, mode):
    runner = sweep(cycle)
    effects = runner.run("clean").effects
    assert effects, "the cycle performed no side effect"
    failures = []
    for k, effect in enumerate(effects):
        arm = (lambda r, k=k: r.die_after(at=k)) if mode == "die" else (lambda r, k=k: r.fail(at=k))
        try:
            replay = runner.run(mode, arm).effects
        except AssertionError as exc:
            failures.append(f"effect {k} {effect}: {exc}")
            continue
        if mode == "raise":
            # Up to the fault, a run is the clean run.
            assert replay[: k + 1] == effects[: k + 1], k
    assert not failures, f"{cycle}, {mode} mode:\n" + "\n".join(failures)


def test_effect_counts(sweep, capsys):
    """One clean run of each cycle, its effects counted by kind (CI
    publishes these lines)."""
    lines = [effect_count_line(name, sweep(name).run("clean").effects) for name in CYCLES]
    with capsys.disabled():
        print("\n" + "\n".join(lines))
