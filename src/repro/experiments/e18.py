"""E18 (extension) — the replica recovery tier.

The paper's ladder bottoms out at local disk, but a cluster with
table-level standbys has a faster source: a sibling leaf's already
sealed, already compressed blocks, pulled over a pipelined multi-stream
wire session.  E18 measures that rung against the two disk rungs on the
same fully-synced dataset: one primary leaf, mirrored to a standby,
restarts through the wire pull, the local disk snapshot and legacy
replay in ``ROUNDS`` alternating rounds, then once more serving queries
mid-transfer.  A route is forced by what the leaf finds: the wire routes
attach a replica source, and the legacy route switches the backup's
snapshots off, so the engine finds no chain to read.

- The wire pull beats legacy replay by >= 2x, measured on each route's
  median round (CPU-bound decode against wire-bound transfer, so the
  ratio holds on any host).
- At paper-scale hardware the model's replica rung beats the disk
  snapshot rung by >= 2x — checked against the calibrated profile,
  because a local run's page-cache-backed "disk" hides exactly the
  bottleneck the replica tier removes.
- Serve-while-restoring over the wire answers the first dashboard query
  (which must match rows) before 25% of the bytes transferred.
- Final digests are identical across the replica, disk-snapshot and
  legacy routes, with legacy replayed on the process pool.
"""

from __future__ import annotations

from statistics import median

from repro.cluster.replication import ReplicaCatalog
from repro.core.engine import RecoveryMethod
from repro.disk.backup import DiskBackup
from repro.experiments import (
    Gate,
    build_payload,
    dashboard_query,
    digest,
    ratio,
    timed,
    workspace,
)
from repro.experiments.e16 import FRACTION_CEILING
from repro.server.leaf import LeafServer
from repro.sim import paper_profile
from repro.workloads import service_requests

ROWS = 6_000
ROWS_PER_BLOCK = 64
#: Crash -> start rounds per route, the routes alternating in each, so
#: one slow pull or box hiccup does not decide a gate.
ROUNDS = 3
#: Both floors: wire pull over legacy replay (measured) and replica rung
#: over the disk-snapshot rung (modelled at paper scale).
SPEEDUP_FLOOR = 2.0

#: name -> (replica source attached, backup snapshots read, rung it must land on)
ROUTES = {
    "replica": (True, True, RecoveryMethod.REPLICA),
    "disk_snapshot": (False, True, RecoveryMethod.DISK_SNAPSHOT),
    "legacy": (False, False, RecoveryMethod.DISK),
}

GATES = (
    "replica wire pull vs legacy replay",
    "first dashboard answer during wire restore",
    "digest identity across replica/disk-snapshot/legacy",
    "replica vs disk-snapshot rung, paper-scale hardware",
)


def _leaf_server(root, namespace: str, leaf_id: str) -> LeafServer:
    leaf = LeafServer(
        leaf_id,
        backup=DiskBackup(root / leaf_id),
        namespace=namespace,
        rows_per_block=ROWS_PER_BLOCK,
    )
    leaf.start()
    return leaf


def _restart_through_every_route(root, namespace, data, dashboard) -> dict:
    """One fully-synced primary with a mirrored standby, restarted through
    each route (legacy replaying on the pool) in every round, and once
    more serving mid-transfer."""
    leaf = _leaf_server(root, namespace, "p0")
    leaf.add_rows("service_requests", data)
    leaf.leafmap.seal_all()
    leaf.sync_to_disk()
    leaf.engine.replay_workers = 2
    digests = {"source": digest(leaf.leafmap)}
    data_bytes = sum(t.sealed_nbytes for t in leaf.leafmap)
    rounds: dict[str, list[float]] = {name: [] for name in ROUTES}
    methods: dict[str, str] = {}
    off_rung: list[str] = []

    def landed(name: str, rung: RecoveryMethod) -> None:
        method = leaf.last_restart_report.method
        methods[name] = method.value
        if method is not rung and name not in off_rung:
            off_rung.append(name)
        if digests.get(name, digests["source"]) == digests["source"]:
            digests[name] = digest(leaf.leafmap)  # a round that diverged stays

    catalog = ReplicaCatalog()
    try:
        catalog.assign(leaf.leaf_id, _leaf_server(root, namespace, "p0r"))
        catalog.mirror(leaf.leaf_id, "service_requests", data)
        source = catalog.session_source(leaf.leaf_id)
        for _ in range(ROUNDS):
            for name, (wire, snapshots, rung) in ROUTES.items():
                leaf.crash()
                leaf.engine.replica_source = source if wire else None
                leaf.backup.snapshots_enabled = snapshots
                seconds, _ = timed(leaf.start)
                rounds[name].append(seconds)
                landed(name, rung)

        # Serve-while-restoring over the wire: queries fault blocks in
        # on demand ahead of the transfer (``sweep=False`` keeps the
        # fraction reading deterministic).
        leaf.engine.replica_source = source
        leaf.backup.snapshots_enabled = True
        leaf.crash()

        def first_answer():
            leaf.start(serve_while_restoring=True, sweep=False)
            return leaf.query(dashboard)

        first_answer_s, answer = timed(first_answer)
        fraction = leaf.last_restart_report.fraction_restored
        leaf.wait_restored()
        landed("replica-serving", RecoveryMethod.REPLICA)
    finally:
        catalog.close()
    timings = {name: median(seconds) for name, seconds in rounds.items()}
    return {
        "rows": len(data),
        "compressed_bytes": data_bytes,
        "restore_seconds": timings,
        "restore_seconds_per_round": rounds,
        "methods": methods,
        "digests": digests,
        "off_rung": off_rung,
        "speedup_vs_legacy": ratio(timings["legacy"], timings["replica"]),
        "speedup_vs_disk_snapshot": ratio(
            timings["disk_snapshot"], timings["replica"]
        ),
        "fraction_restored_at_first_query": fraction,
        "rows_matched_at_first_query": answer.rows_matched,
        "first_answer_seconds": first_answer_s,
    }


def run(rows: int = ROWS) -> dict:
    data = list(service_requests(rows))
    dashboard = dashboard_query(data)
    with workspace() as (tmp, namespace):
        result = _restart_through_every_route(tmp, namespace, data, dashboard)

    timings = result["restore_seconds"]
    off_rung = result["off_rung"]
    identical = len(set(result["digests"].values())) == 1 and not off_rung
    gates = [
        Gate(
            "replica wire pull vs legacy replay",
            f">= {SPEEDUP_FLOOR:.0f}x",
            f"{result['speedup_vs_legacy']:.1f}x "
            f"(medians of {ROUNDS} rounds: {timings['replica'] * 1000:.1f} ms wire vs "
            f"{timings['legacy'] * 1000:.1f} ms legacy; disk snapshot "
            f"{timings['disk_snapshot'] * 1000:.1f} ms)",
            result["speedup_vs_legacy"] >= SPEEDUP_FLOOR,
        ),
        Gate(
            "first dashboard answer during wire restore",
            f"< {FRACTION_CEILING:.0%} of bytes transferred, rows matched",
            f"{result['fraction_restored_at_first_query']:.1%} transferred, "
            f"{result['rows_matched_at_first_query']} rows matched, "
            f"{result['first_answer_seconds'] * 1000:.1f} ms",
            result["fraction_restored_at_first_query"] < FRACTION_CEILING
            and result["rows_matched_at_first_query"] > 0,
        ),
        Gate(
            "digest identity across replica/disk-snapshot/legacy",
            "identical, every route on its own rung",
            f"{len(result['methods'])} routes, "
            + ("one digest" if identical else f"DIVERGED (off its rung: {off_rung})"),
            identical,
        ),
    ]
    # The local disk-snapshot rung reads tmpfs — a memcpy, not a disk.
    # The paper-scale claim runs on the calibrated model, where the
    # shared 200 MB/s spindle meets a 4-stream 10 GbE pull.
    profile = paper_profile()
    sim = {
        "replica_restart_seconds": profile.replica_restart_seconds(),
        "disk_snapshot_restart_seconds": profile.disk_snapshot_restart_seconds(1),
        "replica_speedup_vs_disk_snapshot": profile.replica_restore_speedup(1),
    }
    gates.append(
        Gate(
            "replica vs disk-snapshot rung, paper-scale hardware",
            f">= {SPEEDUP_FLOOR:.0f}x",
            f"{sim['replica_speedup_vs_disk_snapshot']:.1f}x "
            f"({sim['replica_restart_seconds']:.0f} s vs "
            f"{sim['disk_snapshot_restart_seconds']:.0f} s)",
            sim["replica_speedup_vs_disk_snapshot"] >= SPEEDUP_FLOOR,
        )
    )
    return build_payload(
        "E18",
        gates,
        rows=rows,
        compressed_bytes=result["compressed_bytes"],
        restarts=result,
        digest_routes=sorted(result["methods"]),
        digests_identical=identical,
        sim=sim,
    )
