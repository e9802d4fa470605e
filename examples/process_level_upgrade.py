#!/usr/bin/env python3
"""A rolling upgrade over REAL operating system processes.

This is the closest this repository gets to the paper's production
setup: each leaf server is its own OS process (heap dies with it), the
deployment tooling issues shutdown commands and waits-or-kills (§4.3),
and replacements attach to the shared memory their predecessors left.

The script also exercises the operator tooling: the shared memory
inspector between the old process's death and the new one's birth, the
rollover monitor's ETA line, and a time-series view that stays identical
across the upgrade.

Run:  python examples/process_level_upgrade.py
"""

import tempfile
import uuid

from repro import Aggregation, Query
from repro.cluster.deploy import ProcessDeployment
from repro.cluster.monitor import RolloverMonitor, format_progress
from repro.cluster.rollover import RolloverCoordinator
from repro.query.render import render_timeseries
from repro.shm.inspect import format_leaf_info, inspect_leaf
from repro.workloads import service_requests

NAMESPACE = f"procdemo-{uuid.uuid4().hex[:8]}"
N_LEAVES = 4
SERIES_QUERY = Query(
    "service_requests",
    aggregations=(Aggregation("avg", "latency_ms"),),
    group_by=("datacenter",),
    bucket_seconds=120,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print(f"== spawn {N_LEAVES} leaf server processes ==")
        deployment = ProcessDeployment(
            tmp, n_leaves=N_LEAVES, namespace=NAMESPACE, rows_per_block=2048
        )
        try:
            for report in deployment.start_all():
                print(f"  leaf up via {report.method.value}")
            deployment.ingest(
                "service_requests", list(service_requests(12_000)), batch_rows=1000
            )
            deployment.sync_all()

            print("\n== latency time series before the upgrade ==")
            before = deployment.query(SERIES_QUERY)
            print(render_timeseries(before, "avg(latency_ms)", width=50))

            print("\n== peek at leaf 0's shared memory before any shutdown ==")
            print(format_leaf_info(inspect_leaf(NAMESPACE, "0")))

            print("\n== shut leaf 0 down cleanly and inspect what it left ==")
            deployment.leaves[0].shutdown(use_shm=True)
            info = inspect_leaf(NAMESPACE, "0")
            print(format_leaf_info(info))
            assert info.recoverable
            deployment.leaves[0].start()

            print("\n== full rolling upgrade v1 -> v2, one leaf at a time ==")
            # The workers share this host: the rollover sees one machine.
            result = RolloverCoordinator([deployment], "v2").run()
            monitor = RolloverMonitor(result.dashboard, stall_seconds=300)
            print(format_progress(monitor.progress()))
            print(f"  stragglers: {result.stragglers}, "
                  f"recovered via: {result.by_rung}")
            assert result.by_rung == {"shared_memory": N_LEAVES}

            print("\n== the same time series after the upgrade ==")
            after = deployment.query(SERIES_QUERY)
            print(render_timeseries(after, "avg(latency_ms)", width=50))
            assert [(r.group, r.values) for r in before.rows] == [
                (r.group, r.values) for r in after.rows
            ]
            print("\nseries identical across the process-level upgrade ✓")
        finally:
            deployment.stop_all()


if __name__ == "__main__":
    main()
