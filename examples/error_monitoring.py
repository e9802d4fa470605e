#!/usr/bin/env python3
"""The paper's motivating use case: detecting user-facing errors *during*
a software rollout.

Scuba's most critical job is spotting error spikes within seconds.  The
catch-22 the paper solves: upgrading Scuba itself used to take the error
dashboards down for hours.  This example runs an error-spike detector
against a live cluster while that same cluster is being upgraded:

- tailers keep feeding the ``error_logs`` table around restarting leaves;
- mid-rollover queries return partial-but-useful results (coverage is
  reported to the user, as in the Scuba GUI);
- the injected error spike is detected even while leaves are restarting.

Run:  python examples/error_monitoring.py
"""

import random
import tempfile
import uuid

from repro import Aggregation, Cluster, Filter, Query, RolloverCoordinator
from repro.workloads import error_logs

NAMESPACE = f"errmon-{uuid.uuid4().hex[:8]}"
TABLE = "error_logs"
BASE_TIME = 1_390_000_000

SPIKE_QUERY = Query(
    TABLE,
    aggregations=(Aggregation("count"), Aggregation("sum", "count")),
    group_by=("message",),
    filters=(Filter("severity", "in", ("error", "critical")),),
    start_time=BASE_TIME + 900,
)


def check_for_spike(cluster, label):
    result = cluster.query(SPIKE_QUERY)
    top = max(result.rows, key=lambda row: row.values["sum(count)"], default=None)
    coverage = f"{result.coverage:.0%} of leaves"
    if top and top.values["sum(count)"] > 5_000:
        print(f"  [{label}] ALERT: '{top.group[0]}' spiking "
              f"(weighted count {top.values['sum(count)']:,}) — {coverage}")
        return True
    print(f"  [{label}] nominal ({len(result.rows)} error signatures, {coverage})")
    return False


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cluster = Cluster(
            4, tmp, leaves_per_machine=2, namespace=NAMESPACE,
            rows_per_block=1024, rng=random.Random(7),
        )
        cluster.start_all()

        print("== steady state: background error traffic ==")
        cluster.ingest(TABLE, error_logs(8_000, start_time=BASE_TIME), batch_rows=500)
        cluster.sync_all()
        check_for_spike(cluster, "steady")

        print("\n== a bad release starts spiking 'thrift timeout' errors ==")
        spike = [
            {
                "time": BASE_TIME + 1000 + i // 20,
                "severity": "critical",
                "message": "thrift timeout",
                "stack_hash": "deadb",
                "count": 45,
            }
            for i in range(400)
        ]
        cluster.ingest(TABLE, spike, batch_rows=100)
        assert check_for_spike(cluster, "spike injected")

        print("\n== meanwhile, ops upgrades the Scuba cluster itself ==")
        coordinator = RolloverCoordinator(
            cluster.machines, new_version="v2", batch_fraction=0.25, use_shm=True
        )
        for batch_number, batch in enumerate(coordinator.batches(), start=1):
            # Queries DURING the batch: partial coverage, spike still visible.
            detected = check_for_spike(
                cluster, f"mid-rollover batch {batch_number} "
                f"({len(batch)} leaves down)"
            )
            assert detected or cluster.availability < 1.0
            # New errors keep flowing to the surviving leaves.
            cluster.ingest(
                TABLE,
                [
                    {
                        "time": BASE_TIME + 2000 + batch_number,
                        "severity": "critical",
                        "message": "thrift timeout",
                        "stack_hash": "deadb",
                        "count": 45,
                    }
                ]
                * 50,
                batch_rows=10,
            )

        print("\n== rollover finished ==")
        assert all(leaf.version == "v2" for leaf in cluster.leaves)
        assert check_for_spike(cluster, "post-upgrade, full coverage")
        print("the spike stayed visible through the entire upgrade ✓")


if __name__ == "__main__":
    main()
