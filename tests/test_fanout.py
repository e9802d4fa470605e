"""One fan-out, one answer: the flat aggregator, the aggregation tree and
the process deployment agree on every field of a result.

The same four leaves' worth of rows sit in a 2 machines x 2 leaves
cluster (with a standby per leaf) and in four worker processes.  The
flat aggregator over the cluster's leaves, the cluster's root-over-
machines tree and the process deployment must give equal results —
rows, ``leaves_responded``/``leaves_total``, ``rows_scanned`` and
``blocks_pruned`` — with every leaf up, with one leaf failed over to
its standby, and with one leaf (and its standby) down.
"""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.deploy import ProcessDeployment
from repro.query.query import Aggregation, Filter, Query
from repro.server.aggregator import Aggregator

pytestmark = pytest.mark.slow

LEAVES = 4
ROWS_PER_BLOCK = 64

QUERY = Query(
    "requests",
    aggregations=(
        Aggregation("count"),
        Aggregation("avg", "lat"),
        Aggregation("p90", "lat"),
    ),
    group_by=("svc",),
    filters=(Filter("svc", "ne", "s4"),),
    start_time=1200,  # prunes each leaf's oldest blocks
)


def leaf_rows(index: int) -> list[dict]:
    rng = random.Random(index)
    return [
        {"time": 1000 + row, "svc": f"s{row % 5}", "lat": round(rng.uniform(0, 90), 3)}
        for row in range(300 + 40 * index)
    ]


@pytest.fixture
def fleet(shm_namespace, tmp_path, clock):
    cluster = Cluster(
        2,
        tmp_path / "cluster",
        leaves_per_machine=LEAVES // 2,
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=ROWS_PER_BLOCK,
        replication=True,
    )
    deployment = ProcessDeployment(
        tmp_path / "processes",
        n_leaves=LEAVES,
        namespace=f"{shm_namespace}-p",
        rows_per_block=ROWS_PER_BLOCK,
    )
    try:
        cluster.start_all()
        deployment.start_all()
        for index, (leaf, process) in enumerate(zip(cluster.leaves, deployment.leaves)):
            rows = leaf_rows(index)
            leaf.add_rows("requests", rows)
            cluster.replica_catalog.mirror(leaf.leaf_id, "requests", rows)
            process.add_rows("requests", rows)
        yield cluster, deployment
    finally:
        deployment.stop_all()
        cluster.close()


def machine_failovers(cluster) -> int:
    return sum(machine.aggregator.failovers for machine in cluster.machines)


def test_every_fan_out_gives_one_answer(fleet):
    cluster, deployment = fleet
    flat = Aggregator(cluster.leaves, replica_router=cluster.replica_catalog.replica_for)

    # Every leaf up.
    whole = flat.query(QUERY)
    assert whole.leaves_responded == whole.leaves_total == LEAVES
    assert whole.rows_scanned > 0 and whole.blocks_pruned > 0
    assert cluster.query(QUERY) == whole
    assert deployment.query(QUERY) == whole

    # One leaf down, its standby answering: a complete answer again,
    # with exactly one failover per fan-out.
    victim = cluster.leaves[1]
    victim.crash()
    flat_before, tree_before = flat.failovers, machine_failovers(cluster)
    assert flat.query(QUERY) == whole
    assert cluster.query(QUERY) == whole
    assert flat.failovers == flat_before + 1
    assert machine_failovers(cluster) == tree_before + 1

    # The standby down too: the three agree on the partial answer.
    cluster.replica_catalog.replica_for(victim.leaf_id).crash()
    deployment.leaves[1].kill()
    partial = flat.query(QUERY)
    assert partial.leaves_responded == LEAVES - 1
    assert partial.leaves_total == LEAVES
    assert partial.rows_scanned < whole.rows_scanned
    assert cluster.query(QUERY) == partial
    assert deployment.query(QUERY) == partial
