"""Tests for canary deployments (§6's experimental-build workflow)."""

import random
from collections import Counter

import pytest

from repro.cluster.canary import CanaryDeployment
from repro.cluster.cluster import Cluster
from repro.errors import StateError
from repro.query.query import Aggregation, Query

COUNT = Query("t", aggregations=(Aggregation("count"),))


def make_cluster(shm_namespace, tmp_path, clock, machines=3):
    cluster = Cluster(
        machines, tmp_path, leaves_per_machine=2, namespace=shm_namespace,
        clock=clock, rows_per_block=64, rng=random.Random(5),
    )
    cluster.start_all()
    cluster.ingest("t", [{"time": i, "v": float(i)} for i in range(600)], batch_rows=100)
    cluster.sync_all()
    return cluster


class TestCanaryLifecycle:
    def test_deploy_puts_experiment_on_subset(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2-exp", n_canary_machines=1)
        canary.deploy()
        versions = Counter(leaf.version for leaf in cluster.leaves)
        assert versions == {"v1": 4, "v2-exp": 2}
        # Data intact under the mixed fleet.
        assert cluster.query(COUNT).rows[0].values["count(*)"] == 600

    def test_revert_restores_baseline_and_data(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2-exp")
        canary.deploy()
        result = canary.evaluate([lambda c: False])  # validation fails
        assert result.outcome == "reverted"
        assert result.validations_failed == 1
        assert Counter(leaf.version for leaf in cluster.leaves) == {"v1": 6}
        assert cluster.query(COUNT).rows[0].values["count(*)"] == 600

    def test_promote_on_success(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2-exp")
        canary.deploy()

        def data_still_complete(c):
            return c.query(COUNT).rows[0].values["count(*)"] == 600

        result = canary.evaluate([data_still_complete], promote_on_success=True)
        assert result.outcome == "promoted"
        assert Counter(leaf.version for leaf in cluster.leaves) == {"v2-exp": 6}
        assert cluster.query(COUNT).rows[0].values["count(*)"] == 600

    def test_default_is_revert_even_on_success(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2-exp")
        canary.deploy()
        result = canary.evaluate([lambda c: True])
        assert result.outcome == "reverted"
        assert Counter(leaf.version for leaf in cluster.leaves) == {"v1": 6}

    def test_raising_validation_counts_as_failure(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2-exp")
        canary.deploy()

        def explodes(c):
            raise RuntimeError("experimental build crashed the validator")

        result = canary.evaluate([explodes], promote_on_success=True)
        assert result.outcome == "reverted"
        assert result.validations_failed == 1


class TestCanaryValidation:
    def test_needs_subset(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        with pytest.raises(ValueError):
            CanaryDeployment(cluster, "v2", n_canary_machines=3)
        with pytest.raises(ValueError):
            CanaryDeployment(cluster, "v2", n_canary_machines=0)

    def test_needs_uniform_baseline(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        cluster.leaves[0].version = "vX"
        with pytest.raises(StateError):
            CanaryDeployment(cluster, "v2")

    def test_evaluate_requires_deploy(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2")
        with pytest.raises(StateError):
            canary.evaluate([])

    def test_double_deploy_rejected(self, shm_namespace, tmp_path, clock):
        cluster = make_cluster(shm_namespace, tmp_path, clock)
        canary = CanaryDeployment(cluster, "v2")
        canary.deploy()
        with pytest.raises(StateError):
            canary.deploy()
        canary.evaluate([])  # revert, clean up versions
