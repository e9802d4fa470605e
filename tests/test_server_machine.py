"""Tests for Machine and remaining server/ingest edges."""

import pytest

from repro.server.machine import Machine


class TestMachine:
    def test_hosts_n_leaves_and_an_aggregator(self, shm_namespace, tmp_path, clock):
        machine = Machine(
            "m0", tmp_path, leaves_per_machine=3, namespace=shm_namespace,
            clock=clock, rows_per_block=32,
        )
        assert len(machine.leaves) == 3
        assert machine.aggregator.members == machine.leaves
        assert all(leaf.machine_id == "m0" for leaf in machine.leaves)

    def test_leaf_ids_embed_machine(self, shm_namespace, tmp_path, clock):
        machine = Machine(
            "7", tmp_path, leaves_per_machine=2, namespace=shm_namespace,
            clock=clock,
        )
        assert [leaf.leaf_id for leaf in machine.leaves] == ["7.0", "7.1"]

    def test_start_all_brings_every_leaf_up(self, shm_namespace, tmp_path, clock):
        machine = Machine(
            "m1", tmp_path, leaves_per_machine=2, namespace=shm_namespace,
            clock=clock, rows_per_block=32,
        )
        assert not any(leaf.accepts_queries for leaf in machine.leaves)  # INIT
        machine.start_all()
        assert all(leaf.accepts_queries for leaf in machine.leaves)
        machine.leaves[0].crash()
        assert [leaf.accepts_queries for leaf in machine.leaves] == [False, True]

    def test_nbytes_aggregates(self, shm_namespace, tmp_path, clock):
        machine = Machine(
            "m2", tmp_path, leaves_per_machine=2, namespace=shm_namespace,
            clock=clock, rows_per_block=32,
        )
        machine.start_all()
        machine.leaves[0].add_rows("t", [{"time": i} for i in range(64)])
        assert machine.nbytes > 0
        assert machine.nbytes == sum(leaf.used_bytes for leaf in machine.leaves)

    def test_needs_a_leaf(self, tmp_path):
        with pytest.raises(ValueError):
            Machine("m", tmp_path, leaves_per_machine=0)

    def test_repr_counts_alive(self, shm_namespace, tmp_path, clock):
        machine = Machine(
            "m3", tmp_path, leaves_per_machine=2, namespace=shm_namespace,
            clock=clock,
        )
        machine.start_all()
        assert "alive=2" in repr(machine)


class TestLeafBackupSeparation:
    def test_leaves_have_independent_backups(self, shm_namespace, tmp_path, clock):
        machine = Machine(
            "m4", tmp_path, leaves_per_machine=2, namespace=shm_namespace,
            clock=clock, rows_per_block=32,
        )
        machine.start_all()
        machine.leaves[0].add_rows("t", [{"time": 1}])
        machine.leaves[0].sync_to_disk()
        assert machine.leaves[0].backup.synced_rows("t") == 1
        assert machine.leaves[1].backup.synced_rows("t") == 0
        assert (
            machine.leaves[0].backup.directory != machine.leaves[1].backup.directory
        )
