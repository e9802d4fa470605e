"""E14 (extension) — restart latency over real OS processes.

Not a table in the paper, but the deployment-tooling view of E1: the
old *process* dies and the replacement *process* recovers, so the
measurement includes interpreter startup, the §4.3 wait-for-death loop,
and the JSON control channel — everything a real deploy pays besides
the data copy itself.

``test_upgrade_handoff_old_to_new_process`` is the paper's rollover in
miniature: the one rollover loop shuts the serving process down into
shared memory, waits for it to die (§4.3's wait-or-kill) and starts a
new process on a new ``--version``, and the data's content digest must
cross the swap untouched.  Set ``BENCH_E14_JSON`` to a path to archive
the measurements (CI uploads it as ``BENCH_e14.json``).
"""

import time

import pytest

from repro.cluster.deploy import ProcessDeployment
from repro.cluster.rollover import RolloverCoordinator
from repro.core.engine import RecoveryMethod
from repro.experiments import write_payload
from repro.server.process_client import LeafProcess, LeafProcessConfig

N_ROWS = 8_000


def config(shm_namespace, tmp_path, leaf_id="b"):
    return LeafProcessConfig(
        leaf_id=leaf_id,
        backup_dir=tmp_path / f"leaf-{leaf_id}",
        namespace=shm_namespace,
        rows_per_block=2048,
    )


@pytest.mark.slow
def test_process_restart_via_shared_memory(benchmark, shm_namespace, tmp_path, record_result):
    seed = LeafProcess(config(shm_namespace, tmp_path))
    seed.start()
    seed.add_rows("events", [{"time": i, "v": float(i % 7)} for i in range(N_ROWS)])
    seed.shutdown(use_shm=True)

    def setup():
        return (), {}

    def run():
        leaf = LeafProcess(config(shm_namespace, tmp_path))
        report = leaf.start()
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert report.rows == N_ROWS
        leaf.shutdown(use_shm=True)  # leave state for the next round

    benchmark.pedantic(run, setup=setup, rounds=5)
    # Consume the final generation's segments.
    final = LeafProcess(config(shm_namespace, tmp_path))
    final.start()
    final.shutdown(use_shm=False)
    record_result("E14", "process restart via shm (incl. spawn)", "seconds at scale",
                  f"{benchmark.stats['mean']:.2f} s wall (scaled)")


@pytest.mark.slow
def test_process_restart_via_disk(benchmark, shm_namespace, tmp_path, record_result):
    seed = LeafProcess(config(shm_namespace, tmp_path, leaf_id="d"))
    seed.start()
    seed.add_rows("events", [{"time": i, "v": float(i % 7)} for i in range(N_ROWS)])
    seed.shutdown(use_shm=False)

    def run():
        leaf = LeafProcess(config(shm_namespace, tmp_path, leaf_id="d"))
        report = leaf.start()
        # A clean shutdown seals and syncs every table, so the disk path
        # now takes the shm-format snapshot tier (E12) by default.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.rows == N_ROWS
        leaf.shutdown(use_shm=False)

    benchmark.pedantic(run, rounds=5)
    record_result("E14", "process restart via disk snapshot (incl. spawn)",
                  "minutes at scale",
                  f"{benchmark.stats['mean']:.2f} s wall (scaled)")


@pytest.mark.slow
def test_upgrade_handoff_old_to_new_process(shm_namespace, tmp_path, record_result):
    """The real rollover handoff, old process to new, checksums matching."""
    deployment = ProcessDeployment(
        tmp_path, n_leaves=1, namespace=shm_namespace, rows_per_block=2048
    )
    (leaf,) = deployment.leaves
    try:
        leaf.start()
        leaf.add_rows(
            "events", [{"time": i, "v": float(i % 11)} for i in range(N_ROWS)]
        )
        before = leaf.status()
        digest = leaf.digest()
        started = time.perf_counter()
        result = RolloverCoordinator([deployment], "v2").run()
        seconds = time.perf_counter() - started
        after = leaf.status()
        (report,) = result.restart_reports
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert report.rows == N_ROWS
        assert after["pid"] != before["pid"], "the rollover starts a new process"
        assert after["version"] == "v2"
        assert leaf.digest() == digest, "the upgrade must not change the data"
    finally:
        deployment.stop_all()
    handoff = {
        "seconds": seconds,
        "pid_before": before["pid"],
        "pid_after": after["pid"],
        "version_after": after["version"],
        "rows": report.rows,
        "digest_matched": True,
    }
    record_result(
        "E14",
        "old->new process upgrade handoff",
        "2-3 min slot at scale",
        f"{seconds:.2f} s wall (scaled), digest matched, "
        f"pid {before['pid']} -> {after['pid']}",
    )
    write_payload({"experiment": "E14", "rows": N_ROWS, "handoffs": {"controller": handoff}})


@pytest.mark.slow
def test_data_copy_dominates_at_scale(benchmark, shm_namespace, tmp_path, record_result):
    """The fixed process overhead (~0.5 s of interpreter+spawn here,
    seconds in production) is trivial next to a disk recovery and
    non-trivial next to an shm restore — which is exactly why the paper
    counts 'detect + initiate' in its 2-3 minute slot."""
    seed = LeafProcess(config(shm_namespace, tmp_path, leaf_id="o"))

    def run():
        leaf = LeafProcess(config(shm_namespace, tmp_path, leaf_id="o"))
        report = leaf.start()  # empty leaf: pure process overhead
        leaf.shutdown(use_shm=False)
        return report.duration_seconds

    benchmark(run)
    record_result("E14", "pure process overhead (empty leaf)", "n/a",
                  f"{benchmark.stats['mean']:.2f} s")
