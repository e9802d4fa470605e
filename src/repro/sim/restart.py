"""Single-leaf and single-machine restart timings (experiments E1, E2).

These are closed-form applications of the hardware profile — the paper's
per-machine quotes do not need event scheduling, only the contention
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.hardware import HardwareProfile


@dataclass(frozen=True)
class LeafRestartBreakdown:
    """Phase-by-phase timing of one leaf restart."""

    method: str
    read_seconds: float
    translate_seconds: float
    copy_out_seconds: float
    copy_in_seconds: float
    overhead_seconds: float
    #: Serve-while-restoring only: the copy-back that overlaps query
    #: service.  Not part of ``total_seconds`` — the leaf is up.
    background_fill_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.read_seconds
            + self.translate_seconds
            + self.copy_out_seconds
            + self.copy_in_seconds
            + self.overhead_seconds
        )


def simulate_leaf_restart(
    profile: HardwareProfile,
    method: str = "shm",
    concurrent_on_machine: int = 1,
    replay_workers: int = 1,
) -> LeafRestartBreakdown:
    """Timing for one leaf restarting with ``k`` peers on its machine.

    ``replay_workers`` > 1 fans the legacy translate stage across a
    process pool (``method="disk"`` only): the CPU-bound decode+seal work
    shrinks by :meth:`HardwareProfile.parallel_replay_speedup`, the disk
    read and fixed overheads do not.
    """
    nbytes = profile.data_bytes_per_leaf
    if method == "disk":
        translate = profile.translate_seconds(nbytes, concurrent_on_machine)
        if replay_workers > 1:
            translate /= profile.parallel_replay_speedup(replay_workers)
        return LeafRestartBreakdown(
            method="disk",
            read_seconds=profile.disk_read_seconds(nbytes, concurrent_on_machine),
            translate_seconds=translate,
            copy_out_seconds=0.0,
            copy_in_seconds=0.0,
            overhead_seconds=profile.process_restart_overhead_s,
        )
    if method == "disk_snapshot":
        # The §6 fast tier: the disk file is the shm layout, so the
        # translate stage collapses to a bulk unpack.
        return LeafRestartBreakdown(
            method="disk_snapshot",
            read_seconds=profile.disk_read_seconds(nbytes, concurrent_on_machine),
            translate_seconds=profile.snapshot_translate_seconds(
                nbytes, concurrent_on_machine
            ),
            copy_out_seconds=0.0,
            copy_in_seconds=0.0,
            overhead_seconds=profile.process_restart_overhead_s,
        )
    if method == "replica":
        # The replica tier: no local disk involved — sealed blocks come
        # off a standby's wire session, and the per-column unpack
        # overlaps the fetch (the pipeline runs at the slower stage).
        nbytes = profile.data_bytes_per_leaf
        fetch = profile.replica_fetch_seconds(nbytes)
        unpack = profile.snapshot_translate_seconds(nbytes, 1)
        return LeafRestartBreakdown(
            method="replica",
            read_seconds=max(fetch, unpack),
            translate_seconds=0.0,
            copy_out_seconds=0.0,
            copy_in_seconds=0.0,
            overhead_seconds=(
                profile.replica_handshake_overhead_s
                + profile.process_restart_overhead_s
            ),
        )
    if method == "shm":
        return LeafRestartBreakdown(
            method="shm",
            read_seconds=0.0,
            translate_seconds=0.0,
            copy_out_seconds=profile.shm_shutdown_seconds(concurrent_on_machine),
            copy_in_seconds=profile.shm_restore_seconds(concurrent_on_machine),
            overhead_seconds=profile.process_restart_overhead_s,
        )
    if method == "shm_lazy":
        # Serve-while-restoring: the unavailability window ends at the
        # directory publish; the copy-back runs behind query service.
        return LeafRestartBreakdown(
            method="shm_lazy",
            read_seconds=0.0,
            translate_seconds=0.0,
            copy_out_seconds=profile.shm_shutdown_seconds(concurrent_on_machine),
            copy_in_seconds=profile.lazy_publish_overhead_s,
            overhead_seconds=profile.process_restart_overhead_s,
            background_fill_seconds=profile.shm_restore_seconds(
                concurrent_on_machine
            ),
        )
    raise ValueError(f"unknown restart method '{method}'")


@dataclass(frozen=True)
class MachineRecovery:
    """Timing for a whole machine's recovery."""

    method: str
    mode: str  # "all_at_once" or "sequential"
    leaves: int
    per_leaf_seconds: float
    total_seconds: float


def simulate_machine_recovery(
    profile: HardwareProfile,
    method: str = "disk",
    mode: str = "all_at_once",
) -> MachineRecovery:
    """A machine recovering all of its leaves.

    ``all_at_once`` restarts every leaf simultaneously (what happens
    after a power event, and the configuration the paper's "2.5-3 hours
    per machine" describes); ``sequential`` restarts them one at a time
    (the rolling-upgrade pattern, where each leaf gets the full disk).
    """
    n = profile.leaves_per_machine
    if mode == "all_at_once":
        breakdown = simulate_leaf_restart(profile, method, concurrent_on_machine=n)
        # Leaves run concurrently: the machine is done when each leaf's
        # (equal) contended restart finishes.
        return MachineRecovery(
            method, mode, n, breakdown.total_seconds, breakdown.total_seconds
        )
    if mode == "sequential":
        breakdown = simulate_leaf_restart(profile, method, concurrent_on_machine=1)
        return MachineRecovery(
            method, mode, n, breakdown.total_seconds, breakdown.total_seconds * n
        )
    raise ValueError(f"unknown recovery mode '{mode}'")
