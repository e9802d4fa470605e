"""A machine hosting several leaf servers and one aggregator.

"Having eight servers allows for greater parallelism during query
execution [...] More importantly for recovery, eight servers mean that we
can restart the servers one at a time, while the other seven servers
continue to execute queries."  (paper, Section 2)

The machine is mostly a container — leaves do the work — but it is the
unit at which the rollover coordinator enforces "at most one leaf per
machine restarting" and at which the simulator models disk and memory
bandwidth contention.
"""

from __future__ import annotations

from pathlib import Path

from repro.disk.backup import DiskBackup
from repro.server.aggregator import Aggregator
from repro.server.leaf import DEFAULT_CAPACITY_BYTES, LeafServer
from repro.server.parallel import ParallelRestartCoordinator, ParallelRestartReport
from repro.util.clock import Clock, SystemClock
from repro.util.memtrack import MemoryTracker

#: Paper: "Each machine currently runs eight leaf servers".
DEFAULT_LEAVES_PER_MACHINE = 8


class Machine:
    """One machine's leaves, aggregator, and local backup directory."""

    def __init__(
        self,
        machine_id: str,
        backup_root: str | Path,
        leaves_per_machine: int = DEFAULT_LEAVES_PER_MACHINE,
        namespace: str = "scuba",
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        clock: Clock | None = None,
        rows_per_block: int | None = None,
        version: str = "v1",
        shared_tracker: bool = False,
    ) -> None:
        if leaves_per_machine < 1:
            raise ValueError("a machine needs at least one leaf server")
        self.machine_id = str(machine_id)
        self.clock = clock or SystemClock()
        #: With ``shared_tracker`` every leaf reports to one tracker, so
        #: its peak is the machine's physical-memory high-water mark.
        self.tracker: MemoryTracker | None = (
            MemoryTracker() if shared_tracker else None
        )
        self.leaves: list[LeafServer] = []
        root = Path(backup_root) / f"machine-{self.machine_id}"
        for index in range(leaves_per_machine):
            leaf_id = f"{self.machine_id}.{index}"
            backup = DiskBackup(root / f"leaf-{index}")
            self.leaves.append(
                LeafServer(
                    leaf_id=leaf_id,
                    backup=backup,
                    namespace=namespace,
                    capacity_bytes=capacity_bytes,
                    clock=self.clock,
                    rows_per_block=rows_per_block,
                    version=version,
                    machine_id=self.machine_id,
                    tracker=self.tracker,
                )
            )
        self.aggregator = Aggregator(self.leaves)

    def start_all(self) -> None:
        for leaf in self.leaves:
            leaf.start()

    def restart_all(
        self,
        workers: int | None = None,
        budget_bytes: int | None = None,
        use_shm: bool = True,
        memory_recovery_enabled: bool = True,
        deadline_seconds: float | None = None,
        serve_while_restoring: bool = False,
    ) -> ParallelRestartReport:
        """Restart every leaf through shared memory, ``workers`` at a time.

        The machine-event path (kernel upgrade, power-down): all leaves
        shut down to shared memory concurrently, then all come back
        concurrently.  ``budget_bytes`` caps the combined in-flight copy
        windows so the machine-wide footprint stays at data + budget +
        metadata; ``workers`` defaults to one per leaf.
        ``serve_while_restoring`` brings each leaf back to *serving* at
        directory-publish time instead of waiting for the full copy;
        ``wait_restored_all`` drains the sweeps.
        """
        coordinator = ParallelRestartCoordinator(
            self.leaves,
            max_workers=workers,
            budget=budget_bytes,
        )
        return coordinator.restart_all(
            use_shm=use_shm,
            memory_recovery_enabled=memory_recovery_enabled,
            deadline_seconds=deadline_seconds,
            serve_while_restoring=serve_while_restoring,
        )

    def wait_restored_all(self, timeout: float | None = None) -> None:
        """Drain every leaf's serve-while-restoring background sweep."""
        for leaf in self.leaves:
            leaf.wait_restored(timeout=timeout)

    @property
    def restarting_leaves(self) -> list[LeafServer]:
        """Leaves currently not alive (the rollover safety check)."""
        return [leaf for leaf in self.leaves if not leaf.is_alive]

    @property
    def nbytes(self) -> int:
        return sum(leaf.used_bytes for leaf in self.leaves)

    def __repr__(self) -> str:
        alive = sum(1 for leaf in self.leaves if leaf.is_alive)
        return (
            f"Machine(id={self.machine_id!r}, leaves={len(self.leaves)}, "
            f"alive={alive})"
        )
