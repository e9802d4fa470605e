"""The shutdown and restart state machines of Figure 5.

"At all times, each leaf and table keeps track of its state.  The state
indicates whether the leaf and table are working on a restart and
determines which actions are permissible."

Two machines, each a transition table:

(a) leaf backup:   ALIVE → COPY_TO_SHM → EXIT
(b) leaf restore:  INIT → MEMORY_RECOVERY → ALIVE
                   INIT → DISK_RECOVERY → ALIVE       (memory recovery disabled)
                   MEMORY_RECOVERY → DISK_RECOVERY    (exception)
    The recovery *ladder* adds a middle disk tier (Section 6: shm-format
    snapshots on disk):
                   INIT → DISK_SNAPSHOT_RECOVERY → ALIVE
                   MEMORY_RECOVERY → DISK_SNAPSHOT_RECOVERY   (exception)
                   DISK_SNAPSHOT_RECOVERY → DISK_RECOVERY     (stale/torn)
    Serve-while-restoring splits memory recovery in two: once the block
    directory is published the leaf *serves* while blocks fault in:
                   MEMORY_RECOVERY → MEMORY_SERVING           (directory up)
                   MEMORY_SERVING → ALIVE                     (all blocks in)
                   MEMORY_SERVING → DISK_SNAPSHOT_RECOVERY    (fault-in error)
                   MEMORY_SERVING → DISK_RECOVERY             (fault-in error)
    The replica tier slots between shared memory and the disk rungs:
    when shm is gone but a sibling replica is alive, blocks stream over
    the wire instead of replaying from local disk:
                   INIT → REPLICA_RECOVERY                    (no shm, replica up)
                   MEMORY_RECOVERY → REPLICA_RECOVERY         (exception)
                   MEMORY_SERVING → REPLICA_RECOVERY          (fault-in error)
                   REPLICA_RECOVERY → ALIVE                   (all blocks pulled)
                   REPLICA_RECOVERY → DISK_SNAPSHOT_RECOVERY  (wire fault)
                   REPLICA_RECOVERY → DISK_RECOVERY           (wire fault)

Figure 5's table machines, (c) and (d), are not kept: a table's backup
is one straight-line PREPARE → copy → drop in
:meth:`~repro.core.engine.RestartEngine.backup_to_shm`, and a table's
restore is its leaf's rung; each table home is a ``table`` event on the
leaf's :class:`~repro.core.engine.RestartReport`.

The one place a state changes is :meth:`RestartReport.enter
<repro.core.engine.RestartReport.enter>`, which asks
:meth:`StateMachine.check` whether Figure 5 draws the edge; anything
else raises :class:`~repro.errors.StateError`, which is the property
test target for invariant 6.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import StateError


class LeafBackupState(Enum):
    ALIVE = "alive"
    COPY_TO_SHM = "copy_to_shm"
    EXIT = "exit"


class LeafRestoreState(Enum):
    INIT = "init"
    MEMORY_RECOVERY = "memory_recovery"
    #: Block directory published; queries fault blocks in on demand
    #: while the background sweep fills the remainder.
    MEMORY_SERVING = "memory_serving"
    #: Sealed blocks streaming over the wire from a sibling replica.
    REPLICA_RECOVERY = "replica_recovery"
    DISK_SNAPSHOT_RECOVERY = "disk_snapshot_recovery"
    DISK_RECOVERY = "disk_recovery"
    ALIVE = "alive"


class StateMachine:
    """An explicit transition set, drawn by each subclass as its
    ``_transitions``: a state maps to the states it may move to."""

    _transitions: dict[Enum, set[Enum]]

    @classmethod
    def check(cls, source: Enum, target: Enum) -> None:
        """Raise :class:`StateError` unless ``source → target`` is drawn."""
        if target not in cls._transitions.get(source, ()):
            raise StateError(
                f"{cls.__name__}: illegal transition {source.value} → {target.value}"
            )


class LeafBackupMachine(StateMachine):
    """Figure 5(a)."""

    _transitions = {
        LeafBackupState.ALIVE: {LeafBackupState.COPY_TO_SHM},
        LeafBackupState.COPY_TO_SHM: {LeafBackupState.EXIT},
    }


class LeafRestoreMachine(StateMachine):
    """Figure 5(b)."""

    _transitions = {
        LeafRestoreState.INIT: {
            LeafRestoreState.MEMORY_RECOVERY,
            LeafRestoreState.REPLICA_RECOVERY,  # no shm, replica up
            LeafRestoreState.DISK_SNAPSHOT_RECOVERY,  # no shm state
            LeafRestoreState.DISK_RECOVERY,  # memory recovery disabled
        },
        LeafRestoreState.MEMORY_RECOVERY: {
            LeafRestoreState.ALIVE,
            LeafRestoreState.MEMORY_SERVING,  # directory published
            LeafRestoreState.REPLICA_RECOVERY,  # exception
            LeafRestoreState.DISK_SNAPSHOT_RECOVERY,  # exception
            LeafRestoreState.DISK_RECOVERY,  # exception
        },
        LeafRestoreState.MEMORY_SERVING: {
            LeafRestoreState.ALIVE,  # every block faulted in
            LeafRestoreState.REPLICA_RECOVERY,  # fault-in error
            LeafRestoreState.DISK_SNAPSHOT_RECOVERY,  # fault-in error
            LeafRestoreState.DISK_RECOVERY,  # fault-in error
        },
        LeafRestoreState.REPLICA_RECOVERY: {
            LeafRestoreState.ALIVE,  # every block pulled off the wire
            LeafRestoreState.DISK_SNAPSHOT_RECOVERY,  # wire fault
            LeafRestoreState.DISK_RECOVERY,  # wire fault
        },
        LeafRestoreState.DISK_SNAPSHOT_RECOVERY: {
            LeafRestoreState.ALIVE,
            LeafRestoreState.DISK_RECOVERY,  # stale/torn snapshot
        },
        LeafRestoreState.DISK_RECOVERY: {LeafRestoreState.ALIVE},
    }
