"""The shutdown and restart state machines of Figure 5.

"At all times, each leaf and table keeps track of its state.  The state
indicates whether the leaf and table are working on a restart and
determines which actions are permissible."

Four machines:

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
(c) table backup:  ALIVE → PREPARE → COPY_TO_SHM → DONE
    (PREPARE rejects new requests, kills deletes in progress, waits for
    adds/queries in flight, flushes data to disk)
(d) table restore: identical shape to (b).

:class:`StateMachine` enforces that *only* the drawn transitions happen;
anything else raises :class:`~repro.errors.StateError`, which is the
property test target for invariant 6.
"""

from __future__ import annotations

from enum import Enum
from typing import Generic, TypeVar

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


class TableBackupState(Enum):
    ALIVE = "alive"
    PREPARE = "prepare"
    COPY_TO_SHM = "copy_to_shm"
    DONE = "done"


class TableRestoreState(Enum):
    INIT = "init"
    MEMORY_RECOVERY = "memory_recovery"
    REPLICA_RECOVERY = "replica_recovery"
    DISK_SNAPSHOT_RECOVERY = "disk_snapshot_recovery"
    DISK_RECOVERY = "disk_recovery"
    ALIVE = "alive"


S = TypeVar("S", bound=Enum)


class StateMachine(Generic[S]):
    """A state holder that only permits an explicit transition set,
    drawn by each subclass as class attributes: the ``_initial`` state,
    the ``_transitions`` it permits and its ``_terminal`` states."""

    _initial: S
    _transitions: dict[S, set[S]]
    _terminal: set[S]

    def __init__(self) -> None:
        self._state = self._initial
        self.history: list[S] = [self._initial]

    @property
    def state(self) -> S:
        return self._state

    @property
    def is_terminal(self) -> bool:
        return self._state in self._terminal

    @classmethod
    def check(cls, source: S, target: S) -> None:
        """Raise :class:`StateError` unless ``source → target`` is drawn."""
        if target not in cls._transitions.get(source, ()):
            raise StateError(
                f"{cls.__name__}: illegal transition {source.value} → {target.value}"
            )

    def transition(self, target: S) -> S:
        """Move to ``target`` or raise :class:`StateError`."""
        self.check(self._state, target)
        self._state = target
        self.history.append(target)
        return target

    def require(self, *states: S) -> None:
        """Raise unless currently in one of ``states`` (action gating)."""
        if self._state not in states:
            allowed = ", ".join(s.value for s in states)
            raise StateError(
                f"{type(self).__name__}: operation requires state in "
                f"[{allowed}], currently {self._state.value}"
            )


class LeafBackupMachine(StateMachine[LeafBackupState]):
    """Figure 5(a)."""

    _initial = LeafBackupState.ALIVE
    _transitions = {
        LeafBackupState.ALIVE: {LeafBackupState.COPY_TO_SHM},
        LeafBackupState.COPY_TO_SHM: {LeafBackupState.EXIT},
    }
    _terminal = {LeafBackupState.EXIT}


class LeafRestoreMachine(StateMachine[LeafRestoreState]):
    """Figure 5(b)."""

    _initial = LeafRestoreState.INIT
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
    _terminal = {LeafRestoreState.ALIVE}


class TableBackupMachine(StateMachine[TableBackupState]):
    """Figure 5(c) — one extra PREPARE state relative to the leaf."""

    _initial = TableBackupState.ALIVE
    _transitions = {
        TableBackupState.ALIVE: {TableBackupState.PREPARE},
        TableBackupState.PREPARE: {TableBackupState.COPY_TO_SHM},
        TableBackupState.COPY_TO_SHM: {TableBackupState.DONE},
    }
    _terminal = {TableBackupState.DONE}


class TableRestoreMachine(StateMachine[TableRestoreState]):
    """Figure 5(d) — identical shape to the leaf restore machine."""

    _initial = TableRestoreState.INIT
    _transitions = {
        TableRestoreState.INIT: {
            TableRestoreState.MEMORY_RECOVERY,
            TableRestoreState.REPLICA_RECOVERY,
            TableRestoreState.DISK_SNAPSHOT_RECOVERY,
            TableRestoreState.DISK_RECOVERY,
        },
        TableRestoreState.REPLICA_RECOVERY: {
            TableRestoreState.ALIVE,
        },
        TableRestoreState.MEMORY_RECOVERY: {
            TableRestoreState.ALIVE,
            TableRestoreState.DISK_SNAPSHOT_RECOVERY,
            TableRestoreState.DISK_RECOVERY,
        },
        TableRestoreState.DISK_SNAPSHOT_RECOVERY: {
            TableRestoreState.ALIVE,
            TableRestoreState.DISK_RECOVERY,
        },
        TableRestoreState.DISK_RECOVERY: {TableRestoreState.ALIVE},
    }
    _terminal = {TableRestoreState.ALIVE}
