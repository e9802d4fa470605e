"""The paper's contribution: restarts via shared memory (Section 4).

:class:`RestartEngine` implements the shutdown procedure of Figure 6 and
the restore procedure of Figure 7 over the state machines of Figure 5,
with the valid-bit commit protocol, gradual one-row-block-column-at-a-time
copying (Section 4.4), layout version checks, and automatic fallback to
disk recovery whenever shared memory state is absent, invalid, or from an
incompatible layout.
"""

from repro.core.engine import RecoveryMethod, RestartEngine, RestartReport
from repro.core.states import (
    LeafBackupMachine,
    LeafBackupState,
    LeafRestoreMachine,
    LeafRestoreState,
    StateMachine,
)
from repro.core.watchdog import CooperativeDeadline, wait_or_kill

__all__ = [
    "CooperativeDeadline",
    "LeafBackupMachine",
    "LeafBackupState",
    "LeafRestoreMachine",
    "LeafRestoreState",
    "RecoveryMethod",
    "RestartEngine",
    "RestartReport",
    "StateMachine",
    "wait_or_kill",
]
