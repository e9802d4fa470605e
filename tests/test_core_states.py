"""Exhaustive tests of the Figure-5 state machines (invariant 6).

A machine is a transition table and its ``check``; a walk through it is
a :class:`RestartReport`, whose ``enter`` is the one place a state
changes.
"""

import itertools

import pytest

from repro.core.engine import RecoveryMethod, RestartReport
from repro.core.states import (
    LeafBackupMachine,
    LeafBackupState,
    LeafRestoreMachine,
    LeafRestoreState,
)
from repro.errors import StateError
from repro.util.clock import SystemClock

LEGAL = {
    LeafBackupMachine: {
        (LeafBackupState.ALIVE, LeafBackupState.COPY_TO_SHM),
        (LeafBackupState.COPY_TO_SHM, LeafBackupState.EXIT),
    },
    LeafRestoreMachine: {
        (LeafRestoreState.INIT, LeafRestoreState.MEMORY_RECOVERY),
        (LeafRestoreState.INIT, LeafRestoreState.REPLICA_RECOVERY),
        (LeafRestoreState.INIT, LeafRestoreState.DISK_SNAPSHOT_RECOVERY),
        (LeafRestoreState.INIT, LeafRestoreState.DISK_RECOVERY),
        (LeafRestoreState.MEMORY_RECOVERY, LeafRestoreState.ALIVE),
        (LeafRestoreState.MEMORY_RECOVERY, LeafRestoreState.MEMORY_SERVING),
        (LeafRestoreState.MEMORY_RECOVERY, LeafRestoreState.REPLICA_RECOVERY),
        (LeafRestoreState.MEMORY_RECOVERY, LeafRestoreState.DISK_SNAPSHOT_RECOVERY),
        (LeafRestoreState.MEMORY_RECOVERY, LeafRestoreState.DISK_RECOVERY),
        (LeafRestoreState.MEMORY_SERVING, LeafRestoreState.ALIVE),
        (LeafRestoreState.MEMORY_SERVING, LeafRestoreState.REPLICA_RECOVERY),
        (LeafRestoreState.MEMORY_SERVING, LeafRestoreState.DISK_SNAPSHOT_RECOVERY),
        (LeafRestoreState.MEMORY_SERVING, LeafRestoreState.DISK_RECOVERY),
        (LeafRestoreState.REPLICA_RECOVERY, LeafRestoreState.ALIVE),
        (LeafRestoreState.REPLICA_RECOVERY, LeafRestoreState.DISK_SNAPSHOT_RECOVERY),
        (LeafRestoreState.REPLICA_RECOVERY, LeafRestoreState.DISK_RECOVERY),
        (LeafRestoreState.DISK_SNAPSHOT_RECOVERY, LeafRestoreState.ALIVE),
        (LeafRestoreState.DISK_SNAPSHOT_RECOVERY, LeafRestoreState.DISK_RECOVERY),
        (LeafRestoreState.DISK_RECOVERY, LeafRestoreState.ALIVE),
    },
}

#: Where each machine's walk opens, and the states it may end in.
ENDS = {
    LeafBackupMachine: (LeafBackupState.ALIVE, {LeafBackupState.EXIT}),
    LeafRestoreMachine: (LeafRestoreState.INIT, {LeafRestoreState.ALIVE}),
}


def walk(*states):
    """A report opened in ``states[0]`` that entered each of the rest."""
    report = RestartReport.begin(SystemClock(), states[0])
    for state in states[1:]:
        report.enter(state)
    return report


@pytest.mark.parametrize("machine_cls", list(LEGAL))
class TestExhaustiveTransitions:
    def test_only_figure5_edges_are_possible(self, machine_cls):
        """Every (state, state) pair either matches Figure 5 or raises,
        from the table's ``check`` and from a report's ``enter`` alike;
        an edge refused leaves the walk where it was."""
        states = list(type(ENDS[machine_cls][0]))
        for src, dst in itertools.product(states, states):
            report = walk(src)
            if (src, dst) in LEGAL[machine_cls]:
                machine_cls.check(src, dst)
                report.enter(dst)
                assert report.leaf_states == [src.value, dst.value]
            else:
                with pytest.raises(StateError):
                    machine_cls.check(src, dst)
                with pytest.raises(StateError):
                    report.enter(dst)
                assert report.leaf_states == [src.value]

    def test_history_records_every_hop(self, machine_cls):
        initial, _ = ENDS[machine_cls]
        hop = next(dst for src, dst in LEGAL[machine_cls] if src == initial)
        report = walk(initial, hop)
        assert report.leaf_states == [initial.value, hop.value]
        assert [event.kind for event in report.events] == ["enter", "enter"]


def closure(start, edges):
    """Every state reachable from ``start`` along ``edges``."""
    seen, frontier = set(start), list(start)
    while frontier:
        for dst in edges.get(frontier.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


@pytest.mark.parametrize("machine_cls", list(LEGAL))
def test_every_state_is_entered_and_can_finish(machine_cls):
    """The machine's own table, not LEGAL: every declared state is
    reachable from the initial one, and every state can still reach a
    terminal — no rung is a dead end a restart could get stuck in."""
    initial, terminal = ENDS[machine_cls]
    edges = machine_cls._transitions
    assert closure({initial}, edges) == set(type(initial))
    for state in type(initial):
        assert closure({state}, edges) & terminal, f"{state} cannot finish"


class TestTerminalStates:
    def test_backup_machines_end_in_terminal(self):
        report = walk(LeafBackupState.ALIVE, LeafBackupState.COPY_TO_SHM)
        assert report.method is None  # not finished yet
        report.enter(LeafBackupState.EXIT)
        assert report.method is RecoveryMethod.SHARED_MEMORY
        with pytest.raises(StateError):
            report.enter(LeafBackupState.ALIVE)

    def test_restore_ends_alive(self):
        report = walk(
            LeafRestoreState.INIT,
            LeafRestoreState.MEMORY_RECOVERY,
            LeafRestoreState.ALIVE,
        )
        assert report.method is RecoveryMethod.SHARED_MEMORY
        with pytest.raises(StateError):
            report.enter(LeafRestoreState.DISK_RECOVERY)

    def test_exception_path_reaches_alive_via_disk(self):
        report = walk(
            LeafRestoreState.INIT,
            LeafRestoreState.MEMORY_RECOVERY,
            LeafRestoreState.DISK_RECOVERY,
            LeafRestoreState.ALIVE,
        )
        assert report.leaf_states == [
            "init",
            "memory_recovery",
            "disk_recovery",
            "alive",
        ]
        assert report.method is RecoveryMethod.DISK
