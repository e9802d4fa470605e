"""Exhaustive tests of the Figure-5 state machines (invariant 6)."""

import itertools

import pytest

from repro.core.states import (
    LeafBackupMachine,
    LeafBackupState,
    LeafRestoreMachine,
    LeafRestoreState,
    TableBackupMachine,
    TableBackupState,
    TableRestoreMachine,
    TableRestoreState,
)
from repro.errors import StateError

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
    TableBackupMachine: {
        (TableBackupState.ALIVE, TableBackupState.PREPARE),
        (TableBackupState.PREPARE, TableBackupState.COPY_TO_SHM),
        (TableBackupState.COPY_TO_SHM, TableBackupState.DONE),
    },
    TableRestoreMachine: {
        (TableRestoreState.INIT, TableRestoreState.MEMORY_RECOVERY),
        (TableRestoreState.INIT, TableRestoreState.REPLICA_RECOVERY),
        (TableRestoreState.INIT, TableRestoreState.DISK_SNAPSHOT_RECOVERY),
        (TableRestoreState.INIT, TableRestoreState.DISK_RECOVERY),
        (TableRestoreState.REPLICA_RECOVERY, TableRestoreState.ALIVE),
        (TableRestoreState.MEMORY_RECOVERY, TableRestoreState.ALIVE),
        (TableRestoreState.MEMORY_RECOVERY, TableRestoreState.DISK_SNAPSHOT_RECOVERY),
        (TableRestoreState.MEMORY_RECOVERY, TableRestoreState.DISK_RECOVERY),
        (TableRestoreState.DISK_SNAPSHOT_RECOVERY, TableRestoreState.ALIVE),
        (TableRestoreState.DISK_SNAPSHOT_RECOVERY, TableRestoreState.DISK_RECOVERY),
        (TableRestoreState.DISK_RECOVERY, TableRestoreState.ALIVE),
    },
}

STATE_ENUMS = {
    LeafBackupMachine: LeafBackupState,
    LeafRestoreMachine: LeafRestoreState,
    TableBackupMachine: TableBackupState,
    TableRestoreMachine: TableRestoreState,
}


def drive_to(machine_cls, target):
    """Walk a fresh machine along legal edges to reach ``target``."""
    machine = machine_cls()
    if machine.state == target:
        return machine
    # BFS over the legal edge set.
    frontier = [(machine.state, [])]
    seen = {machine.state}
    while frontier:
        state, path = frontier.pop(0)
        for src, dst in LEGAL[machine_cls]:
            if src == state and dst not in seen:
                if dst == target:
                    for hop in path + [dst]:
                        machine.transition(hop)
                    return machine
                seen.add(dst)
                frontier.append((dst, path + [dst]))
    raise AssertionError(f"{target} unreachable")


@pytest.mark.parametrize("machine_cls", list(LEGAL))
class TestExhaustiveTransitions:
    def test_only_figure5_edges_are_possible(self, machine_cls):
        """Every (state, state) pair either matches Figure 5 or raises."""
        states = list(STATE_ENUMS[machine_cls])
        reachable = {machine_cls().state}
        for src, dst in LEGAL[machine_cls]:
            reachable.add(src)
            reachable.add(dst)
        for src, dst in itertools.product(states, states):
            if src not in reachable:
                continue
            machine = drive_to(machine_cls, src)
            if (src, dst) in LEGAL[machine_cls]:
                machine.transition(dst)
                assert machine.state == dst
            else:
                with pytest.raises(StateError):
                    machine.transition(dst)

    def test_history_records_every_hop(self, machine_cls):
        machine = machine_cls()
        start = machine.state
        for src, dst in LEGAL[machine_cls]:
            if src == start:
                machine.transition(dst)
                break
        assert machine.history[0] == start
        assert machine.history[-1] == machine.state
        assert len(machine.history) == 2


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
    machine = machine_cls()
    edges, terminal = machine._transitions, machine._terminal
    assert closure({machine.state}, edges) == set(STATE_ENUMS[machine_cls])
    for state in STATE_ENUMS[machine_cls]:
        assert closure({state}, edges) & terminal, f"{state} cannot finish"


class TestTerminalStates:
    def test_backup_machines_end_in_terminal(self):
        leaf = LeafBackupMachine()
        leaf.transition(LeafBackupState.COPY_TO_SHM)
        leaf.transition(LeafBackupState.EXIT)
        assert leaf.is_terminal

    def test_restore_ends_alive(self):
        leaf = LeafRestoreMachine()
        leaf.transition(LeafRestoreState.MEMORY_RECOVERY)
        leaf.transition(LeafRestoreState.ALIVE)
        assert leaf.is_terminal

    def test_exception_path_reaches_alive_via_disk(self):
        leaf = LeafRestoreMachine()
        leaf.transition(LeafRestoreState.MEMORY_RECOVERY)
        leaf.transition(LeafRestoreState.DISK_RECOVERY)
        leaf.transition(LeafRestoreState.ALIVE)
        assert leaf.history == [
            LeafRestoreState.INIT,
            LeafRestoreState.MEMORY_RECOVERY,
            LeafRestoreState.DISK_RECOVERY,
            LeafRestoreState.ALIVE,
        ]


class TestRequire:
    def test_require_passes_in_listed_state(self):
        machine = TableBackupMachine()
        machine.require(TableBackupState.ALIVE)

    def test_require_raises_otherwise(self):
        machine = TableBackupMachine()
        with pytest.raises(StateError):
            machine.require(TableBackupState.DONE, TableBackupState.PREPARE)
