"""Discrete-event simulation of a full-cluster rollover (Figure 8, E3).

Policy, per the paper:

- at most ``batch_fraction`` (default 2%) of all leaves restarting at any
  instant, rounded down as the in-process rollover rounds it
  (:func:`repro.cluster.rollover.batch_size`),
- at most one leaf per machine restarting at a time (each restarting
  leaf gets the machine's full disk/memory bandwidth),
- a restart *slot* is the leaf's offline window plus the coordinator's
  detection/initiation overhead; with ``pipelined_detection`` the next
  restart on another machine can begin while detection of the previous
  one is still pending (what Scuba's deployment tooling effectively
  does — without it, shared-memory rollovers could not finish inside an
  hour).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.dashboard import Dashboard
from repro.cluster.rollover import batch_size as rollover_batch_size
from repro.sim.events import EventQueue
from repro.sim.hardware import HardwareProfile


@dataclass
class SimRolloverResult:
    """Outcome of one simulated rollover."""

    strategy: str
    n_machines: int
    leaves_total: int
    batch_size: int
    restart_seconds: float = 0.0  # first shutdown -> last leaf back online
    total_seconds: float = 0.0  # including deployment-software overhead
    per_leaf_offline_seconds: float = 0.0
    mean_availability: float = 1.0
    min_availability: float = 1.0
    stragglers: int = 0  # leaves whose shm copy failed -> disk recovery
    dashboard: Dashboard = field(default_factory=Dashboard)


@dataclass
class _MachineState:
    remaining: int  # leaves still on the old version
    busy: bool = False  # a leaf of this machine is mid-restart


def simulate_rollover(
    profile: HardwareProfile,
    n_machines: int = 100,
    strategy: str = "shm",
    batch_fraction: float = 0.02,
    pipelined_detection: bool = True,
    sample_every_slots: int = 1,
    shm_failure_rate: float = 0.0,
    seed: int = 0,
) -> SimRolloverResult:
    """Simulate upgrading every leaf of the cluster.

    ``shm_failure_rate`` models stragglers: the fraction of shared
    memory shutdowns that overrun the §4.3 deadline and are killed, so
    the replacement pays the full disk recovery instead.  Even a few
    percent of stragglers stretches an shm rollover's tail — the reason
    the deploy tooling monitors for them (cluster.monitor).

    Returns timings, availability statistics, and a Figure-8 dashboard
    series.
    """
    if strategy not in ("shm", "disk"):
        raise ValueError(f"unknown rollover strategy '{strategy}'")
    if not 0 <= shm_failure_rate <= 1:
        raise ValueError("shm failure rate must be a fraction")
    leaves_per_machine = profile.leaves_per_machine
    total_leaves = n_machines * leaves_per_machine
    batch_size = rollover_batch_size(total_leaves, batch_fraction)

    if strategy == "disk":
        offline = profile.disk_restart_seconds(concurrent_on_machine=1)
    else:
        offline = profile.shm_restart_seconds(concurrent_on_machine=1)
    straggler_offline = profile.disk_restart_seconds(concurrent_on_machine=1)
    detection = profile.detection_overhead_s
    rng = random.Random(seed)

    queue = EventQueue()
    machines = [_MachineState(remaining=leaves_per_machine) for _ in range(n_machines)]
    state = {
        "offline_now": 0,
        "active_slots": 0,
        "upgraded": 0,
        "offline_leaf_seconds": 0.0,
        "max_offline": 0,
        "last_online_time": 0.0,
        "restarts_started": 0,
        "rr_cursor": 0,
    }
    result = SimRolloverResult(
        strategy=strategy,
        n_machines=n_machines,
        leaves_total=total_leaves,
        batch_size=batch_size,
        per_leaf_offline_seconds=offline,
    )

    def sample() -> None:
        rolling = state["offline_now"]
        new = state["upgraded"]
        old = total_leaves - rolling - new
        availability = 1.0 - rolling / total_leaves
        result.dashboard.record(queue.now, old, rolling, new, availability)
        result.min_availability = min(result.min_availability, availability)

    def try_start() -> None:
        # Round-robin over machines: spreading restarts across the fleet
        # keeps per-machine serialization (a machine restarts its leaves
        # one at a time) off the critical path.
        n = len(machines)
        for step in range(n):
            if state["active_slots"] >= batch_size:
                return
            machine = machines[(state["rr_cursor"] + step) % n]
            if machine.busy or machine.remaining == 0:
                continue
            state["rr_cursor"] = (state["rr_cursor"] + step + 1) % n
            machine.busy = True
            machine.remaining -= 1
            state["active_slots"] += 1
            state["offline_now"] += 1
            state["max_offline"] = max(state["max_offline"], state["offline_now"])
            duration = offline
            if (
                strategy == "shm"
                and shm_failure_rate > 0
                and rng.random() < shm_failure_rate
            ):
                # Copy overran the deadline: killed, disk recovery.
                duration = straggler_offline
                result.stragglers += 1
            state["offline_leaf_seconds"] += duration
            state["restarts_started"] += 1
            if state["restarts_started"] % max(1, sample_every_slots) == 0:
                sample()
            queue.schedule(duration, lambda m=machine: leaf_online(m))

    def leaf_online(machine: _MachineState) -> None:
        state["offline_now"] -= 1
        state["upgraded"] += 1
        state["last_online_time"] = queue.now
        if pipelined_detection:
            # The slot is considered free for *other machines* right
            # away; this machine still waits out detection before its
            # next leaf restarts.
            state["active_slots"] -= 1
            try_start()
            queue.schedule(detection, lambda m=machine: machine_free(m, False))
        else:
            queue.schedule(detection, lambda m=machine: machine_free(m, True))

    def machine_free(machine: _MachineState, release_slot: bool) -> None:
        machine.busy = False
        if release_slot:
            state["active_slots"] -= 1
        try_start()

    sample()
    try_start()
    queue.run()
    sample()
    assert state["upgraded"] == total_leaves

    restart_span = state["last_online_time"]
    result.restart_seconds = restart_span
    result.total_seconds = restart_span + profile.deployment_overhead_s
    if restart_span > 0:
        result.mean_availability = 1.0 - state["offline_leaf_seconds"] / (
            restart_span * total_leaves
        )
    return result
