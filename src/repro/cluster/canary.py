"""Canary deployments of experimental builds (paper, §6).

"Furthermore, this fast rollover path allows us to deploy experimental
software builds on a handful of machines, which we could not do if it
took longer.  We can add more logging, test bug fixes, and try new
software designs — and then revert the changes if we wish."

:class:`CanaryDeployment` upgrades the leaves of a few machines to an
experimental version through shared memory, runs caller-supplied
validation against the mixed-version cluster, and either promotes the
build to the whole fleet or reverts the canaries — each transition being
just another fast restart, which is why the workflow is viable at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.cluster import Cluster
from repro.errors import StateError
from repro.server.machine import Machine


@dataclass
class CanaryResult:
    """Outcome of one canary evaluation."""

    experimental_version: str
    baseline_version: str
    canary_machines: list[str] = field(default_factory=list)
    validations_passed: int = 0
    validations_failed: int = 0
    outcome: str = "pending"  # "promoted" | "reverted" | "pending"

    @property
    def healthy(self) -> bool:
        return self.validations_failed == 0


class CanaryDeployment:
    """Runs an experimental build on a handful of machines."""

    def __init__(
        self,
        cluster: Cluster,
        experimental_version: str,
        n_canary_machines: int = 1,
    ) -> None:
        if n_canary_machines < 1:
            raise ValueError("need at least one canary machine")
        if n_canary_machines >= len(cluster.machines):
            raise ValueError(
                "canaries must be a strict subset of the cluster "
                f"({n_canary_machines} of {len(cluster.machines)} machines requested)"
            )
        self.cluster = cluster
        self.experimental_version = experimental_version
        self._canaries: list[Machine] = list(cluster.machines[:n_canary_machines])
        versions = {leaf.version for leaf in cluster.leaves}
        if len(versions) != 1:
            raise StateError(
                f"cluster must be on one version to canary (found {sorted(versions)})"
            )
        self.baseline_version = versions.pop()
        self._deployed = False

    def _restart_machine_to(self, machine: Machine, version: str) -> None:
        """Restart a machine's leaves one at a time through shared
        memory (the §4.2 one-leaf-per-machine rule)."""
        for leaf in machine.leaves:
            leaf.shutdown(use_shm=True)
            leaf.version = version
            leaf.start()

    def deploy(self) -> None:
        """Put the experimental build on the canary machines."""
        if self._deployed:
            raise StateError("canary is already deployed")
        for machine in self._canaries:
            self._restart_machine_to(machine, self.experimental_version)
        self._deployed = True

    def evaluate(
        self,
        validations: list[Callable[[Cluster], bool]],
        promote_on_success: bool = False,
    ) -> CanaryResult:
        """Run validations against the mixed-version cluster and either
        revert the canaries (default, or on any failure) or promote the
        experimental build fleet-wide."""
        if not self._deployed:
            raise StateError("deploy() the canary before evaluating it")
        result = CanaryResult(
            experimental_version=self.experimental_version,
            baseline_version=self.baseline_version,
            canary_machines=[machine.machine_id for machine in self._canaries],
        )
        for validate in validations:
            try:
                ok = bool(validate(self.cluster))
            except Exception:
                ok = False
            if ok:
                result.validations_passed += 1
            else:
                result.validations_failed += 1
        if result.healthy and promote_on_success:
            for machine in self.cluster.machines:
                if machine in self._canaries:
                    continue
                self._restart_machine_to(machine, self.experimental_version)
            result.outcome = "promoted"
        else:
            for machine in self._canaries:
                self._restart_machine_to(machine, self.baseline_version)
            result.outcome = "reverted"
        self._deployed = False
        return result
