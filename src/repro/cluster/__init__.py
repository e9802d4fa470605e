"""Cluster-level composition: many machines, rolling restarts, dashboard.

This is Section 4.5 of the paper: shutting down and restarting hundreds
of leaf servers, a few percent at a time, while a dashboard tracks how
many servers run the old version, are mid-rollover, and run the new one
(Figure 8).
"""

from repro.cluster.canary import CanaryDeployment, CanaryResult
from repro.cluster.cluster import Cluster
from repro.cluster.dashboard import Dashboard, DashboardSample, render_dashboard
from repro.cluster.deploy import ProcessDeployment
from repro.cluster.monitor import RolloverMonitor, RolloverProgress, format_progress
from repro.cluster.replication import (
    ReplicaBlockServer,
    ReplicaCatalog,
    ReplicaFetchSession,
    snapshot_leafmap,
)
from repro.cluster.rollover import RolloverCoordinator, RolloverResult

__all__ = [
    "CanaryDeployment",
    "CanaryResult",
    "Cluster",
    "ReplicaBlockServer",
    "ReplicaCatalog",
    "ReplicaFetchSession",
    "snapshot_leafmap",
    "Dashboard",
    "DashboardSample",
    "ProcessDeployment",
    "RolloverCoordinator",
    "RolloverMonitor",
    "RolloverProgress",
    "RolloverResult",
    "format_progress",
    "render_dashboard",
]
