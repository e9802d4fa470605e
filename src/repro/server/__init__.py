"""Leaf and aggregator servers (paper, Section 2).

"Each machine currently runs eight leaf servers and one aggregator
server.  The leaf servers store the data. [...] The aggregator servers
distribute a query to all leaves and then aggregate the results as they
arrive from the leaves."
"""

from repro.server.aggregator import Aggregator
from repro.server.leaf import LeafServer, LeafStatus
from repro.server.machine import (
    DEFAULT_LEAVES_PER_MACHINE,
    Machine,
    ParallelRestartReport,
    RestartOutcome,
)
from repro.server.process_client import LeafProcess, LeafProcessConfig
from repro.server.retention import RetentionEnforcer, RetentionPolicy, RetentionReport

__all__ = [
    "Aggregator",
    "DEFAULT_LEAVES_PER_MACHINE",
    "LeafProcess",
    "LeafProcessConfig",
    "LeafServer",
    "LeafStatus",
    "Machine",
    "ParallelRestartReport",
    "RestartOutcome",
    "RetentionEnforcer",
    "RetentionPolicy",
    "RetentionReport",
]
