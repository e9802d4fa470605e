"""E17 — incremental delta snapshots and parallel legacy replay.

Defined in :mod:`repro.experiments.e17` (also ``repro bench-restart
--incremental``).  The process-replay floor is skipped, with the
measured ratio, on hosts with fewer than 4 cores.  Set
``BENCH_E17_JSON=<path>`` to dump the measurements (a CI artifact).
"""

import pytest

from repro.experiments import e17 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
