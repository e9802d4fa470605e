"""E18 (extension) — the replica recovery tier.

Defined in :mod:`repro.experiments.e18` (also ``repro bench-restart
--replica-tier``).  Set ``BENCH_E18_JSON`` to a path to archive the
measurements (CI uploads it as ``BENCH_e18.json``).
"""

import pytest

from repro.experiments import e18 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
