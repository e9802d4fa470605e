"""E12 — future work (§6): use the shared memory layout as the disk format.

Paper: "We expect that the much simpler translation to heap memory
format will speed up disk recovery significantly."  Defined in
:mod:`repro.experiments.e12` (also ``repro bench-restart --disk-tier``).
"""

import pytest

from repro.experiments import e12 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
