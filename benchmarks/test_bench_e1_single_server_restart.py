"""E1 — restart one server: disk vs shared memory.

Paper (§1, §6): disk recovery takes 2.5-3 hours per machine; shared
memory recovery takes 2-3 minutes per server — roughly a 60x gap.
Defined in :mod:`repro.experiments.e1` (also ``repro bench-restart``).
"""

import pytest

from repro.experiments import e1 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
