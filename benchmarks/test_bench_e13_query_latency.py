"""E13 — the motivating latency gap: queries vs recovery.

Paper (§1): queries "typically run in under a second over GBs of data";
recovery is "about 4 orders of magnitude longer".  Defined in
:mod:`repro.experiments.e13` (also ``repro bench-query``).
"""

import pytest

from repro.experiments import e13 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
