"""E15 — parallel machine restart: worker sweep and bandwidth ceiling.

Defined in :mod:`repro.experiments.e15` (also ``repro bench-restart
--workers N``).  The two wall-clock floors are skipped, with the
measured ratio, on hosts with fewer than 4 cores.
"""

import pytest

from repro.experiments import e15 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
