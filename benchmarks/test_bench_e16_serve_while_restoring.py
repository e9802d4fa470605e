"""E16 (extension) — serve-while-restoring availability.

Defined in :mod:`repro.experiments.e16` (also ``repro bench-restart
--serve-while-restoring``).  Set ``BENCH_E16_JSON`` to a path to archive
the measurements (CI uploads it as ``BENCH_e16.json``).
"""

import pytest

from repro.experiments import e16 as EXPERIMENT


@pytest.mark.parametrize("name", EXPERIMENT.GATES)
def test_gate(payload, name, check_gate):
    check_gate(payload, name)
