"""Every name the ledger traces resolves in ``repro``: a deleted or
renamed target fails here, not only when the ledger runs.

``benchmarks/ledger/layers.py`` is loaded by file path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("ledger_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    missing = []
    for module_name, class_name, attrs in _targets():
        owner = importlib.import_module(f"repro.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        for attr in attrs.split():
            if owner is None or not hasattr(owner, attr):
                missing.append(".".join(filter(None, ("repro", module_name, class_name, attr))))
    assert not missing, missing
