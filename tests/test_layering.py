"""The import graph against the layering DESIGN.md draws.

DESIGN §4 orders the packages of ``src/repro``; a package may import
only from packages drawn to its left.  The order is parsed out of the
document's code block, so the drawing and this check cannot drift, and
every ``import`` / ``from … import`` in the tree is walked with ``ast`` —
function-level and ``TYPE_CHECKING`` ones included, since a type-only
import names the dependency just as surely as a runtime one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
#: The facade and the entry point sit on top of every layer by design.
ROOT_MODULES = {"__init__", "__main__"}


def drawn_order() -> dict[str, int]:
    """Layer name -> rank, from the code block of DESIGN §4 (``a → b``:
    ``b`` may import ``a``; ``{a, b}``: peers that import neither)."""
    design = (REPO / "DESIGN.md").read_text()
    section = design[design.index("## 4. Layering") :]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    ranks: dict[str, int] = {}
    for rank, group in enumerate(" ".join(block.split()).split("→")):
        for name in group.strip(" {}").split(","):
            ranks[name.strip()] = rank
    return ranks


def layer_of(path: Path) -> str:
    """``core`` for ``core/engine.py``, ``cli`` for ``cli.py``."""
    relative = path.relative_to(PACKAGE)
    return relative.parts[0] if len(relative.parts) > 1 else relative.stem


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, absolute dotted module) for every import statement in
    ``path``; ``from repro import x`` counts as ``repro.x``."""
    package = ("repro", *path.relative_to(PACKAGE).parts[:-1])
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            if module == "repro":
                found += [(node.lineno, f"repro.{alias.name}") for alias in node.names]
            else:
                found.append((node.lineno, module))
    return found


def package_edges() -> list[tuple[str, str, str]]:
    """(importing layer, imported layer, ``file:line``) across layers."""
    edges = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = layer_of(path)
        if source in ROOT_MODULES:
            continue
        for line, module in imported_modules(path):
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] != source:
                where = f"{path.relative_to(REPO)}:{line}"
                edges.append((source, parts[1], where))
    return edges


def test_every_package_is_drawn():
    layers = {layer_of(path) for path in PACKAGE.rglob("*.py")} - ROOT_MODULES
    assert layers - set(drawn_order()) == set()


def test_no_import_points_up_the_drawn_order():
    ranks = drawn_order()
    upward = [
        f"{source} → {target} ({where})"
        for source, target, where in package_edges()
        if ranks[target] >= ranks[source]
    ]
    assert upward == []
