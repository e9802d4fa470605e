"""Source discovery and parsing for reprolint.

Checkers never import the code under analysis — everything is stdlib
``ast`` over the files on disk, so the linter can examine a tree whose
code would not even import (which is exactly when invariants drift).

A :class:`SourceModule` bundles the parsed tree with the repo-relative
path used in findings and baselines, plus a parent map so checkers can
walk *up* from a node (``ast`` only links downward).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: The subsystems whose invariants the checkers understand.  ``cli.py``
#: and the analysis package itself are deliberately excluded: the linter
#: must stay runnable on a tree whose only breakage is in the code it
#: lints.
DEFAULT_SCAN_DIRS = (
    "src/repro/shm",
    "src/repro/disk",
    "src/repro/core",
    "src/repro/util",
    "src/repro/server",
)


@dataclass
class SourceModule:
    """One parsed source file."""

    path: Path
    """Absolute path on disk."""
    relpath: str
    """Repo-relative posix path (the one findings carry)."""
    tree: ast.Module
    text: str
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: str | Path, relpath: str | None = None) -> "SourceModule":
        path = Path(path)
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        rel = relpath if relpath is not None else path.name
        module = cls(path=path, relpath=rel, tree=tree, text=text)
        module._index_parents()
        return module

    def _index_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module itself)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None


def load_modules(
    root: str | Path,
    scan_dirs: Iterable[str] = DEFAULT_SCAN_DIRS,
) -> list[SourceModule]:
    """Parse every ``.py`` file under ``root``'s scan directories.

    Files that fail to parse are skipped silently here — a tree with
    syntax errors cannot be linted for semantic invariants, and the
    ordinary toolchain reports syntax errors far better than we would.
    """
    root = Path(root)
    modules: list[SourceModule] = []
    for rel_dir in scan_dirs:
        base = root / rel_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            try:
                modules.append(SourceModule.parse(path, rel))
            except SyntaxError:
                continue
    return modules


def load_files(paths: Iterable[str | Path], root: str | Path | None = None) -> list[SourceModule]:
    """Parse an explicit list of files (fixtures, ad-hoc scans)."""
    modules = []
    for path in paths:
        path = Path(path)
        if root is not None:
            rel = path.resolve().relative_to(Path(root).resolve()).as_posix()
        else:
            rel = path.name
        modules.append(SourceModule.parse(path, rel))
    return modules


# ----------------------------------------------------------------------
# Small AST conveniences shared by checkers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    """Whether ``node`` is ``self.X`` (optionally a specific ``X``)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )
