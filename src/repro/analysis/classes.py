"""Classes as their instances see them: the lock checkers' shared model.

A lock created in a base class's ``__init__`` guards its subclasses'
code too, and a subclass hook the base calls under that lock runs
lock-held (``RestoreDriver`` calling ``LazyRestore._release_blocks``).
:func:`class_views` resolves each scanned class's bases by name among
the scanned classes (a base outside the scan, stdlib or generic,
contributes nothing) and gives RL3xx and RL7xx one view per class that
owns or inherits a lock: its locks, its methods after overriding, and
the private helpers that only ever run with a lock held.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.loader import SourceModule, dotted_name, is_self_attr

#: Terminal factory names that create an in-process lock.  Matched on
#: the last component so ``threading.RLock``, ``ctx.Lock`` (a
#: multiprocessing context), and a bare imported ``Condition`` all hit.
_LOCK_TERMINALS = {"Lock", "RLock", "Condition"}


def _terminal(node: ast.AST) -> str:
    return (dotted_name(node) or "").rsplit(".", 1)[-1]


def _creates_lock(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _terminal(node.func) in _LOCK_TERMINALS


def own_lock_sites(cls: ast.ClassDef) -> Iterator[tuple[str, ast.stmt]]:
    """``(attr, statement)`` for every lock ``cls``'s own body creates:
    ``self.X = threading.RLock()`` anywhere, or a dataclass field whose
    ``default_factory`` makes one (``lambda: threading.RLock()`` defers
    the lookup to instance creation, the reprosan late-binding form)."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _creates_lock(node.value):
            for target in node.targets:
                if is_self_attr(target):
                    yield target.attr, node
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.value, ast.Call)
            and dotted_name(node.value.func) == "field"
        ):
            for kw in node.value.keywords:
                factory = kw.value
                if kw.arg == "default_factory" and (
                    _creates_lock(factory.body)
                    if isinstance(factory, ast.Lambda)
                    else _terminal(factory) in _LOCK_TERMINALS
                ):
                    yield node.target.id, node


@dataclass(frozen=True)
class Method:
    """A method as a class resolves it, possibly inherited."""

    node: ast.FunctionDef
    owner: str
    """The class that defines it: findings anchor there."""
    module: SourceModule

    @property
    def name(self) -> str:
        return self.node.name

    def lock_at(self, node: ast.AST, locks: dict[str, str]) -> str | None:
        """The attr of a ``with self.<lock>:`` around ``node``, if any."""
        for ancestor in self.module.ancestors(node):
            if ancestor is self.node:
                return None
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    expr = item.context_expr
                    if is_self_attr(expr) and expr.attr in locks:
                        return expr.attr
        return None


@dataclass
class ClassView:
    """One class with everything it inherits from scanned bases."""

    cls: ast.ClassDef
    methods: dict[str, Method]
    locks: dict[str, str]
    """Lock attribute -> its graph node, ``"<creating class>.<attr>"``."""
    held: dict[str, str] = field(default_factory=dict)
    """Private helper -> the lock node every one of its callers holds."""

    def self_calls(self) -> Iterator[tuple[ast.Call, Method]]:
        """Every ``self.m(...)`` call in the view's methods, with its caller."""
        for method in self.methods.values():
            for node in ast.walk(method.node):
                if isinstance(node, ast.Call) and is_self_attr(node.func):
                    yield node, method

    def _find_held(self) -> None:
        """Private methods whose every call site holds one lock, directly
        or from inside another such method (the ``_fault_block`` idiom)."""
        sites: dict[str, list[tuple[ast.Call, Method]]] = {}
        for call, caller in self.self_calls():
            sites.setdefault(call.func.attr, []).append((call, caller))
        changed = True
        while changed:
            changed = False
            for name in self.methods:
                if name in self.held or not name.startswith("_") or name.startswith("__"):
                    continue
                locks = set()
                for call, caller in sites.get(name, ()):
                    attr = caller.lock_at(call, self.locks)
                    if attr is not None:
                        locks.add(self.locks[attr])
                    elif caller.name in self.held:
                        locks.add(self.held[caller.name])
                    else:
                        break
                else:
                    if len(locks) == 1:
                        self.held[name] = locks.pop()
                        changed = True


def _lineage(cls: ast.ClassDef, module: SourceModule, classes: dict) -> list:
    """``(class, module)`` for ``cls`` and its scanned bases, depth-first
    and left to right (no diamond in the scanned tree needs C3)."""
    order: list[tuple[ast.ClassDef, SourceModule]] = []
    stack = [(cls, module)]
    while stack:
        current = stack.pop()
        if any(current[0] is seen for seen, _ in order):
            continue
        order.append(current)
        bases = [classes.get(_terminal(base)) for base in current[0].bases]
        stack.extend(reversed([base for base in bases if base is not None]))
    return order


def class_views(modules: list[SourceModule]) -> list[ClassView]:
    """A view of every scanned class that owns or inherits a lock."""
    found = [
        (cls, module)
        for module in modules
        for cls in ast.walk(module.tree)
        if isinstance(cls, ast.ClassDef)
    ]
    classes: dict[str, tuple[ast.ClassDef, SourceModule]] = {}
    for cls, module in found:
        classes.setdefault(cls.name, (cls, module))
    views = []
    for cls, module in found:
        methods: dict[str, Method] = {}
        locks: dict[str, str] = {}
        # Bases first, so the subclass's own definitions win.
        for owner, owner_module in reversed(_lineage(cls, module, classes)):
            for item in owner.body:
                if isinstance(item, ast.FunctionDef):
                    methods[item.name] = Method(item, owner.name, owner_module)
            for attr, _ in own_lock_sites(owner):
                locks[attr] = f"{owner.name}.{attr}"
        if locks:
            view = ClassView(cls, methods, locks)
            view._find_held()
            views.append(view)
    return views
