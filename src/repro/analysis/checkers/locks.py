"""RL3xx — guarded-by lock discipline checker.

A class that owns a ``threading.Lock``/``RLock``/``Condition`` has
declared that its mutable state is shared; every method that touches
that state outside a ``with self._lock:`` block is a race waiting for a
parallel restart to find it (the machine-wide tracker and budget of
PR 1 are exactly such objects).  Two findings:

- ``RL301`` a write (assign, augment, subscript store, or mutating
  method call) to a shared attribute outside the lock.
- ``RL302`` a read of a shared attribute outside the lock.

What counts as *shared* is inferred, not annotated: any ``self.X``
assigned outside ``__init__``/``__post_init__`` (state that changes
after construction), plus container attributes mutated in place.
Attributes assigned only at construction are configuration and exempt.

Private helpers whose every call site is lock-guarded are treated as
lock-held (the ``_after_change`` idiom) — the discipline is "hold the
lock when you get here", which the call-graph closure checks.  Locks,
shared attributes and helpers resolve through the class's scanned
bases (:mod:`repro.analysis.classes`): a subclass hook the base calls
under its lock is lock-held, and a subclass method touching the base's
shared state is held to the base's lock.
"""

from __future__ import annotations

import ast

from repro.analysis.classes import ClassView, class_views
from repro.analysis.findings import Finding
from repro.analysis.loader import SourceModule, is_self_attr

CHECKER = "guarded-by"

_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
}
_CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}


def _shared_attrs_of(view: ClassView) -> set[str]:
    shared: set[str] = set()
    for method in view.methods.values():
        if method.name in _CONSTRUCTORS:
            continue
        for node in ast.walk(method.node):
            # self.X = ... / self.X += ...
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if is_self_attr(target):
                        shared.add(target.attr)
                    # self.X[k] = ...
                    if isinstance(target, ast.Subscript) and is_self_attr(target.value):
                        shared.add(target.value.attr)
            # self.X.append(...) and friends
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and is_self_attr(node.func.value)
            ):
                shared.add(node.func.value.attr)
    return shared - set(view.locks)


def _is_store(node: ast.Attribute, module: SourceModule) -> bool:
    if isinstance(node.ctx, (ast.Store, ast.Del)):
        return True
    parent = module.parent(node)
    if isinstance(parent, ast.Attribute) and parent.value is node:
        # receiver of a method call: mutating methods are writes
        grand = module.parent(parent)
        return (
            isinstance(grand, ast.Call)
            and grand.func is parent
            and parent.attr in _MUTATING_METHODS
        )
    return isinstance(parent, ast.Subscript) and isinstance(parent.ctx, (ast.Store, ast.Del))


def check(modules: list[SourceModule]) -> list[Finding]:
    # A base's methods are checked in every subclass's view too; the
    # finding is the defining class's, once.
    findings: dict[tuple, Finding] = {}
    for view in class_views(modules):
        shared = _shared_attrs_of(view)
        lock = sorted(view.locks)[0]
        for method in view.methods.values():
            if method.name in _CONSTRUCTORS or method.name in view.held:
                continue
            for node in ast.walk(method.node):
                if not is_self_attr(node) or node.attr not in shared:
                    continue
                if method.lock_at(node, view.locks) is not None:
                    continue
                is_store = _is_store(node, method.module)
                code = "RL301" if is_store else "RL302"
                symbol = f"{method.owner}.{method.name}:{node.attr}"
                key = (code, method.module.relpath, symbol, node.lineno)
                if key in findings:
                    continue
                action = "writes" if is_store else "reads"
                findings[key] = Finding(
                    path=method.module.relpath,
                    line=node.lineno,
                    code=code,
                    checker=CHECKER,
                    symbol=symbol,
                    message=(
                        f"{method.owner}.{method.name} {action} shared attribute "
                        f"'{node.attr}' outside `with self.{lock}:`"
                    ),
                )
    return list(findings.values())
