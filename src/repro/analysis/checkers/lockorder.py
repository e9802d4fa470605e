"""RL7xx — lock-order and atomicity checker.

PR 6 layered a third lock domain onto the tree: the leaf server's
coarse lock, the lazy restorer's internal lock, and the footprint
budget's condition all nest during a serve-while-restoring boot.  Lock
nesting is fine as long as the acquisition *order* is globally
consistent and nothing slow happens inside a critical section; this
checker makes both properties static:

- ``RL701`` the cross-class lock-acquisition graph has a cycle — two
  code paths take the same pair of locks in opposite orders, the
  classic deadlock candidate.
- ``RL702`` a blocking call (budget ``acquire``, ``wait``/``join``,
  shm ``attach``, ``sleep``, pipe ``recv``...) is made while a lock is
  held.  Even when it cannot deadlock, it turns every other user of
  that lock into a queue behind the slow operation — the exact
  availability failure serve-while-restoring exists to avoid.
- ``RL703`` a check-then-act on a service-status gate (``status``,
  ``is_alive``, ``accepts_adds``, ``accepts_queries``) outside the
  owning lock: the status read and the dependent call are two separate
  critical sections, so the leaf can flip between them.  Catching the
  ``StateError`` the re-check raises (the retention idiom) or holding
  the lock across both (the expire idiom) are the accepted fixes.

The lock graph is name-resolved, not type-resolved: a call ``obj.m()``
made under a lock adds edges to the locks acquired by *every* known
class method named ``m``.  That over-approximates (the cost is a rare
justified baseline entry), which is the right direction for a deadlock
checker to be wrong in.  Within a class, locks and lock-held helpers
resolve through its scanned bases (:mod:`repro.analysis.classes`), so
a subclass hook the base calls under its lock is a lock region.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.classes import ClassView, Method, class_views
from repro.analysis.findings import Finding
from repro.analysis.loader import SourceModule, dotted_name, is_self_attr

CHECKER = "lock-order"

#: Method/function terminal names that can block for unbounded time.
#: ``reserve`` is the budget context manager (it acquires on entry);
#: ``attach`` maps a shared-memory segment.
_BLOCKING_NAMES = {
    "acquire",
    "attach",
    "join",
    "recv",
    "reserve",
    "select",
    "sleep",
    "wait",
    "wait_for",
}

#: Service-status gates: the attributes Figure 5 consumers branch on.
_GATE_ATTRS = {"status", "is_alive", "accepts_adds", "accepts_queries"}


@dataclass
class _LockRegion:
    """One ``with self.<lock>:`` body (or a lock-held helper's body)."""

    node: str  # "Class.attr"
    method: Method
    body: list[ast.stmt]
    lock_expr: str  # dotted receiver of the held lock, e.g. "self._cond"


@dataclass
class _Edge:
    src: str
    dst: str
    module: SourceModule
    line: int
    via: str  # the call or with-statement that creates the edge


def _with_locks(node: ast.AST, view: ClassView) -> list[str]:
    """The lock attrs a ``with`` statement takes on ``self``."""
    if not isinstance(node, ast.With):
        return []
    return [
        item.context_expr.attr
        for item in node.items
        if is_self_attr(item.context_expr) and item.context_expr.attr in view.locks
    ]


def _method_locks(view: ClassView) -> dict[str, set[str]]:
    """Method name -> lock nodes it acquires, closed over self-calls."""
    acquired = {
        name: {
            view.locks[attr]
            for node in ast.walk(method.node)
            for attr in _with_locks(node, view)
        }
        for name, method in view.methods.items()
    }
    changed = True
    while changed:
        changed = False
        for call, caller in view.self_calls():
            extra = acquired.get(call.func.attr, set()) - acquired[caller.name]
            if extra:
                acquired[caller.name] |= extra
                changed = True
    return acquired


def _lock_regions(view: ClassView) -> list[_LockRegion]:
    regions: list[_LockRegion] = []
    for name, method in view.methods.items():
        for node in ast.walk(method.node):
            for attr in _with_locks(node, view):
                regions.append(
                    _LockRegion(view.locks[attr], method, node.body, f"self.{attr}")
                )
        held = view.held.get(name)
        if held is not None:
            regions.append(
                _LockRegion(held, method, method.node.body, f"self.{held.rsplit('.', 1)[-1]}")
            )
    return regions


def _receiver_of(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def _scan(modules: list[SourceModule]) -> tuple[list[ClassView], list[Finding], list[_Edge]]:
    """Every class view, the RL702 findings and the lock-order edges."""
    views = [(view, _method_locks(view)) for view in class_views(modules)]
    by_method: dict[str, list[tuple[ClassView, set[str]]]] = {}
    for view, method_locks in views:
        for name, acquired in method_locks.items():
            if acquired:
                by_method.setdefault(name, []).append((view, acquired))
    findings: list[Finding] = []
    edges: list[_Edge] = []
    for view, method_locks in views:
        for region in _lock_regions(view):
            findings.extend(_scan_region(region, view, method_locks, by_method, edges))
    return [view for view, _ in views], findings, edges


def collect_edges(modules: list[SourceModule]) -> list[_Edge]:
    """The static lock-acquisition graph, for reprosan cross-checks."""
    return _scan(modules)[2]


def check(modules: list[SourceModule]) -> list[Finding]:
    views, findings, edges = _scan(modules)
    findings.extend(_find_cycles(edges))
    for module in modules:
        findings.extend(_check_gates(module, views))
    # A method that is both a lock-held helper and takes the lock itself
    # yields overlapping regions, and a base's methods are scanned in
    # every subclass's view; collapse the duplicate findings.
    unique: dict[tuple, Finding] = {}
    for finding in findings:
        unique.setdefault((finding.code, finding.path, finding.symbol, finding.line), finding)
    return list(unique.values())


def _scan_region(
    region: _LockRegion,
    view: ClassView,
    method_locks: dict[str, set[str]],
    by_method: dict[str, list[tuple[ClassView, set[str]]]],
    edges: list[_Edge],
) -> list[Finding]:
    findings: list[Finding] = []
    method = region.method
    module = method.module
    lock_exprs = {f"self.{attr}" for attr in view.locks}
    seen: set[tuple[str, str]] = set()
    for stmt in region.body:
        for node in ast.walk(stmt):
            # Nested `with self.<other_lock>:` — a direct ordering edge.
            for attr in _with_locks(node, view):
                dst = view.locks[attr]
                if dst != region.node:
                    edges.append(
                        _Edge(region.node, dst, module, node.lineno, f"with self.{attr}")
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else None
            receiver = _receiver_of(node)
            # Ordering edges through calls that acquire other locks.
            if name is not None:
                if receiver == "self" and name in method_locks:
                    targets = method_locks[name]
                else:
                    targets = set()
                    for other, acquired in by_method.get(name, []):
                        if receiver == "self" and other is view:
                            continue  # handled above, without name aliasing
                        targets = targets | acquired
                for dst in targets:
                    if dst != region.node:
                        edges.append(
                            _Edge(
                                region.node,
                                dst,
                                module,
                                node.lineno,
                                f"{receiver or ''}.{name}".lstrip("."),
                            )
                        )
            # Blocking calls under the lock.
            if name in _BLOCKING_NAMES:
                if receiver == region.lock_expr:
                    continue  # the condition-wait idiom releases the lock
                if receiver in lock_exprs:
                    continue  # re-acquiring our own (reentrant) lock
                callname = f"{receiver}.{name}" if receiver else (dotted_name(func) or name)
                key = (method.name, callname)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        code="RL702",
                        checker=CHECKER,
                        symbol=f"{method.owner}.{method.name}:{callname}",
                        message=(
                            f"{method.owner}.{method.name} calls "
                            f"blocking {callname}() while holding "
                            f"{region.node} — every other user of the lock "
                            f"queues behind it"
                        ),
                    )
                )
    return findings


def _find_cycles(edges: list[_Edge]) -> list[Finding]:
    graph: dict[str, dict[str, _Edge]] = {}
    for edge in edges:
        graph.setdefault(edge.src, {}).setdefault(edge.dst, edge)
    cycles: dict[str, _Edge] = {}

    def dfs(node: str, stack: list[str], on_stack: set[str]) -> None:
        for nxt, edge in graph.get(node, {}).items():
            if nxt in on_stack:
                cycle = stack[stack.index(nxt) :] + [nxt]
                # Normalize: rotate so the smallest node leads.
                ring = cycle[:-1]
                pivot = ring.index(min(ring))
                normal = ring[pivot:] + ring[:pivot] + [min(ring)]
                cycles.setdefault(" -> ".join(normal), edge)
            elif nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
                on_stack.add(nxt)
                dfs(nxt, stack, on_stack)
                on_stack.discard(nxt)
                stack.pop()

    visited: set[str] = set()
    for start in sorted(graph):
        if start in visited:
            continue
        visited.add(start)
        dfs(start, [start], {start})
    findings = []
    for symbol, edge in sorted(cycles.items()):
        findings.append(
            Finding(
                path=edge.module.relpath,
                line=edge.line,
                code="RL701",
                checker=CHECKER,
                symbol=symbol,
                message=(
                    f"lock-order cycle {symbol} (closing edge via "
                    f"{edge.via} at {edge.module.relpath}:{edge.line}) — "
                    f"two paths take these locks in opposite orders"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# RL703 — check-then-act on status gates
# ----------------------------------------------------------------------


def _gate_reads(test: ast.expr, module: SourceModule) -> list[tuple[str, str]]:
    """(receiver, gate) pairs read as plain attributes in an if-test.

    Method *calls* like ``proc.is_alive()`` are not gates: the property
    read is the snapshot the TOCTOU pattern caches, while a call result
    is understood to be instantaneous either way.
    """
    reads = []
    for node in ast.walk(test):
        if not isinstance(node, ast.Attribute) or node.attr not in _GATE_ATTRS:
            continue
        parent = module.parent(node)
        if isinstance(parent, ast.Call) and parent.func is node:
            continue
        receiver = dotted_name(node.value)
        if receiver is None:
            continue
        reads.append((receiver, node.attr))
    return reads


def _acts_on(receiver: str, stmts: list[ast.stmt]) -> ast.Call | None:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and dotted_name(node.func.value) == receiver
            ):
                return node
    return None


def _act_handles_staleness(call: ast.Call, module: SourceModule) -> bool:
    """Whether the dependent call sits in a try that catches the
    StateError the under-lock re-check raises."""
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if not isinstance(ancestor, ast.Try):
            continue
        for handler in ancestor.handlers:
            if handler.type is None:
                return True
            names = [
                dotted_name(t) or ""
                for t in (
                    handler.type.elts
                    if isinstance(handler.type, ast.Tuple)
                    else [handler.type]
                )
            ]
            if any(
                n.rsplit(".", 1)[-1] in ("StateError", "Exception", "BaseException")
                for n in names
            ):
                return True
    return False


def _under_own_lock(node: ast.If, cls: ast.ClassDef, view: ClassView, module) -> bool:
    """Whether ``node`` runs inside ``cls``'s lock or a lock-held helper."""
    fn = next(
        (a for a in module.ancestors(node) if module.parent(a) is cls),
        None,
    )
    method = view.methods.get(getattr(fn, "name", None))
    if method is None or method.node is not fn:
        return False
    return method.lock_at(node, view.locks) is not None or method.name in view.held


def _check_gates(module: SourceModule, views: list[ClassView]) -> list[Finding]:
    view_of = {view.cls: view for view in views}
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.If):
            continue
        reads = _gate_reads(node.test, module)
        if not reads:
            continue
        # Suppress gates already inside the owning class's lock (or in a
        # lock-held helper): the check and the act share the section.
        cls = next(
            (a for a in module.ancestors(node) if isinstance(a, ast.ClassDef)),
            None,
        )
        if cls in view_of and _under_own_lock(node, cls, view_of[cls], module):
            continue
        fn = module.enclosing_function(node)
        fn_name = getattr(fn, "name", "<module>")
        if cls is not None:
            fn_name = f"{cls.name}.{fn_name}"
        # The act: a call on the same receiver in the branch bodies or in
        # the rest of the enclosing block (the early-continue shape).
        parent = module.parent(node)
        following: list[ast.stmt] = []
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(parent, attr, None)
            if isinstance(block, list) and node in block:
                following = block[block.index(node) + 1 :]
                break
        for receiver, gate in reads:
            act = (
                _acts_on(receiver, node.body)
                or _acts_on(receiver, node.orelse)
                or _acts_on(receiver, following)
            )
            if act is None:
                continue
            if _act_handles_staleness(act, module):
                continue
            findings.append(
                Finding(
                    path=module.relpath,
                    line=node.lineno,
                    code="RL703",
                    checker=CHECKER,
                    symbol=f"{fn_name}:{receiver}.{gate}",
                    message=(
                        f"{fn_name} branches on {receiver}.{gate} and then "
                        f"calls into {receiver} outside the owning lock — "
                        f"the status can flip between check and act; hold "
                        f"the lock or catch the StateError re-check"
                    ),
                )
            )
    return findings
