"""RL6xx — resource-balance checker for paired charge/release APIs.

The paper's Section 4.3 footprint invariant — heap + shm must never
exceed one copy of the data — only holds if every *logical* charge is
eventually released: ``MemoryTracker.allocate`` balanced by ``free`` in
the same region, ``FootprintBudget.acquire`` balanced by ``release``,
the decoded-column cache's ``_charge`` balanced by ``_discharge``, and
the engine's ``_track_heap_alloc`` balanced by ``_track_heap_free``.
PRs 2, 5 and 6 each shipped (and then fixed by hand) a path where an
exception escaped between the charge and the release; this checker
encodes that class of bug the way RL4xx encodes segment-handle leaks.

A charge is *paired* with a release when both use the same API family,
the same receiver expression, and (for the tracker) the same region
label.  Three codes:

- ``RL601`` a charge whose API family has **no matching release
  anywhere in the module** — charged and never freed.  A release in a
  different function of the same module is a *handoff* (the
  ``_publish_directory`` → ``_finish_source`` idiom) and does not fire.
- ``RL602`` a charge released on the normal path of the **same
  function**, but leaked if an exception fires between the charge and
  the release: no enclosing ``finally``/handler releases it and no
  immediately-following ``try/finally`` covers it.
- ``RL603`` a budget ``reserve(...)`` context manager called outside a
  ``with`` statement — the pairing the context manager guarantees never
  engages.

Suppression: a charge statement carrying a ``# reprolint: handoff``
comment on its line is treated as a documented ownership transfer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.loader import SourceModule, dotted_name

CHECKER = "resource-balance"

#: method name -> (pair key, matching release method names)
_CHARGE_METHODS = {
    "allocate": ("tracker", {"free"}),
    "acquire": ("budget", {"release"}),
    "_charge": ("cache", {"_discharge"}),
    "_track_heap_alloc": ("heap", {"_track_heap_free"}),
}
_RELEASE_METHODS = {
    "free": "tracker",
    "release": "budget",
    "_discharge": "cache",
    "_track_heap_free": "heap",
}
#: Receiver-name fragments that identify the charged object, so that
#: ``connection.acquire()`` on some unrelated class is not mistaken for
#: a budget charge.  The fragment is matched against the last component
#: of the receiver's dotted name, lowercased.
_RECEIVER_HINTS = {
    "tracker": ("tracker",),
    "budget": ("budget",),
}

_HANDOFF_PRAGMA = "reprolint: handoff"


@dataclass
class _Charge:
    call: ast.Call
    stmt: ast.stmt
    family: str  # tracker | budget | cache | heap
    receiver: str  # dotted receiver expression, "" when none
    region: str | None  # tracker region literal, None = any
    api: str  # full dotted call name, for messages/symbols
    releases: frozenset[str]


def _receiver_of(call: ast.Call) -> str:
    """The dotted name of the object a method call is made on."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value) or ""
    return ""


def _region_of(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        if isinstance(call.args[0].value, str):
            return call.args[0].value
    return None


def _receiver_matches(family: str, receiver: str) -> bool:
    hints = _RECEIVER_HINTS.get(family)
    if hints is None:
        return True  # _charge/_track_heap_alloc are unambiguous names
    terminal = receiver.rsplit(".", 1)[-1].lower()
    return any(hint in terminal for hint in hints)


def _classify_charge(call: ast.Call) -> _Charge | None:
    if not isinstance(call.func, ast.Attribute):
        return None
    method = call.func.attr
    entry = _CHARGE_METHODS.get(method)
    if entry is None:
        return None
    family, releases = entry
    receiver = _receiver_of(call)
    if not _receiver_matches(family, receiver):
        return None
    region = _region_of(call) if family == "tracker" else None
    return _Charge(
        call=call,
        stmt=None,  # filled by the caller
        family=family,
        receiver=receiver,
        region=region,
        api=dotted_name(call.func) or method,
        releases=frozenset(releases),
    )


def _is_matching_release(node: ast.AST, charge: _Charge) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr not in charge.releases:
        return False
    if _receiver_of(node) != charge.receiver:
        return False
    if charge.family == "tracker" and charge.region is not None:
        region = _region_of(node)
        if region is not None and region != charge.region:
            return False
    return True


def _releases_in(part: list[ast.stmt] | ast.stmt, charge: _Charge) -> bool:
    stmts = part if isinstance(part, list) else [part]
    for stmt in stmts:
        for node in ast.walk(stmt):
            if _is_matching_release(node, charge):
                return True
    return False


def _enclosing_stmt(node: ast.AST, module: SourceModule) -> ast.stmt | None:
    current: ast.AST | None = node
    while current is not None and not isinstance(current, ast.stmt):
        current = module.parent(current)
    return current if isinstance(current, ast.stmt) else None


def _has_handoff_pragma(charge: _Charge, module: SourceModule) -> bool:
    lines = module.text.splitlines()
    lineno = charge.call.lineno
    if 1 <= lineno <= len(lines):
        return _HANDOFF_PRAGMA in lines[lineno - 1]
    return False


def _block_of(stmt: ast.stmt, module: SourceModule) -> tuple[list[ast.stmt], int] | None:
    """The statement list containing ``stmt`` and its index in it."""
    parent = module.parent(stmt)
    for field_name in ("body", "orelse", "finalbody"):
        block = getattr(parent, field_name, None)
        if isinstance(block, list) and stmt in block:
            return block, block.index(stmt)
    return None


def _is_glue(stmt: ast.stmt) -> bool:
    """A statement that cannot plausibly raise between charge and cover."""
    if isinstance(stmt, (ast.Pass, ast.AnnAssign)):
        return not any(isinstance(n, ast.Call) for n in ast.walk(stmt))
    if isinstance(stmt, (ast.Assign, ast.AugAssign)):
        return not any(isinstance(n, ast.Call) for n in ast.walk(stmt))
    return False


def _followup_cover(charge: _Charge, module: SourceModule, boundary: ast.AST | None) -> str:
    """Scan the statements after the charge for a covering ``try``.

    Walks forward through glue statements; climbs out of enclosing
    ``if``/``with`` blocks up to ``boundary`` (the enclosing ``try`` or
    the function).  Returns ``"covered"`` when a following ``try``
    releases the charge in its ``finally`` (or in every handler),
    ``"vacuous"`` when the next effective statement *is* the release,
    and ``"open"`` otherwise.
    """
    stmt = charge.stmt
    while True:
        located = _block_of(stmt, module)
        if located is None:
            return "open"
        block, index = located
        for following in block[index + 1 :]:
            if _is_glue(following):
                continue
            if isinstance(following, ast.Try):
                if following.finalbody and _releases_in(following.finalbody, charge):
                    return "covered"
                if following.handlers and all(
                    _releases_in(h.body, charge) or _handler_only_raises(h)
                    for h in following.handlers
                ):
                    return "covered"
                return "open"
            if _releases_in(following, charge) and not any(
                _classify_charge(n) for n in ast.walk(following)
                if isinstance(n, ast.Call)
            ):
                # The very next effective statement releases: nothing can
                # fire in between.
                return "vacuous"
            return "open"
        # Block exhausted without risk: climb to the enclosing statement
        # (an if/with/for body ending right after the charge).
        parent = module.parent(stmt)
        while parent is not None and not isinstance(parent, ast.stmt):
            parent = module.parent(parent)
        if parent is None or parent is boundary or isinstance(
            parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Try)
        ):
            return "open"
        stmt = parent


def _handler_only_raises(handler: ast.ExceptHandler) -> bool:
    return len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise)


def _exception_edge(charge: _Charge, fn: ast.AST, module: SourceModule) -> str:
    """Classify the exception-edge coverage of a charge.

    An escaping exception unwinds through every enclosing ``try`` in
    turn, so the charge is covered if the statements right after it
    form a covering ``try``/release, or if *any* enclosing level
    releases it in a ``finally`` or in all of its handlers.  A level
    whose handlers can swallow the exception without releasing stops
    the walk: outer coverage never runs.  Returns ``"covered"`` or
    ``"leak"``.
    """
    if _followup_cover(charge, module, boundary=fn) in ("covered", "vacuous"):
        return "covered"
    for trynode in module.ancestors(charge.stmt):
        if not isinstance(trynode, ast.Try):
            if isinstance(trynode, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            continue
        if charge.stmt in _flat(trynode.finalbody):
            continue  # charged inside the finally: no edge at this level
        if trynode.finalbody and _releases_in(trynode.finalbody, charge):
            return "covered"
        if charge.stmt in _flat(trynode.body) and trynode.handlers:
            if all(
                _releases_in(h.body, charge) or _handler_only_raises(h)
                for h in trynode.handlers
            ):
                return "covered"
            return "leak"  # a handler may swallow without releasing
        # Finally-only try (or charged in a handler/orelse): the
        # exception keeps unwinding — consult the next level out.
    return "leak"


def _flat(stmts: list[ast.stmt]) -> list[ast.stmt]:
    out: list[ast.stmt] = []
    for s in stmts:
        out.append(s)
        for sub in ast.walk(s):
            if isinstance(sub, ast.stmt):
                out.append(sub)
    return out


def _in_with_item(call: ast.Call, module: SourceModule) -> bool:
    parent = module.parent(call)
    return isinstance(parent, ast.withitem) and parent.context_expr is call


def _module_releases(module: SourceModule, charge: _Charge) -> bool:
    for node in ast.walk(module.tree):
        if _is_matching_release(node, charge):
            return True
    return False


def _function_releases(fn: ast.AST, charge: _Charge) -> bool:
    return _releases_in(list(getattr(fn, "body", [])), charge)


def check(modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        findings.extend(_check_reserve_misuse(module))
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            findings.extend(_check_function(module, fn))
    return findings


def _check_reserve_misuse(module: SourceModule) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "reserve":
            continue
        receiver = _receiver_of(node)
        if not _receiver_matches("budget", receiver):
            continue
        if _in_with_item(node, module):
            continue
        fn = module.enclosing_function(node)
        fn_name = getattr(fn, "name", "<module>")
        findings.append(
            Finding(
                path=module.relpath,
                line=node.lineno,
                code="RL603",
                checker=CHECKER,
                symbol=f"{fn_name}:{dotted_name(node.func) or 'reserve'}",
                message=(
                    f"{fn_name} calls {receiver or 'the budget'}.reserve() "
                    f"outside a `with` statement — the context manager's "
                    f"acquire/release pairing never engages"
                ),
            )
        )
    return findings


def _check_function(module: SourceModule, fn: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    fn_name = getattr(fn, "name", "?")
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if module.enclosing_function(node) is not fn:
            continue
        charge = _classify_charge(node)
        if charge is None:
            continue
        stmt = _enclosing_stmt(node, module)
        if stmt is None:
            continue
        charge.stmt = stmt
        if _in_with_item(node, module):
            continue
        if _has_handoff_pragma(charge, module):
            continue
        region = f":{charge.region}" if charge.region else ""
        symbol = f"{fn_name}:{charge.api}{region}"
        if not _module_releases(module, charge):
            findings.append(
                Finding(
                    path=module.relpath,
                    line=node.lineno,
                    code="RL601",
                    checker=CHECKER,
                    symbol=symbol,
                    message=(
                        f"{fn_name} charges via {charge.api}"
                        f"{f' (region {charge.region!r})' if charge.region else ''} "
                        f"but nothing in this module ever releases the "
                        f"{charge.family} pair — charged and never freed"
                    ),
                )
            )
            continue
        if not _function_releases(fn, charge):
            # Released elsewhere in the module: a cross-method handoff
            # (the publish/finish idiom); lifetime is the class's problem.
            continue
        if _exception_edge(charge, fn, module) == "leak":
            findings.append(
                Finding(
                    path=module.relpath,
                    line=node.lineno,
                    code="RL602",
                    checker=CHECKER,
                    symbol=symbol,
                    message=(
                        f"{fn_name} releases the {charge.api} charge on the "
                        f"normal path but leaks it on the exception edge: no "
                        f"finally, covering handler, or immediate try/finally "
                        f"between the charge and its release"
                    ),
                )
            )
    return findings
