"""Checker registry for reprolint.

Each checker module exposes ``CHECKER`` (its display name) and
``check(modules) -> list[Finding]``.  The registry maps name -> check
function so the runner and the CLI ``--checker`` filter share one list.
"""

from __future__ import annotations

from repro.analysis.checkers import lifecycle, lockorder, locks

CHECKERS = {
    locks.CHECKER: locks.check,
    lifecycle.CHECKER: lifecycle.check,
    lockorder.CHECKER: lockorder.check,
}

__all__ = ["CHECKERS", "lifecycle", "lockorder", "locks"]
