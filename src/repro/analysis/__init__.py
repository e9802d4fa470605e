"""reprolint — AST-based invariant verifier for the restart pipeline.

Two checkers, each for an invariant family no tier-1 test can fail
on (a race, a lock held across a slow call); format drift,
state-machine edges, ladder routing, budget balance and leaked handles
fail a test, so the tests catch them at runtime:

================  ======  ==============================================
checker           codes   invariant
================  ======  ==============================================
guarded-by        RL3xx   lock-owning classes touch shared state only
                          under the lock
lock-order        RL7xx   one global lock order, nothing blocking under
                          a lock, no check-then-act on a status gate
================  ======  ==============================================

Run it as ``repro lint`` or ``python -m repro.cli lint``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.loader import SourceModule, load_files, load_modules
from repro.analysis.runner import (
    LintResult,
    render_json,
    render_text,
    run_lint,
    write_baseline,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintResult",
    "SourceModule",
    "load_files",
    "load_modules",
    "render_json",
    "render_text",
    "run_lint",
    "sort_findings",
    "write_baseline",
]
