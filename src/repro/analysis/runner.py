"""Orchestration for reprolint: load, check, baseline, render.

This is the layer the CLI talks to; tests mostly drive the individual
checkers directly and use :func:`run_lint` only for end-to-end cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.baseline import Baseline, BaselineEntry, BaselineMatch, is_todo
from repro.analysis.checkers import CHECKERS
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.loader import DEFAULT_SCAN_DIRS, load_modules

DEFAULT_BASELINE = "src/repro/analysis/baseline.json"


@dataclass
class LintResult:
    findings: list[Finding]
    """Every finding, before baseline filtering."""
    match: BaselineMatch
    """Split into new / accepted / stale baseline entries."""
    checkers_run: list[str] = field(default_factory=list)
    files_scanned: int = 0
    allow_todo: bool = False
    """Downgrade TODO-justified baseline entries from failure to warning."""

    @property
    def todo(self) -> list[BaselineEntry]:
        """Matched baseline entries still carrying the TODO placeholder."""
        seen: set[tuple[str, str, str]] = set()
        entries = []
        for _, entry in self.match.accepted:
            if entry.key not in seen and is_todo(entry.justification):
                seen.add(entry.key)
                entries.append(entry)
        return entries

    @property
    def failed(self) -> bool:
        if self.match.new or self.match.stale:
            return True
        return bool(self.todo) and not self.allow_todo


def run_lint(
    root: str | Path = ".",
    checkers: Iterable[str] | None = None,
    baseline_path: str | Path | None = None,
    scan_dirs: Iterable[str] = DEFAULT_SCAN_DIRS,
    allow_todo: bool = False,
) -> LintResult:
    """Run the selected checkers over ``root`` and apply the baseline.

    ``baseline_path=None`` uses the checked-in default when it exists;
    pass an explicit path (or a missing one) to control it.
    """
    root = Path(root)
    modules = load_modules(root, scan_dirs)
    selected = list(checkers) if checkers else list(CHECKERS)
    unknown = [name for name in selected if name not in CHECKERS]
    if unknown:
        raise ValueError(
            f"unknown checker(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(CHECKERS))}"
        )
    findings: list[Finding] = []
    for name in selected:
        findings.extend(CHECKERS[name](modules))
    findings = sort_findings(findings)

    if baseline_path is None:
        candidate = root / DEFAULT_BASELINE
        baseline = Baseline.load(candidate) if candidate.is_file() else Baseline()
    else:
        baseline_path = Path(baseline_path)
        baseline = Baseline.load(baseline_path) if baseline_path.is_file() else Baseline()
    # a partial checker run must not report the skipped checkers'
    # baseline entries as stale
    if checkers:
        prefixes = tuple(_codes_for(selected))
        baseline = Baseline(
            [e for e in baseline.entries if e.code.startswith(prefixes)]
        )
    match = baseline.apply(findings)
    return LintResult(
        findings=findings,
        match=match,
        checkers_run=selected,
        files_scanned=len(modules),
        allow_todo=allow_todo,
    )


_CODE_PREFIX = {
    "guarded-by": "RL3",
    "lock-order": "RL7",
}


def _codes_for(names: Iterable[str]) -> list[str]:
    return [_CODE_PREFIX[n] for n in names if n in _CODE_PREFIX]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def render_text(result: LintResult, verbose: bool = False) -> str:
    lines: list[str] = []
    for finding in result.match.new:
        lines.append(finding.render())
    if verbose and result.match.accepted:
        lines.append("")
        lines.append(f"baselined ({len(result.match.accepted)}):")
        for finding, entry in result.match.accepted:
            lines.append(f"  {finding.render()}")
            lines.append(f"    accepted: {entry.justification}")
    for entry in result.match.stale:
        lines.append(
            f"stale baseline entry: {entry.code} {entry.path} [{entry.symbol}] "
            f"— no longer matches any finding; remove it"
        )
    for entry in result.todo:
        severity = "warning" if result.allow_todo else "error"
        lines.append(
            f"{severity}: TODO-justified baseline entry: {entry.code} "
            f"{entry.path} [{entry.symbol}] — replace the placeholder with a "
            f"real justification (or fix the finding)"
        )
    lines.append("")
    lines.append(
        f"reprolint: {len(result.match.new)} new, "
        f"{len(result.match.accepted)} baselined, "
        f"{len(result.match.stale)} stale "
        f"({result.files_scanned} files, "
        f"{len(result.checkers_run)} checkers)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "new": [f.to_dict() for f in result.match.new],
        "accepted": [
            {**f.to_dict(), "justification": e.justification}
            for f, e in result.match.accepted
        ],
        "stale": [e.to_dict() for e in result.match.stale],
        "summary": {
            "new": len(result.match.new),
            "accepted": len(result.match.accepted),
            "stale": len(result.match.stale),
            "todo": len(result.todo),
            "files_scanned": result.files_scanned,
            "checkers": result.checkers_run,
            "failed": result.failed,
        },
    }
    return json.dumps(payload, indent=2)


def write_baseline(
    result: LintResult,
    path: str | Path,
    justifications: dict[tuple[str, str, str], str] | None = None,
) -> Baseline:
    """Accept the current findings into a baseline file (``--update-baseline``)."""
    previous = Baseline.load(path) if Path(path).is_file() else Baseline()
    baseline = Baseline.from_findings(
        result.findings, justifications=justifications, previous=previous
    )
    baseline.save(path)
    return baseline


__all__ = [
    "DEFAULT_BASELINE",
    "LintResult",
    "run_lint",
    "render_text",
    "render_json",
    "write_baseline",
    "Baseline",
    "BaselineEntry",
]
