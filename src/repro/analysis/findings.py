"""The finding model shared by every reprolint checker.

A :class:`Finding` is one violation of a repo-specific invariant.  Its
identity for baselining purposes is ``(code, path, symbol)`` — *not* the
line number — so a checked-in baseline survives unrelated edits that
shift lines, while moving the offending construct to a different
function or file re-raises it for review.

Codes are stable, grep-able identifiers grouped by checker:

- ``RL3xx`` guarded-by lock discipline
- ``RL4xx`` segment/handle lifecycle leaks
- ``RL7xx`` lock order, blocking-under-lock, and status atomicity

(RL1xx, RL2xx, RL5xx and RL6xx were retired with their checkers; the
codes are not reused.)
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation, anchored to a source location."""

    path: str
    """Repo-relative posix path of the offending file."""
    line: int
    """1-based line of the offending construct."""
    code: str
    """Stable finding code, e.g. ``RL301``."""
    checker: str
    """Checker name, e.g. ``guarded-by``."""
    symbol: str
    """Stable anchor within the file (class.method:attr, edge, struct
    name...) used, with ``code`` and ``path``, as the baseline identity."""
    message: str = field(compare=False)
    """Human-readable description of the violation."""

    @property
    def key(self) -> tuple[str, str, str]:
        """The baseline identity of this finding."""
        return (self.code, self.path, self.symbol)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} [{self.checker}] {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic order: by path, then line, then code, then symbol."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.code, f.symbol))
