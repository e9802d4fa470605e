"""Retention policies and their enforcement.

"They also delete data as it expires due to either age or size limits"
(paper, Section 2).  A :class:`RetentionPolicy` couples the two limits;
:class:`RetentionEnforcer` applies per-table policies across a set of
leaves, recording expiry watermarks in each leaf's disk backup so that a
disk recovery re-applies the deletions ("Any needed deletions are made
after recovery", Figure 5 caption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StateError
from repro.server.leaf import LeafServer


@dataclass(frozen=True)
class RetentionPolicy:
    """Age and/or size limits for one table (per leaf shard)."""

    max_age_seconds: int | None = None
    max_bytes_per_leaf: int | None = None

    def __post_init__(self) -> None:
        if self.max_age_seconds is None and self.max_bytes_per_leaf is None:
            raise ValueError("a retention policy needs at least one limit")
        if self.max_age_seconds is not None and self.max_age_seconds <= 0:
            raise ValueError("max_age_seconds must be positive")
        if self.max_bytes_per_leaf is not None and self.max_bytes_per_leaf <= 0:
            raise ValueError("max_bytes_per_leaf must be positive")


@dataclass
class RetentionReport:
    """What one enforcement pass dropped."""

    rows_dropped_by_age: int = 0
    rows_dropped_by_size: int = 0
    tables_touched: int = 0
    leaves_skipped: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.rows_dropped_by_age + self.rows_dropped_by_size


@dataclass
class RetentionEnforcer:
    """Applies per-table retention policies across leaves.

    Tables without a policy fall back to ``default_policy`` when one is
    set; otherwise they are left alone.  Leaves that are not ALIVE are
    skipped (Scuba "stops deleting expired table data once shutdown
    starts", Figure 5 caption) and counted in the report.
    """

    policies: dict[str, RetentionPolicy] = field(default_factory=dict)
    default_policy: RetentionPolicy | None = None

    def policy_for(self, table: str) -> RetentionPolicy | None:
        return self.policies.get(table, self.default_policy)

    def enforce_on_leaf(self, leaf: LeafServer) -> RetentionReport:
        """One pass over one leaf; raises if the leaf is mid-shutdown
        per the table state machine rules — callers wanting the skip
        behaviour use :meth:`enforce`."""
        report = RetentionReport()
        now = int(leaf.clock.now())
        for table in leaf.leafmap:
            policy = self.policy_for(table.name)
            if policy is None:
                continue
            report.tables_touched += 1
            if policy.max_age_seconds is not None:
                cutoff = now - policy.max_age_seconds
                dropped = table.expire_before(cutoff)
                report.rows_dropped_by_age += dropped
                leaf.backup.record_expiry(
                    table.name, cutoff, rows_expired=table.total_rows_expired
                )
            if policy.max_bytes_per_leaf is not None:
                report.rows_dropped_by_size += table.enforce_size_limit(
                    policy.max_bytes_per_leaf
                )
        return report

    def enforce(self, leaves: list[LeafServer]) -> RetentionReport:
        """Enforce everywhere; non-ALIVE leaves are skipped, not failed."""
        total = RetentionReport()
        for leaf in leaves:
            if not leaf.is_alive:
                total.leaves_skipped += 1
                continue
            try:
                report = self.enforce_on_leaf(leaf)
            except StateError:
                total.leaves_skipped += 1
                continue
            total.rows_dropped_by_age += report.rows_dropped_by_age
            total.rows_dropped_by_size += report.rows_dropped_by_size
            total.tables_touched += report.tables_touched
        return total
