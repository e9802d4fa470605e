"""Retention policies and their enforcement.

"They also delete data as it expires due to either age or size limits"
(paper, Section 2).  A :class:`RetentionPolicy` couples the two limits;
:class:`RetentionEnforcer` applies per-table policies across a set of
leaves through :meth:`LeafServer.expire_tables`, the path age expiry
takes too: each drop removes the table's oldest blocks, and the table's
expired-row count is recorded in the leaf's disk backup, so every
recovery rung trims the same rows ("Any needed deletions are made after
recovery", Figure 5 caption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.columnstore.table import Table
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
        """One pass over one leaf, under its lock and in one manifest;
        raises :class:`StateError` unless the leaf is ALIVE — callers
        wanting the skip behaviour use :meth:`enforce`."""
        report = RetentionReport()

        def expire(table: Table, now: int) -> None:
            policy = self.policy_for(table.name)
            if policy is None:
                return
            report.tables_touched += 1
            if policy.max_age_seconds is not None:
                report.rows_dropped_by_age += table.expire(now - policy.max_age_seconds)
            if policy.max_bytes_per_leaf is not None:
                report.rows_dropped_by_size += table.expire(
                    max_bytes=policy.max_bytes_per_leaf
                )

        leaf.expire_tables(expire)
        return report

    def enforce(self, leaves: list[LeafServer]) -> RetentionReport:
        """Enforce everywhere; non-ALIVE leaves are skipped, not failed."""
        total = RetentionReport()
        for leaf in leaves:
            try:
                report = self.enforce_on_leaf(leaf)
            except StateError:
                total.leaves_skipped += 1
                continue
            total.rows_dropped_by_age += report.rows_dropped_by_age
            total.rows_dropped_by_size += report.rows_dropped_by_size
            total.tables_touched += report.tables_touched
        return total
