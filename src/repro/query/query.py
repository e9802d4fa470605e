"""Query descriptions and results."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import QueryError
from repro.types import ColumnValue

#: Supported aggregation functions.
AGG_FUNCS = ("count", "sum", "avg", "min", "max", "p50", "p90", "p95", "p99")

#: Supported filter operators.
FILTER_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "in", "contains")

#: How each operator but ``contains`` tests ``(actual, value)``.
_COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge, "in": lambda actual, value: actual in value,
}


@dataclass(frozen=True)
class Filter:
    """A predicate on one column.

    ``contains`` tests membership in a STRING_VECTOR column; ``in`` tests
    the column value against a collection of candidates.
    """

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise QueryError(f"unknown filter operator '{self.op}'")

    def to_dict(self) -> dict:
        """JSON-safe form (for the process RPC protocol)."""
        value = self.value
        if isinstance(value, tuple):
            value = list(value)
        return {"column": self.column, "op": self.op, "value": value}

    @classmethod
    def from_dict(cls, data: dict) -> "Filter":
        value = data["value"]
        if isinstance(value, list) and data["op"] == "in":
            value = tuple(value)
        return cls(data["column"], data["op"], value)

    def matches(self, row: dict[str, ColumnValue]) -> bool:
        if self.column not in row:
            return False
        actual = row[self.column]
        if self.op != "contains":
            return _COMPARE[self.op](actual, self.value)
        if not isinstance(actual, list):
            raise QueryError(
                f"'contains' requires a STRING_VECTOR column, and "
                f"'{self.column}' holds {type(actual).__name__}"
            )
        return self.value in actual


@dataclass(frozen=True)
class Aggregation:
    """One aggregation: a function over a column.

    ``count`` ignores its column (pass ``"*"`` by convention).
    """

    func: str
    column: str = "*"

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise QueryError(f"unknown aggregation function '{self.func}'")
        if self.func != "count" and self.column == "*":
            raise QueryError(f"aggregation '{self.func}' needs a column")

    @property
    def label(self) -> str:
        return f"{self.func}({self.column})"

    def to_dict(self) -> dict:
        return {"func": self.func, "column": self.column}

    @classmethod
    def from_dict(cls, data: dict) -> "Aggregation":
        return cls(data["func"], data["column"])


@dataclass(frozen=True)
class Query:
    """An aggregation query over one table.

    ``start_time``/``end_time`` bound the required ``time`` column as a
    half-open interval ``[start, end)`` — "nearly all queries contain
    predicates on time" (paper, Section 2.1).
    """

    table: str
    aggregations: tuple[Aggregation, ...] = (Aggregation("count"),)
    group_by: tuple[str, ...] = ()
    filters: tuple[Filter, ...] = ()
    start_time: int | None = None
    end_time: int | None = None
    limit: int | None = None
    #: Time-series mode (the Scuba GUI's default view): rows are
    #: additionally grouped into ``bucket_seconds``-wide time buckets,
    #: which appear as the first element of each result group key.
    bucket_seconds: int | None = None
    #: Sort the result rows by this aggregation label (e.g.
    #: ``"count(*)"``) instead of by group key; with ``limit`` this is a
    #: top-k query.
    order_by: str | None = None
    descending: bool = True

    def __post_init__(self) -> None:
        if not self.table:
            raise QueryError("query needs a table name")
        if not self.aggregations:
            raise QueryError("query needs at least one aggregation")
        if self.limit is not None and self.limit < 1:
            raise QueryError("limit must be positive")
        if self.bucket_seconds is not None and self.bucket_seconds < 1:
            raise QueryError("bucket_seconds must be positive")
        if self.order_by is not None:
            labels = [agg.label for agg in self.aggregations]
            if self.order_by not in labels:
                raise QueryError(
                    f"order_by '{self.order_by}' is not an aggregation of "
                    f"this query ({', '.join(labels)})"
                )

    def to_dict(self) -> dict:
        """JSON-safe form (for the process RPC protocol)."""
        return dict(
            vars(self),
            aggregations=[agg.to_dict() for agg in self.aggregations],
            group_by=list(self.group_by),
            filters=[f.to_dict() for f in self.filters],
        )

    @classmethod
    def from_dict(cls, data: dict) -> "Query":
        """Inverse of :meth:`to_dict`: an absent optional key takes its
        default, an unknown key is ignored."""
        known = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        return cls(
            **dict(
                known,
                aggregations=tuple(Aggregation.from_dict(a) for a in data["aggregations"]),
                group_by=tuple(data.get("group_by", ())),
                filters=tuple(Filter.from_dict(f) for f in data.get("filters", ())),
            )
        )


@dataclass
class ResultRow:
    """One output row: the group key plus aggregate values."""

    group: tuple[ColumnValue, ...]
    values: dict[str, ColumnValue]


@dataclass
class QueryResult:
    """A (possibly partial) query result.

    ``leaves_responded`` / ``leaves_total`` quantify partiality: Scuba's
    GUI shows users what fraction of data their answer covers.
    """

    rows: list[ResultRow] = field(default_factory=list)
    leaves_responded: int = 0
    leaves_total: int = 0
    rows_scanned: int = 0
    blocks_pruned: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of leaves that contributed (1.0 = complete result)."""
        if self.leaves_total == 0:
            return 1.0
        return self.leaves_responded / self.leaves_total
