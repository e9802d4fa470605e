"""Mergeable aggregation state.

Leaves compute partial aggregates; aggregator servers merge them "as they
arrive from the leaves" (paper, Section 2).  Every aggregate is therefore
represented as a *mergeable state*: count and sum are trivially additive,
avg carries (sum, count), min/max fold, and percentiles carry their
sample values (exact at this library's scale; a production system would
ship a quantile sketch, which would change none of the interfaces).

Samples are kept as a list of float64 *chunks* — the vectorized
executor's per-group slices of its sorted run, the row path's single
floats — that merging appends by reference and :meth:`AggState.finalize`
flattens once to select the rank.  On the wire a state's samples are
still one flat JSON list of floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import QueryError
from repro.query.query import Query, QueryResult, ResultRow
from repro.types import ColumnValue


@dataclass
class AggState:
    """Mergeable partial state for one aggregation in one group.

    A NaN *group key* is one group everywhere (:func:`canonical`).
    Aggregating *over* NaN values is left as it always was: a sum it
    touches is NaN, and min/max see it as numpy does within a run of
    blocks (NaN wins) and as Python's ``min``/``max`` do across runs,
    leaves and the row path (the first operand wins every comparison
    with NaN) — so those two depend on where the NaN rows sit.  A
    percentile ranks NaN last (numpy's order) everywhere, so it does not.

    ``samples`` holds float64 chunks (arrays or single floats) that are
    shared, never mutated; ``==`` compares them flattened, in order.
    """

    func: str
    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None
    samples: list[np.ndarray | float] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggState):
            return NotImplemented
        return dict(vars(self), samples=None) == dict(vars(other), samples=None) and (
            np.array_equal(self.flat_samples(), other.flat_samples(), equal_nan=True)
        )

    def update(self, value: ColumnValue | None) -> None:
        """Fold one row's value into the state."""
        if self.func == "count":
            self.count += 1
            return
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise QueryError(
                f"aggregation '{self.func}' requires numeric values, got "
                f"{type(value).__name__}"
            )
        number = float(value)
        self.count += 1
        self.total += number
        self.minimum = number if self.minimum is None else min(self.minimum, number)
        self.maximum = number if self.maximum is None else max(self.maximum, number)
        if self.func.startswith("p"):
            self.samples.append(number)

    def merge(self, other: "AggState") -> None:
        """Fold another leaf's partial state into this one."""
        if other.func != self.func:
            raise QueryError(
                f"cannot merge aggregate states '{self.func}' and '{other.func}'"
            )
        self.total += other.total
        self.absorb(other.count, other.minimum, other.maximum, other.samples)

    def absorb(self, count: int, minimum: float | None, maximum: float | None, samples=()) -> None:
        """Fold in ``count`` already-reduced values — everything but the
        total, which the caller adds in the order its rounding needs —
        and their ``samples`` chunks, by reference."""
        self.count += count
        if minimum is not None:
            self.minimum = minimum if self.minimum is None else min(self.minimum, minimum)
        if maximum is not None:
            self.maximum = maximum if self.maximum is None else max(self.maximum, maximum)
        self.samples.extend(samples)

    def to_dict(self) -> dict:
        """JSON-safe form (for shipping partials between processes): the
        samples travel as one flat list and come back as one chunk."""
        return dict(vars(self), samples=self.flat_samples().tolist())

    @classmethod
    def from_dict(cls, data: dict) -> "AggState":
        scalars = (data[key] for key in ("func", "count", "total", "minimum", "maximum"))
        return cls(*scalars, [np.array(data["samples"], dtype=np.float64)])

    def flat_samples(self) -> np.ndarray:
        """The samples as one fresh float64 array, in order."""
        parts = []
        for scalar, run in itertools.groupby(self.samples, lambda c: isinstance(c, float)):
            parts.extend((np.fromiter(run, np.float64),) if scalar else run)
        return np.concatenate(parts) if parts else np.empty(0)

    def finalize(self) -> ColumnValue | None:
        """The user-facing value of this aggregate."""
        if self.func == "count":
            return self.count
        if self.count == 0:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        if self.func == "min":
            return self.minimum
        if self.func == "max":
            return self.maximum
        # Percentiles: nearest rank, selected (NaN ranks last) — not sorted.
        fraction = int(self.func[1:]) / 100.0
        flat = self.flat_samples()
        rank = max(0, min(flat.size - 1, math.ceil(fraction * flat.size) - 1))
        return float(np.partition(flat, rank)[rank])


#: A leaf's partial result: group key -> list of states, one per
#: aggregation, in query order.
LeafPartial = dict[tuple, list[AggState]]


def canonical(element):
    """A group-key element, with NaN mapped to the ``math.nan`` singleton.

    ``GROUP BY`` puts every NaN in one group, but two NaN objects are
    neither equal nor hash alike; one shared object is both (dicts try
    identity first), on every executor, across leaves and over the wire.
    """
    return math.nan if element != element else element


def partial_to_wire(partial: LeafPartial) -> list[dict]:
    """Serialize a leaf partial for the process RPC protocol.

    Group keys are tuples of column values; they travel as lists and are
    rebuilt as tuples on the other side.
    """
    return [
        {"group": list(group), "states": [state.to_dict() for state in states]}
        for group, states in partial.items()
    ]


def partial_from_wire(wire: list[dict]) -> LeafPartial:
    """Inverse of :func:`partial_to_wire`."""
    return {
        _group_key(entry["group"]): [AggState.from_dict(state) for state in entry["states"]]
        for entry in wire
    }


def _group_key(items: list) -> tuple:
    return tuple(tuple(item) if isinstance(item, list) else canonical(item) for item in items)


def merge_partials(partials: Iterable[LeafPartial]) -> LeafPartial:
    """Fold partials, in order, into a fresh one (the inputs stay as they
    were): what an aggregator does with its leaves' answers."""
    merged: LeafPartial = {}
    for partial in partials:
        for group, states in partial.items():
            mine = merged.get(group)
            if mine is None:
                merged[group] = [
                    AggState(s.func, s.count, s.total, s.minimum, s.maximum, list(s.samples))
                    for s in states
                ]
            else:
                for target, incoming in zip(mine, states):
                    target.merge(incoming)
    return merged


def merge_leaf_results(
    query: Query,
    partials: list[LeafPartial],
    leaves_total: int,
    rows_scanned: int = 0,
    blocks_pruned: int = 0,
) -> QueryResult:
    """Merge per-leaf partial states into the final result.

    ``len(partials)`` is the number of leaves that responded; the result
    records it against ``leaves_total`` so callers can see partiality.
    """
    rows = [
        ResultRow(group, {agg.label: s.finalize() for agg, s in zip(query.aggregations, states)})
        for group, states in merge_partials(partials).items()
    ]
    rows.sort(key=lambda row: _sort_key(row.group))
    if query.order_by is not None:
        # Top-k ordering by an aggregate value; the sort is stable (also
        # reversed), so ties and None values stay in group-key order.
        rows.sort(key=lambda row: _order_key(row.values[query.order_by]), reverse=query.descending)
    if query.limit is not None:
        rows = rows[: query.limit]
    return QueryResult(
        rows=rows,
        leaves_responded=len(partials),
        leaves_total=leaves_total,
        rows_scanned=rows_scanned,
        blocks_pruned=blocks_pruned,
    )


def _sort_key(group: tuple) -> tuple:
    """Stable cross-type ordering for group keys."""
    return tuple((type(item).__name__, item) for item in group)


def _order_key(value) -> tuple:
    """Sort key for order_by values; None sorts below any number."""
    return (0, 0.0) if value is None else (1, float(value))
