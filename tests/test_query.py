"""Tests for the query engine: descriptions, execution, and merging."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.leafmap import LeafMap
from repro.errors import QueryError
from repro.query.aggregate import AggState, merge_leaf_results, merge_partials
from repro.query.execute import execute_on_leaf
from repro.query.query import Aggregation, Filter, Query
from repro.util.clock import ManualClock


def make_map(rows=200):
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=50)
    table = leafmap.get_or_create("requests")
    table.add_rows(
        {
            "time": 1000 + i,
            "endpoint": f"/api/{i % 4}",
            "latency": float(i % 100),
            "status": 200 if i % 10 else 500,
            "tags": ["prod"] + (["canary"] if i % 2 else []),
        }
        for i in range(rows)
    )
    return leafmap


class TestQueryValidation:
    def test_needs_table(self):
        with pytest.raises(QueryError):
            Query("")

    def test_needs_aggregation(self):
        with pytest.raises(QueryError):
            Query("t", aggregations=())

    def test_unknown_agg_func(self):
        with pytest.raises(QueryError):
            Aggregation("median", "x")

    def test_non_count_needs_column(self):
        with pytest.raises(QueryError):
            Aggregation("sum")

    def test_unknown_filter_op(self):
        with pytest.raises(QueryError):
            Filter("x", "like", "%y%")

    def test_bad_limit(self):
        with pytest.raises(QueryError):
            Query("t", limit=0)


class TestFilters:
    def test_comparison_ops(self):
        row = {"v": 5}
        assert Filter("v", "eq", 5).matches(row)
        assert Filter("v", "ne", 4).matches(row)
        assert Filter("v", "lt", 6).matches(row)
        assert Filter("v", "le", 5).matches(row)
        assert Filter("v", "gt", 4).matches(row)
        assert Filter("v", "ge", 5).matches(row)
        assert not Filter("v", "eq", 6).matches(row)

    def test_in_and_contains(self):
        row = {"host": "a", "tags": ["x", "y"]}
        assert Filter("host", "in", ("a", "b")).matches(row)
        assert Filter("tags", "contains", "y").matches(row)
        assert not Filter("tags", "contains", "z").matches(row)

    def test_missing_column_never_matches(self):
        assert not Filter("ghost", "eq", 1).matches({"v": 1})

    def test_ne_on_absent_column_is_false(self):
        # Deliberate three-valued-logic choice: an absent column matches
        # NO predicate, not even "not equal" — absence is not inequality.
        assert not Filter("ghost", "ne", 1).matches({"v": 1})
        assert not Filter("ghost", "ne", None).matches({"v": 1})

    def test_none_value_comparisons(self):
        row = {"v": 5}
        assert not Filter("v", "eq", None).matches(row)
        assert Filter("v", "ne", None).matches(row)
        with pytest.raises(TypeError):
            Filter("v", "lt", None).matches(row)

    def test_none_stored_value(self):
        # A raw (unsealed) row can carry None; eq/ne treat it as a value.
        row = {"v": None}
        assert Filter("v", "eq", None).matches(row)
        assert not Filter("v", "ne", None).matches(row)
        assert not Filter("v", "eq", 0).matches(row)

    def test_contains_on_scalar_raises(self):
        with pytest.raises(QueryError):
            Filter("v", "contains", "x").matches({"v": 5})

    def test_contains_error_names_column_and_type(self):
        with pytest.raises(QueryError, match="'v' holds int"):
            Filter("v", "contains", "x").matches({"v": 5})

    def test_in_with_string_value_is_substring(self):
        # Python's `in` on a string is substring containment; the filter
        # inherits that, and the vectorized path must too.
        assert Filter("s", "in", "abc").matches({"s": "ab"})
        assert not Filter("s", "in", "abc").matches({"s": "ac"})


class TestExecution:
    def test_count_all(self):
        execution = execute_on_leaf(make_map(), Query("requests"))
        assert execution.partial[()][0].finalize() == 200

    def test_missing_table_contributes_empty(self):
        execution = execute_on_leaf(make_map(), Query("nope"))
        assert execution.partial == {}

    def test_group_by_and_filters(self):
        query = Query(
            "requests",
            aggregations=(Aggregation("count"), Aggregation("avg", "latency")),
            group_by=("endpoint",),
            filters=(Filter("status", "eq", 200),),
        )
        execution = execute_on_leaf(make_map(), query)
        assert len(execution.partial) == 4
        total = sum(states[0].finalize() for states in execution.partial.values())
        assert total == 180  # 10% are 500s

    def test_time_pruning_counts_blocks(self):
        query = Query("requests", start_time=1100, end_time=1150)
        execution = execute_on_leaf(make_map(), query)
        assert execution.blocks_pruned == 3  # of 4 blocks
        assert execution.rows_scanned == 50

    def test_agg_of_missing_column_yields_none(self):
        query = Query("requests", aggregations=(Aggregation("sum", "ghost"),))
        execution = execute_on_leaf(make_map(), query)
        result = merge_leaf_results(query, [execution.partial], 1)
        assert result.rows[0].values["sum(ghost)"] is None

    def test_non_numeric_aggregation_raises(self):
        query = Query("requests", aggregations=(Aggregation("sum", "endpoint"),))
        with pytest.raises(QueryError):
            execute_on_leaf(make_map(), query)


class TestAggStates:
    def test_percentile_nearest_rank(self):
        state = AggState("p50")
        for value in (1, 2, 3, 4, 5):
            state.update(value)
        assert state.finalize() == 3

    def test_p99_on_small_sample(self):
        state = AggState("p99")
        for value in range(10):
            state.update(value)
        assert state.finalize() == 9

    def test_empty_numeric_state_finalizes_none(self):
        for func in ("sum", "avg", "min", "max", "p50"):
            assert AggState(func).finalize() is None

    def test_merge_mismatched_funcs_rejected(self):
        a, b = AggState("sum"), AggState("avg")
        with pytest.raises(QueryError):
            a.merge(b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=5),
    )
    def test_merged_states_equal_single_pass_property(self, values, n_parts):
        """Invariant: splitting rows among leaves and merging partial
        states gives the same aggregates as one leaf seeing all rows."""
        funcs = ("count", "sum", "avg", "min", "max", "p50", "p95")
        whole = [AggState(f) for f in funcs]
        for value in values:
            for state in whole:
                state.update(value if state.func != "count" else None)
        parts = [[AggState(f) for f in funcs] for _ in range(n_parts)]
        for index, value in enumerate(values):
            for state in parts[index % n_parts]:
                state.update(value if state.func != "count" else None)
        merged = [AggState(f) for f in funcs]
        for part in parts:
            for target, incoming in zip(merged, part):
                target.merge(incoming)
        for func, lhs, rhs in zip(funcs, whole, merged):
            a, b = lhs.finalize(), rhs.finalize()
            if isinstance(a, float):
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9), func
            else:
                assert a == b, func


def reference_percentile(values, func):
    """Nearest rank over a Python ``sorted`` copy (finite values only)."""
    ordered = sorted(values)
    rank = math.ceil(int(func[1:]) / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def chunked_state(func, pieces):
    """A state fed ``pieces`` in order: a list is folded row by row with
    ``update``, a tuple is absorbed as one array chunk (maybe empty)."""
    state = AggState(func)
    for piece in pieces:
        if isinstance(piece, list):
            for value in piece:
                state.update(value)
        else:
            chunk = np.array(piece, dtype=np.float64)
            low = float(chunk.min()) if chunk.size else None
            high = float(chunk.max()) if chunk.size else None
            state.absorb(chunk.size, low, high, (chunk,))
    return state


PIECES = st.lists(
    st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8).map(tuple),
    ),
    max_size=6,
)


class TestPercentileChunks:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(PIECES, min_size=1, max_size=3), st.integers(min_value=1, max_value=99))
    def test_selection_matches_sorted_reference(self, states, percent):
        """However the samples are split into states, row updates, array
        chunks and empty chunks, the answer is the sorted nearest rank."""
        func = f"p{percent}"
        merged = AggState(func)
        for pieces in states:
            merged.merge(chunked_state(func, pieces))
        values = [v for pieces in states for piece in pieces for v in piece]
        if not values:
            assert merged.finalize() is None
            return
        assert merged.finalize() == reference_percentile(values, func)

    def test_finalize_returns_a_python_float(self):
        state = chunked_state("p50", [(3.0, 1.0, 2.0), [4.0]])
        assert type(state.finalize()) is float
        assert state.finalize() == 2.0

    def test_merge_partials_leaves_inputs_untouched(self):
        partials = [
            {("a",): [chunked_state("p90", [(5.0, 1.0), [2.0]]), AggState("count", 3)]},
            {("a",): [chunked_state("p90", [[7.0], (0.5, 9.0)]), AggState("count", 3)]},
            {("b",): [chunked_state("p90", [(), [1.0, float("nan")]]), AggState("count", 2)]},
        ]
        before = copy.deepcopy(partials)
        merged = merge_partials(partials)
        assert partials == before
        assert merged[("a",)][0].flat_samples().tolist() == [5.0, 1.0, 2.0, 7.0, 0.5, 9.0]
        assert merged[("a",)][0].finalize() == 9.0

    def test_wire_round_trip_keeps_the_flat_json_shape(self):
        state = chunked_state("p50", [(3.0, 1.0), [4.0], (), (2.0,)])
        data = json.loads(json.dumps(state.to_dict()))
        assert data["samples"] == [3.0, 1.0, 4.0, 2.0]
        rebuilt = AggState.from_dict(data)
        assert rebuilt == state
        assert len(rebuilt.samples) == 1
        assert rebuilt.finalize() == state.finalize() == 2.0

    def test_nan_ranks_last_whatever_the_order(self):
        values = [0.0, float("nan"), 2.0, 3.0, 1.0, 5.0]
        for order in (values, values[::-1], values[3:] + values[:3]):
            assert chunked_state("p50", [order]).finalize() == 2.0
            assert math.isnan(chunked_state("p99", [tuple(order)]).finalize())


class TestMerge:
    def test_partial_coverage_recorded(self):
        query = Query("requests")
        execution = execute_on_leaf(make_map(), query)
        result = merge_leaf_results(query, [execution.partial], leaves_total=4)
        assert result.leaves_responded == 1
        assert result.coverage == 0.25

    def test_groups_merge_across_leaves(self):
        query = Query("requests", group_by=("endpoint",))
        e1 = execute_on_leaf(make_map(100), query)
        e2 = execute_on_leaf(make_map(100), query)
        result = merge_leaf_results(query, [e1.partial, e2.partial], 2)
        total = sum(r.values["count(*)"] for r in result.rows)
        assert total == 200

    def test_limit_applies_after_sort(self):
        query = Query("requests", group_by=("endpoint",), limit=2)
        execution = execute_on_leaf(make_map(), query)
        result = merge_leaf_results(query, [execution.partial], 1)
        assert len(result.rows) == 2
        assert result.rows[0].group == ("/api/0",)

    def test_merge_does_not_mutate_partials(self):
        query = Query("requests")
        execution = execute_on_leaf(make_map(100), query)
        before = execution.partial[()][0].count
        merge_leaf_results(query, [execution.partial, execution.partial], 2)
        assert execution.partial[()][0].count == before
