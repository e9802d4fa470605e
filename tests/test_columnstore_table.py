"""Tests for tables: sealing, expiry, scans, and the restart hooks."""

import hashlib
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import table as table_module
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.schema import Schema
from repro.columnstore.table import Table
from repro.compression.decoded import DecodedKind
from repro.errors import SchemaError
from repro.types import ColumnType
from repro.util.clock import ManualClock
from repro.workloads import error_logs, service_requests
from tests.oracles import SealOracle, estimate_row_bytes


def make_table(rows_per_block=10, **kwargs):
    return Table("events", clock=ManualClock(100.0), rows_per_block=rows_per_block, **kwargs)


class TestIngest:
    def test_rows_accumulate_in_buffer(self):
        table = make_table()
        table.add_rows({"time": i} for i in range(5))
        assert table.buffered_row_count == 5
        assert table.block_count == 0
        assert table.row_count == 5

    def test_seal_at_row_threshold(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(25))
        assert table.block_count == 2
        assert table.buffered_row_count == 5

    def test_seal_at_byte_threshold(self):
        table = Table(
            "big", clock=ManualClock(0.0), rows_per_block=10_000, max_block_bytes=500
        )
        table.add_rows({"time": i, "payload": "x" * 100} for i in range(20))
        assert table.block_count >= 2

    def test_time_required(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.add_rows([{"host": "a"}])

    def test_time_must_be_int(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.add_rows([{"time": "not-a-timestamp"}])
        with pytest.raises(SchemaError):
            table.add_rows([{"time": True}])

    def test_seal_empty_buffer_is_noop(self):
        table = make_table()
        assert table.seal_buffer() is None

    def test_ingest_counter_monotone(self):
        table = make_table()
        table.add_rows({"time": i} for i in range(25))
        assert table.total_rows_ingested == 25
        table.expire(100)
        assert table.total_rows_ingested == 25

    def test_rows_are_copied_on_add(self):
        table = make_table()
        row = {"time": 1, "tags": ["a"]}
        table.add_rows([row])
        row["time"] = 999
        row["tags"].append("b")
        assert next(table.scan()) == {"time": 1, "tags": ["a"]}

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Table("")

    def test_bad_rows_per_block_rejected(self):
        with pytest.raises(ValueError):
            Table("x", rows_per_block=0)

    def test_type_conflicting_row_is_refused_and_the_table_keeps_sealing(self):
        # It used to be appended, and every later add then raised at seal
        # while the buffer grew past both caps.
        table = make_table(rows_per_block=3)
        with pytest.raises(SchemaError, match="seen as both INT64 and STRING"):
            table.add_rows([{"time": 0, "a": 1}, {"time": 1, "b": 2.0, "a": "x"}, {"time": 2}])
        assert (table.buffered_row_count, table.total_rows_ingested) == (1, 1)
        assert "b" not in table.buffer_block().schema  # nothing of it stays
        table.add_rows({"time": t, "a": t} for t in range(2, 6))
        assert (table.block_count, table.buffered_row_count) == (1, 2)

    @pytest.mark.parametrize(
        "row", [{"time": 1, "flag": True}, {"time": 1, "": 2}, {"time": 1, "d": {"k": 1}}]
    )
    def test_unsealable_row_is_refused(self, row):
        table = make_table()
        with pytest.raises(SchemaError):
            table.add_rows([row])
        assert table.buffered_row_count == 0

    def test_rows_before_one_that_cannot_be_read_are_kept(self):
        table = make_table()
        with pytest.raises(TypeError):
            table.add_rows(iter([{"time": 1}, None, {"time": 2}]))
        assert list(table.iter_buffer_rows()) == [{"time": 1}]

    def test_int_in_a_vector_is_refused(self):
        table = make_table()
        with pytest.raises(TypeError, match="has no len"):
            table.add_rows([{"time": 1, "v": ["a"]}, {"time": 2, "v": ["a", 1]}])
        assert table.buffered_row_count == 1
        assert table.nbytes == estimate_row_bytes({"time": 1, "v": ["a"]})


VALUES = {
    ColumnType.INT64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ColumnType.FLOAT64: st.floats(width=64),
    ColumnType.STRING: st.one_of(st.sampled_from(["", "x", "yy"]), st.text(max_size=4)),
    ColumnType.STRING_VECTOR: st.lists(st.sampled_from(["p", "q", ""]), max_size=3),
}


@st.composite
def buffered_rows(draw):
    """Rows over up to five typed columns, each row holding any subset of
    them in any order, with ``time`` anywhere among them."""
    types = draw(
        st.dictionaries(st.sampled_from("abcde"), st.sampled_from(list(ColumnType)), max_size=5)
    )
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        names = draw(st.lists(st.sampled_from(sorted(types)), unique=True)) if types else []
        items = [(name, draw(VALUES[types[name]])) for name in names]
        items.insert(draw(st.integers(0, len(items))), ("time", draw(st.integers(0, 10**6))))
        rows.append(dict(items))
    return rows


def assert_same_arrays(built, decoded):
    assert built.kind is decoded.kind
    if built.kind is DecodedKind.NUMERIC:
        assert built.values.dtype == decoded.values.dtype
        assert np.array_equal(built.values, decoded.values, equal_nan=True)
        return
    assert built.codes.dtype == decoded.codes.dtype
    assert [built.entries[c] for c in built.codes] == [decoded.entries[c] for c in decoded.codes]
    if built.kind is DecodedKind.VECTOR:
        assert np.array_equal(built.offsets, decoded.offsets)


class TestBufferView:
    @settings(max_examples=80, deadline=None)
    @given(rows=buffered_rows())
    def test_seal_and_view_match_a_block_sealed_from_the_rows(self, rows):
        """The add-time schema seals byte for byte what ``from_rows``
        seals (so ``content_key`` and the stored bytes cannot move), and
        the buffer's view reads exactly as that block does."""
        table = make_table(rows_per_block=10**6)
        table.add_rows(rows)
        assert table.nbytes == sum(map(estimate_row_bytes, rows))
        view = table.buffer_block()
        sealed = table.seal_buffer()
        reference = RowBlock.from_rows(rows, created_at=100.0)
        assert sealed.pack() == reference.pack()
        assert sealed.content_key() == reference.content_key()
        assert view.schema == sealed.schema
        assert (view.row_count, view.min_time, view.max_time) == (
            sealed.row_count,
            sealed.min_time,
            sealed.max_time,
        )
        assert repr(view.to_rows()) == repr(sealed.to_rows())  # NaN-safe
        for name in sealed.schema:
            assert_same_arrays(view.decoded_column(name), sealed.decoded_column(name))

    def test_view_is_memoized_until_the_next_add_or_seal(self):
        table = make_table()
        assert table.buffer_block() is None
        table.add_rows({"time": t, "a": t} for t in range(3))
        view = table.buffer_block()
        assert table.buffer_block() is view
        assert view.decoded_column("a") is view.decoded_column("a")
        table.add_rows([{"time": 3, "a": 3, "b": "x"}])
        fresh = table.buffer_block()
        assert fresh is not view and fresh.row_count == 4 and "b" in fresh.schema
        assert view.row_count == 3 and "b" not in view.schema  # a snapshot
        assert fresh.decoded_column("a").values.tolist() == [0, 1, 2, 3]
        table.seal_buffer()
        assert table.buffer_block() is None

    def test_view_fills_omitted_values_with_defaults(self):
        table = make_table()
        table.add_rows([{"time": 5, "g": "a", "v": 4.0}, {"time": 2}])
        view = table.buffer_block()
        assert (view.min_time, view.max_time) == (2, 5)
        assert view.to_rows()[1] == {"time": 2, "g": "", "v": 0.0}
        assert view.decoded_column("v").values.tolist() == [4.0, 0.0]
        # ... while scans keep the rows as they were added.
        assert list(table.iter_buffer_rows())[1] == {"time": 2}


class Name(str):
    pass


class Tags(list):
    pass


#: How a row drawn from one of the repeating shapes is broken, if at all.
BREAKS = ["none"] * 6 + [
    "new column", "conflict", "bool", "str subclass", "omit", "seal",
    "list subclass", "int in vector",
]


def _break(draw, row, types, how):
    """Apply one of ``BREAKS`` or ``PERTURBATIONS`` to ``row`` (a fresh
    dict); the column it touches is drawn among those it applies to, if
    there are any."""
    def pick(kinds):
        names = [n for n in row if n != "time" and types.get(n) in kinds]
        return draw(st.sampled_from(names)) if names else None

    if how == "new column":
        ctype = draw(st.sampled_from(list(ColumnType)))
        row[draw(st.sampled_from("uvw"))] = draw(VALUES[ctype])
    elif how == "conflict" and (name := pick(set(ColumnType))):
        ctype = draw(st.sampled_from([t for t in ColumnType if t is not types[name]]))
        row[name] = draw(VALUES[ctype])
    elif how == "bool" and (name := pick({ColumnType.INT64})):
        row[name] = True
    elif how == "int in float" and (name := pick({ColumnType.FLOAT64})):
        row[name] = draw(st.integers(-5, 5))
    elif how == "float in int" and (name := pick({ColumnType.INT64})):
        row[name] = float(row[name] % 1000)
    elif how == "str subclass" and (name := pick({ColumnType.STRING})):
        row[name] = Name(row[name])
    elif how == "omit" and (name := pick(set(ColumnType))):
        del row[name]
    elif how == "swapped keys" and len(row) > 1:
        # Of one type where two keys share it: values read by position
        # alone would then still type-check.
        names = list(row)
        pairs = [(i, j) for j in range(len(names)) for i in range(j)]
        alike = [(i, j) for i, j in pairs if types.get(names[i]) is types.get(names[j])]
        i, j = draw(st.sampled_from(alike or pairs))
        names[i], names[j] = names[j], names[i]
        row = {name: row[name] for name in names}
    elif how == "non-str key":
        row[draw(st.sampled_from([7, b"k", None]))] = 1
    elif how == "empty key":
        row[""] = 1
    elif how == "list subclass" and (name := pick({ColumnType.STRING_VECTOR})):
        row[name] = Tags(row[name])
    elif how == "tuple vector" and (name := pick({ColumnType.STRING_VECTOR})):
        row[name] = tuple(row[name])
    elif how == "int in vector" and (name := pick({ColumnType.STRING_VECTOR})):
        row[name] = row[name] + [1]
    return row


@st.composite
def shaped_runs(draw):
    """A run of adds drawn from two or three repeating row shapes (column
    order included, ``time`` anywhere), broken now and then by a row or
    a seal from ``BREAKS``.  Shapes may disagree on a column's type."""
    shapes = []
    for _ in range(draw(st.integers(2, 3))):
        columns = draw(
            st.lists(
                st.tuples(st.sampled_from("abcdef"), st.sampled_from(list(ColumnType))),
                max_size=4,
                unique_by=lambda column: column[0],
            )
        )
        columns.insert(draw(st.integers(0, len(columns))), ("time", ColumnType.INT64))
        shapes.append(columns)
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        how = draw(st.sampled_from(BREAKS))
        if how == "seal":
            ops.append("seal")
            continue
        shape = draw(st.sampled_from(shapes))
        row = {
            name: draw(st.integers(0, 10**6) if name == "time" else VALUES[ctype])
            for name, ctype in shape
        }
        ops.append(_break(draw, row, dict(shape), how))
    return ops


class TestIngestMatchesTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(ops=shaped_runs(), rows_per_block=st.integers(2, 12), data=st.data())
    def test_batches_seal_what_from_rows_seals(self, ops, rows_per_block, data):
        """Rows added in batches of any size are refused, kept, estimated
        and sealed as ``SealOracle`` adds them one at a time: a refused
        row raises the oracle's exception type, the rows before it in its
        batch stay and the rest do not; every block packs as
        ``RowBlock.from_rows`` of its rows; the buffer reads back the rows
        as added, their keys in order."""
        table, oracle = make_table(rows_per_block), SealOracle(rows_per_block)
        while ops:
            if ops[0] == "seal":
                table.seal_buffer()
                oracle.seal()
                ops = ops[1:]
                continue
            size = data.draw(st.integers(1, 8))
            batch = list(takewhile(lambda op: op != "seal", ops[:size]))
            ops = ops[len(batch) :]
            refusals = []
            for row in batch:
                refusals.append(oracle.add(row))
                if refusals[-1]:
                    break
            before = table.total_rows_ingested
            try:
                assert table.add_rows(batch) == len(batch)
                error = None
            except (SchemaError, TypeError) as exc:
                error = type(exc)
            assert error == refusals[-1]
            assert table.total_rows_ingested - before == len(refusals) - (error is not None)
            assert [b.pack() for b in table.blocks] == [b.pack() for b in oracle.blocks]
            buffered = list(table.iter_buffer_rows())
            assert buffered == oracle.pending
            assert list(map(list, buffered)) == list(map(list, oracle.pending))
            assert table.nbytes == table.sealed_nbytes + sum(map(estimate_row_bytes, buffered))


#: How one row of a one-shape batch is perturbed, if at all (:func:`_break`).
PERTURBATIONS = ["none"] * 3 + [
    "bool", "int in float", "float in int", "omit", "new column", "swapped keys",
    "non-str key", "empty key", "int in vector", "tuple vector", "list subclass",
    "str subclass",
]


@st.composite
def one_shape_batches(draw):
    """One to three batches over one drawn shape (``time`` anywhere),
    each with at most one row perturbed at a drawn position; a batch may
    be a tuple."""
    columns = draw(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.sampled_from(list(ColumnType))),
            max_size=5,
            unique_by=lambda column: column[0],
        )
    )
    columns.insert(draw(st.integers(0, len(columns))), ("time", ColumnType.INT64))
    types = dict(columns)
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [
            {
                name: draw(st.integers(0, 10**6) if name == "time" else VALUES[ctype])
                for name, ctype in columns
            }
            for _ in range(draw(st.integers(1, 12)))
        ]
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = _break(draw, rows[at], types, draw(st.sampled_from(PERTURBATIONS)))
        batches.append(tuple(rows) if draw(st.booleans()) else rows)
    return batches


def _outcome(table, batch):
    """What ``table.add_rows(batch)`` returned or raised: ``(count,
    exception type, message)``."""
    try:
        return table.add_rows(batch), None, None
    except (SchemaError, TypeError) as exc:
        return None, type(exc), str(exc)


@pytest.fixture
def no_row_loop(monkeypatch):
    """Fail the test if an add reaches the row loop, the one reader of
    a batch that builds a :class:`RunBuilder`."""

    def refuse():
        raise AssertionError("a one-shape batch fell back to the row loop")

    monkeypatch.setattr(table_module, "RunBuilder", refuse)


class TestOneShapeRead:
    """A list or tuple of dicts with one shape is read in whole-batch
    passes; it adds exactly what the row loop adds, and anything else —
    every perturbation of ``PERTURBATIONS`` — is read by the row loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        batches=one_shape_batches(),
        rows_per_block=st.integers(2, 12),
        max_block_bytes=st.sampled_from([1 << 30, 60, 150, 400]),
    )
    def test_adds_what_the_row_loop_adds(self, batches, rows_per_block, max_block_bytes):
        """Same runs, sealed bytes, estimate, ingest count, exception
        (type and message) and kept rows as ``add_rows`` forced through
        the row loop."""
        tables = [
            make_table(rows_per_block, max_block_bytes=max_block_bytes) for _ in range(2)
        ]
        for batch in batches:
            runs, refused = table_module._batch_runs(batch)
            outcome = _outcome(tables[0], batch)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(table_module, "_one_shape_run", lambda rows: None)
                loop_runs, loop_refused = table_module._batch_runs(batch)
                assert outcome == _outcome(tables[1], batch)
            assert runs == loop_runs
            assert type(refused) is type(loop_refused) and repr(refused) == repr(loop_refused)
            fast_table, loop_table = tables
            assert [b.pack() for b in fast_table.blocks] == [b.pack() for b in loop_table.blocks]
            buffered = list(fast_table.iter_buffer_rows())
            kept = list(loop_table.iter_buffer_rows())
            assert buffered == kept and list(map(list, buffered)) == list(map(list, kept))
            assert fast_table.nbytes == loop_table.nbytes
            assert fast_table.nbytes == fast_table.sealed_nbytes + sum(
                map(estimate_row_bytes, buffered)
            )
            assert fast_table.total_rows_ingested == loop_table.total_rows_ingested

    @pytest.mark.parametrize(
        "row",
        [
            {"time": 1, 7: 1},
            {"time": 1, None: "x"},
            {"time": 1, "": 1},
            {"time": 1, Name("a"): 1},
            {"time": True, "a": 1},
            {"time": 1.5},
            {"a": 1},
        ],
    )
    def test_a_batch_of_one_bad_shape_fails_as_in_the_row_loop(self, row):
        """Every row alike, the one row unfit: the same error, nothing kept."""
        batch = [dict(row) for _ in range(3)]
        fast, loop = make_table(), make_table()
        outcome = _outcome(fast, batch)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table_module, "_one_shape_run", lambda rows: None)
            assert outcome == _outcome(loop, batch)
        assert outcome[1] is SchemaError
        assert fast.buffered_row_count == fast.total_rows_ingested == 0

    def test_keys_of_one_type_swapped_take_the_row_loop(self):
        """Read by position alone, the swapped row would still
        type-check; it keeps its own key order and its values."""
        rows = [{"time": 0, "a": 1, "s": "x"}, {"a": 2, "time": 1, "s": "y"}]
        table = make_table()
        assert table_module._one_shape_run(rows) is None
        table.add_rows(rows)
        assert list(map(list, table.iter_buffer_rows())) == list(map(list, rows))
        assert list(table.iter_buffer_rows()) == rows

    @pytest.mark.parametrize("generate", [service_requests, error_logs])
    def test_ledger_batches_never_reach_the_row_loop(self, generate, no_row_loop):
        """512-row batches made as the ledger makes them (a list from the
        generator, one slot's start time and seed) take the one-shape
        read, and add the rows they were made of."""
        table = make_table(rows_per_block=512)
        for slot in range(3):
            rows = list(generate(512, start_time=1_390_000_000 + slot * 600, seed=slot))
            assert table.add_rows(rows) == 512
            assert table.blocks[-1].to_rows() == rows
        assert (table.block_count, table.total_rows_ingested) == (3, 3 * 512)

    def test_a_generator_takes_the_row_loop(self, no_row_loop):
        """A generator is read once, by the row loop, so that the rows
        before a failure are kept."""
        table = make_table()
        with pytest.raises(AssertionError, match="row loop"):
            table.add_rows({"time": t} for t in range(3))

    def test_an_odd_row_near_the_start_stops_the_shape_check(self, monkeypatch):
        """The shape check reads the rows' keys up to the first row that
        differs, and no further."""
        read = []

        def keys(row):
            if isinstance(row, dict):
                read.append(row["time"])
            return tuple_(row)

        tuple_ = tuple
        monkeypatch.setattr(table_module, "tuple", keys, raising=False)
        rows = [{"time": 0, "a": 1}, {"a": 1, "time": 1}]
        rows += [{"time": t, "a": 1} for t in range(2, 50)]
        assert table_module._one_shape_run(rows) is None
        assert set(read) == {0, 1}


class TestExpiry:
    def test_expire_before_drops_whole_blocks(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(30))
        dropped = table.expire(10)  # first block: times 0..9
        assert dropped == 10
        assert table.row_count == 20
        assert table.total_rows_expired == 10

    def test_expire_keeps_partially_live_blocks(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(10))
        assert table.expire(5) == 0  # block max_time=9 >= 5
        assert table.row_count == 10

    def test_size_limit_drops_oldest(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i, "pad": f"p{i % 4}"} for i in range(40))
        per_block = table.sealed_nbytes // 4
        dropped = table.expire(max_bytes=per_block * 2)
        assert dropped >= 10
        remaining_times = [r["time"] for r in table.to_rows()]
        assert min(remaining_times) >= 10  # oldest went first

    def test_a_late_block_waits_for_the_blocks_before_it(self):
        """Expiry drops a prefix: an aged-out block behind a live one
        stays until that one goes, so the count alone names the rows."""
        table = make_table(rows_per_block=10)
        for start in (100, 50, 300):
            table.add_rows({"time": start + i} for i in range(10))
        assert table.expire(70) == 0
        assert [block.max_time for block in table.blocks] == [109, 59, 309]
        assert table.expire(110) == 20
        assert [block.max_time for block in table.blocks] == [309]
        assert table.total_rows_expired == 20


class TestScan:
    def test_scan_includes_buffer(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(15))
        assert len(list(table.scan())) == 15

    def test_scan_time_range_half_open(self):
        table = make_table(rows_per_block=5)
        table.add_rows({"time": i} for i in range(20))
        got = [r["time"] for r in table.scan(5, 10)]
        assert got == [5, 6, 7, 8, 9]

    def test_scan_filters_inside_overlapping_block(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(10))
        got = [r["time"] for r in table.scan(3, 6)]
        assert got == [3, 4, 5]

    def test_scan_rows_are_copies(self):
        table = make_table()
        table.add_rows([{"time": 1}])
        row = next(table.scan())
        row["time"] = 42
        assert next(table.scan())["time"] == 1


class TestRestartHooks:
    def test_take_blocks_empties_table(self):
        table = make_table(rows_per_block=5)
        table.add_rows({"time": i} for i in range(10))
        blocks = table.take_blocks()
        assert len(blocks) == 2
        assert table.block_count == 0

    def test_replace_blocks(self):
        source = make_table(rows_per_block=5)
        source.add_rows({"time": i} for i in range(10))
        target = make_table(rows_per_block=5)
        target.replace_blocks(source.blocks)
        assert target.to_rows() == source.to_rows()


class TestEstimate:
    def test_estimate_counts_strings_and_vectors(self):
        small, big = make_table(), make_table()
        small.add_rows([{"time": 1}])
        big.add_rows([{"time": 1, "s": "x" * 100, "v": ["y" * 50] * 3}])
        assert small.nbytes == 4 + 16
        assert big.nbytes == small.nbytes + (1 + 8 + 100) + (1 + 8 + 3 * (50 + 4))


class TestSealedSchemas:
    """Consecutive blocks of one shape share one :class:`Schema`, so its
    wire bytes are built once, and pack exactly as blocks that each held
    their own schema did."""

    #: sha256 of the four blocks below, packed back to back, as a build
    #: that gave every block its own schema packed them.
    PACKED_SHA256 = "6ccce7fe9c3641cb8e5132a6b9b869a325e34e0e9c1a251c1a19c741c430e7f9"

    def test_one_shape_shares_a_schema_and_packs_the_same_bytes(self):
        table = make_table(rows_per_block=64)
        table.add_rows(list(service_requests(64 * 3, seed=7)))
        table.add_rows([{"time": 10**6 + i, "host": f"h{i}", "extra": i} for i in range(64)])
        blocks = table.blocks
        assert len(blocks) == 4
        assert blocks[1].schema is blocks[0].schema and blocks[2].schema is blocks[0].schema
        assert blocks[3].schema is not blocks[0].schema
        assert blocks[3].schema.names == ["time", "host", "extra"]
        for block in blocks:
            own = RowBlock(
                Schema(dict(block.schema.items())),
                dict(block._rbcs),
                block.row_count,
                block.min_time,
                block.max_time,
                block.created_at,
            )
            assert own.pack() == block.pack()
        packed = b"".join(block.pack() for block in blocks)
        assert hashlib.sha256(packed).hexdigest() == self.PACKED_SHA256

    def test_a_block_whose_columns_are_not_the_schema_is_refused(self):
        table = make_table(rows_per_block=4)
        table.add_rows({"time": i, "a": i} for i in range(4))
        (block,) = table.blocks
        rbcs = dict(block._rbcs)
        fields = block.row_count, block.min_time, block.max_time, block.created_at
        for columns in (
            {"time": rbcs["time"]},
            {**rbcs, "b": rbcs["a"]},
            {"time": rbcs["time"], "b": rbcs["a"]},
        ):
            with pytest.raises(SchemaError, match="do not match the schema"):
                RowBlock(block.schema, columns, *fields)
        assert RowBlock(block.schema, {"a": rbcs["a"], "time": rbcs["time"]}, *fields).pack() == (
            block.pack()
        )
