"""Tests for tables: sealing, expiry, scans, and the restart hooks."""

import pytest

from repro.columnstore.table import Table, estimate_row_bytes
from repro.errors import SchemaError
from repro.util.clock import ManualClock


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
            table.add_row({"host": "a"})

    def test_time_must_be_int(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.add_row({"time": "not-a-timestamp"})
        with pytest.raises(SchemaError):
            table.add_row({"time": True})

    def test_seal_empty_buffer_is_noop(self):
        table = make_table()
        assert table.seal_buffer() is None

    def test_ingest_counter_monotone(self):
        table = make_table()
        table.add_rows({"time": i} for i in range(25))
        assert table.total_rows_ingested == 25
        table.expire_before(100)
        assert table.total_rows_ingested == 25

    def test_rows_are_copied_on_add(self):
        table = make_table()
        row = {"time": 1, "tags": ["a"]}
        table.add_row(row)
        row["time"] = 999
        assert next(table.scan())["time"] == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Table("")

    def test_bad_rows_per_block_rejected(self):
        with pytest.raises(ValueError):
            Table("x", rows_per_block=0)


class TestExpiry:
    def test_expire_before_drops_whole_blocks(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(30))
        dropped = table.expire_before(10)  # first block: times 0..9
        assert dropped == 10
        assert table.row_count == 20
        assert table.total_rows_expired == 10

    def test_expire_keeps_partially_live_blocks(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i} for i in range(10))
        assert table.expire_before(5) == 0  # block max_time=9 >= 5
        assert table.row_count == 10

    def test_size_limit_drops_oldest(self):
        table = make_table(rows_per_block=10)
        table.add_rows({"time": i, "pad": f"p{i % 4}"} for i in range(40))
        per_block = table.sealed_nbytes // 4
        dropped = table.enforce_size_limit(per_block * 2)
        assert dropped >= 10
        remaining_times = [r["time"] for r in table.to_rows()]
        assert min(remaining_times) >= 10  # oldest went first


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
        table.add_row({"time": 1})
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
        small = estimate_row_bytes({"time": 1})
        big = estimate_row_bytes({"time": 1, "s": "x" * 100, "v": ["y" * 50] * 3})
        assert big > small + 200
