"""Tests for the per-leaf metadata block and the valid-bit protocol."""

import pytest

from repro.shm.layout import SHM_LAYOUT_VERSION
from repro.shm.metadata import LeafMetadata, TableSegmentRecord, metadata_segment_name


class TestMetadata:
    def test_fixed_location_is_derivable(self):
        assert metadata_segment_name("ns", "3") == "ns-leaf-3-meta"

    def test_create_starts_invalid(self, shm_namespace):
        meta = LeafMetadata.create(shm_namespace, "0", SHM_LAYOUT_VERSION)
        try:
            assert meta.valid is False
            assert meta.layout_version == SHM_LAYOUT_VERSION
            assert meta.records == []
        finally:
            meta.unlink()

    def test_valid_bit_flips_in_place(self, shm_namespace):
        meta = LeafMetadata.create(shm_namespace, "0", 1)
        try:
            meta.set_valid(True)
            assert meta.valid is True
            meta.set_valid(False)
            assert meta.valid is False
        finally:
            meta.unlink()

    def test_records_roundtrip(self, shm_namespace):
        meta = LeafMetadata.create(shm_namespace, "0", 1)
        try:
            records = [
                TableSegmentRecord("events", "seg-0", 1024, 500, 20),
                TableSegmentRecord("errors", "seg-1", 64, 7, 0),
            ]
            meta.set_records(records)
            assert meta.records == records
        finally:
            meta.unlink()

    def test_set_records_preserves_valid_bit(self, shm_namespace):
        meta = LeafMetadata.create(shm_namespace, "0", 1)
        try:
            meta.set_valid(True)
            meta.set_records([TableSegmentRecord("t", "s", 1)])
            assert meta.valid is True
            assert meta.layout_version == 1
        finally:
            meta.unlink()

    def test_attach_sees_other_handle_state(self, shm_namespace):
        meta = LeafMetadata.create(shm_namespace, "0", 7)
        other = LeafMetadata.attach(shm_namespace, "0")
        try:
            meta.set_valid(True)
            assert other.valid is True
            assert other.layout_version == 7
        finally:
            other.close()
            meta.unlink()

    def test_exists(self, shm_namespace):
        assert not LeafMetadata.exists(shm_namespace, "0")
        meta = LeafMetadata.create(shm_namespace, "0", 1)
        assert LeafMetadata.exists(shm_namespace, "0")
        meta.unlink()
        assert not LeafMetadata.exists(shm_namespace, "0")

    def test_attach_missing_raises(self, shm_namespace):
        from repro.errors import ShmError

        with pytest.raises(ShmError):
            LeafMetadata.attach(shm_namespace, "nothing")
