"""Tests for checksums, clocks, and the memory tracker."""

import pytest

from repro.errors import ChecksumMismatchError
from repro.util.checksum import crc32_of, verify_crc32
from repro.util.clock import ManualClock, SystemClock
from repro.util.memtrack import MemoryTracker


class TestChecksum:
    def test_chunked_equals_whole(self):
        assert crc32_of(b"hello", b"world") == crc32_of(b"helloworld")

    def test_verify_passes(self):
        verify_crc32(crc32_of(b"data"), b"data")

    def test_verify_fails_on_flip(self):
        with pytest.raises(ChecksumMismatchError):
            verify_crc32(crc32_of(b"data"), b"dara")

    def test_empty_input(self):
        assert crc32_of() == 0
        assert crc32_of(b"") == 0


class TestClocks:
    def test_system_clock_moves_forward(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()

    def test_manual_clock_advance(self):
        clock = ManualClock(10.0)
        assert clock.now() == 10.0
        clock.advance(5.0)
        assert clock.now() == 15.0

    def test_manual_clock_rejects_rewind(self):
        clock = ManualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(5.0)

    def test_manual_clock_set_forward(self):
        clock = ManualClock(10.0)
        clock.set(30.0)
        assert clock.now() == 30.0


class TestMemoryTracker:
    def test_allocate_free_balance(self):
        tracker = MemoryTracker()
        tracker.allocate("heap", 100)
        tracker.allocate("shm", 40)
        assert tracker.total == 140
        tracker.free("heap", 60)
        assert tracker.in_region("heap") == 40
        assert tracker.total == 80

    def test_peak_tracks_maximum(self):
        tracker = MemoryTracker()
        tracker.allocate("heap", 100)
        tracker.free("heap", 100)
        tracker.allocate("heap", 30)
        assert tracker.peak_total == 100

    def test_overfree_rejected(self):
        tracker = MemoryTracker()
        tracker.allocate("heap", 10)
        with pytest.raises(ValueError):
            tracker.free("heap", 11)

    def test_negative_sizes_rejected(self):
        tracker = MemoryTracker()
        with pytest.raises(ValueError):
            tracker.allocate("heap", -1)
        with pytest.raises(ValueError):
            tracker.free("heap", -1)

    def test_reset_peak(self):
        tracker = MemoryTracker()
        tracker.allocate("heap", 100)
        tracker.free("heap", 90)
        tracker.reset_peak()
        assert tracker.peak_total == 10
