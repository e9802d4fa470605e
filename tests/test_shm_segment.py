"""Tests for shared memory segments, including true cross-process
persistence — the property the whole paper rests on."""

import subprocess
import sys
import textwrap

import pytest

from repro.errors import ShmError
from repro.shm.segment import ShmSegment, segment_exists
from tests.conftest import SHM_DIR, open_handles


class TestSegmentBasics:
    def test_create_write_read(self, shm_namespace):
        segment = ShmSegment.create(f"{shm_namespace}-a", 64)
        try:
            end = segment.write_at(3, b"hello")
            assert end == 8
            assert bytes(segment.read_at(3, 5)) == b"hello"
        finally:
            segment.unlink()

    def test_attach_sees_writes(self, shm_namespace):
        name = f"{shm_namespace}-b"
        creator = ShmSegment.create(name, 32)
        creator.write_at(0, b"shared")
        reader = ShmSegment.attach(name)
        try:
            assert bytes(reader.read_at(0, 6)) == b"shared"
        finally:
            reader.close()
            creator.unlink()

    def test_create_duplicate_rejected(self, shm_namespace):
        name = f"{shm_namespace}-c"
        segment = ShmSegment.create(name, 16)
        try:
            with pytest.raises(ShmError):
                ShmSegment.create(name, 16)
        finally:
            segment.unlink()

    def test_attach_missing_rejected(self, shm_namespace):
        with pytest.raises(ShmError):
            ShmSegment.attach(f"{shm_namespace}-missing")

    def test_zero_size_rejected(self, shm_namespace):
        with pytest.raises(ShmError):
            ShmSegment.create(f"{shm_namespace}-z", 0)

    def test_write_bounds_checked(self, shm_namespace):
        segment = ShmSegment.create(f"{shm_namespace}-d", 8)
        try:
            with pytest.raises(ShmError):
                segment.write_at(5, b"toolong")
            with pytest.raises(ShmError):
                segment.write_at(-1, b"x")
        finally:
            segment.unlink()

    def test_read_bounds_checked(self, shm_namespace):
        segment = ShmSegment.create(f"{shm_namespace}-e", 8)
        try:
            with pytest.raises(ShmError):
                segment.read_at(4, 8)
            with pytest.raises(ShmError):
                segment.read_at(-1, 2)
        finally:
            segment.unlink()

    def test_closed_segment_rejects_access(self, shm_namespace):
        segment = ShmSegment.create(f"{shm_namespace}-f", 8)
        other = ShmSegment.attach(segment.name)
        other.close()
        with pytest.raises(ShmError):
            other.read_at(0, 1)
        segment.unlink()

    def test_unlink_is_idempotent(self, shm_namespace):
        segment = ShmSegment.create(f"{shm_namespace}-g", 8)
        other = ShmSegment.attach(segment.name)
        segment.unlink()
        other.unlink()  # already gone; must not raise

    def test_segment_exists(self, shm_namespace):
        name = f"{shm_namespace}-h"
        assert not segment_exists(name)
        segment = ShmSegment.create(name, 8)
        assert segment_exists(name)
        segment.unlink()
        assert not segment_exists(name)

    def test_create_makes_a_0600_object_under_the_name(self, shm_namespace):
        name = f"{shm_namespace}-mode"
        segment = ShmSegment.create(name, 8)
        try:
            assert (SHM_DIR / name).stat().st_mode & 0o777 == 0o600
            assert (SHM_DIR / name).stat().st_size == segment.size == 8
        finally:
            segment.unlink()

    def test_an_empty_object_exists_but_cannot_be_attached(self, shm_namespace):
        name = f"{shm_namespace}-empty"
        (SHM_DIR / name).touch(mode=0o600)
        try:
            assert segment_exists(name)
            with pytest.raises(ValueError):
                ShmSegment.attach(name)
        finally:
            (SHM_DIR / name).unlink()

    def test_a_live_view_pins_the_mapping_until_released(self, shm_namespace):
        segment = ShmSegment.create(f"{shm_namespace}-pinned", 8)
        segment.write_at(0, b"pinned")
        view = segment.read_at(0, 6)
        with pytest.raises(BufferError):
            segment.close()
        assert bytes(segment.read_at(0, 6)) == b"pinned"  # still open
        view.release()
        segment.unlink()
        with pytest.raises(ShmError):
            segment.read_at(0, 1)

    def test_context_manager_closes_not_unlinks(self, shm_namespace):
        name = f"{shm_namespace}-i"
        with ShmSegment.create(name, 8) as segment:
            segment.write_at(0, b"x")
        assert segment_exists(name)
        ShmSegment.attach(name).unlink()


class TestCrossProcessPersistence:
    def test_segment_survives_creating_process(self, shm_namespace):
        """A child process creates and fills a segment, then *exits*;
        this process attaches and reads the bytes — memory lifetime
        decoupled from process lifetime."""
        name = f"{shm_namespace}-x"
        child = textwrap.dedent(
            f"""
            from repro.shm.segment import ShmSegment
            segment = ShmSegment.create({name!r}, 64)
            segment.write_at(0, b"survived the process")
            segment.close()
            """
        )
        subprocess.run([sys.executable, "-c", child], check=True, timeout=60)
        segment = ShmSegment.attach(name)
        try:
            assert bytes(segment.read_at(0, 20)) == b"survived the process"
        finally:
            segment.unlink()

    def test_two_nonoverlapping_processes_communicate(self, shm_namespace):
        """Writer exits before the reader starts: exactly the paper's
        'communicate with its replacement' scenario."""
        name = f"{shm_namespace}-y"
        writer = textwrap.dedent(
            f"""
            from repro.shm.segment import ShmSegment
            s = ShmSegment.create({name!r}, 16)
            s.write_at(0, (123456).to_bytes(8, "little"))
            s.close()
            """
        )
        reader = textwrap.dedent(
            f"""
            from repro.shm.segment import ShmSegment
            s = ShmSegment.attach({name!r})
            value = int.from_bytes(bytes(s.read_at(0, 8)), "little")
            s.unlink()
            print(value)
            """
        )
        subprocess.run([sys.executable, "-c", writer], check=True, timeout=60)
        result = subprocess.run(
            [sys.executable, "-c", reader],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.strip() == "123456"


def leak_forever(name):
    segment = ShmSegment.attach(name)  # never closed
    return segment.size


def leak_on_raise(name, sink):
    segment = ShmSegment.attach(name)
    sink(bytes(segment.read_at(0, 8)))  # raises before the close
    segment.close()


class TestHandleGuard:
    """The per-test guard in conftest.py sees a handle the code drops
    without closing, on the normal path and on an exception edge."""

    @pytest.fixture
    def existing(self, shm_namespace):
        name = f"{shm_namespace}-guard"
        ShmSegment.create(name, 16).close()
        yield name
        ShmSegment.attach(name).unlink()

    def _assert_reported_then_close(self, shm_handles, name):
        assert open_handles(shm_handles) == [name]
        for handle in shm_handles:
            handle.close()
        assert open_handles(shm_handles) == []

    def test_reports_a_handle_never_closed(self, existing, shm_handles):
        assert leak_forever(existing) == 16
        self._assert_reported_then_close(shm_handles, existing)

    def test_reports_a_handle_leaked_on_raise(self, existing, shm_handles):
        def sink(data):
            raise ValueError("consumer failed")

        with pytest.raises(ValueError):
            leak_on_raise(existing, sink)
        self._assert_reported_then_close(shm_handles, existing)
