"""Resource-tracker balance for ShmSegment across process boundaries.

``multiprocessing.shared_memory`` registers every segment with the
stdlib resource tracker, whose job is to unlink "leaked" segments when
the registering process exits — exactly what a restart-persistence
mechanism must prevent.  :class:`ShmSegment` untracks on create/attach
and retracks right before unlink, and that bookkeeping has to stay
balanced *per process*: a forked worker that creates, attaches, or
closes segments must neither let its tracker unlink data the parent
still needs, nor leave the pair unbalanced (which shows up as
``resource_tracker`` noise on stderr at interpreter exit).
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.shm.segment import ShmSegment, segment_exists

pytestmark = pytest.mark.slow  # every test runs real child processes


def child_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestForkedChildren:
    def test_segment_created_in_child_survives_child_exit(self, shm_namespace):
        """The core restart guarantee, one fork deep: the dying process
        writes the segment, its tracker must not reap it at exit."""
        name = f"{shm_namespace}.forked"
        ctx = multiprocessing.get_context("fork")

        def child():
            segment = ShmSegment.create(name, 64)
            segment.write_at(0, b"survives the creator")
            segment.close()

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(30)
        assert proc.exitcode == 0
        assert segment_exists(name)
        segment = ShmSegment.attach(name)
        assert bytes(segment.read_at(0, 20)) == b"survives the creator"
        segment.unlink()

    def test_child_attach_and_close_leaves_parents_segment_alone(
        self, shm_namespace
    ):
        name = f"{shm_namespace}.parent-owned"
        segment = ShmSegment.create(name, 64)
        segment.write_at(0, b"parent data")
        ctx = multiprocessing.get_context("fork")

        def child():
            view = ShmSegment.attach(name)
            assert bytes(view.read_at(0, 11)) == b"parent data"
            view.close()

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(30)
        assert proc.exitcode == 0
        # Neither the child's close nor its tracker touched the segment.
        assert segment_exists(name)
        assert bytes(segment.read_at(0, 11)) == b"parent data"
        segment.unlink()

    def test_child_unlink_is_visible_and_unrepeated_in_parent(self, shm_namespace):
        """One unlink, from whichever process, is the end of the segment;
        the parent's own unlink of the same name must not blow up."""
        name = f"{shm_namespace}.child-unlinked"
        segment = ShmSegment.create(name, 64)
        ctx = multiprocessing.get_context("fork")

        def child():
            view = ShmSegment.attach(name)
            view.unlink()

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(30)
        assert proc.exitcode == 0
        assert not segment_exists(name)
        segment.unlink()  # FileNotFoundError is swallowed and re-untracked


class TestTrackerNoiseAtExit:
    """Run a whole interpreter and audit its stderr: the resource
    tracker prints 'leaked shared_memory objects' / KeyError warnings at
    exit when the register/unregister pairing is off."""

    def run_script(self, body: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", body],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )

    def test_create_without_unlink_is_silent(self, shm_namespace):
        name = f"{shm_namespace}.deliberate"
        result = self.run_script(
            "from repro.shm.segment import ShmSegment\n"
            f"segment = ShmSegment.create({name!r}, 32)\n"
            "segment.close()\n"
        )
        assert result.returncode == 0
        assert "resource_tracker" not in result.stderr, result.stderr
        # The segment deliberately outlived the process; consume it here.
        assert segment_exists(name)
        ShmSegment.attach(name).unlink()

    def test_create_then_unlink_is_silent(self, shm_namespace):
        """The retrack-before-unlink dance must leave the tracker with a
        balanced ledger — no KeyError from a double unregister."""
        name = f"{shm_namespace}.balanced"
        result = self.run_script(
            "from repro.shm.segment import ShmSegment\n"
            f"segment = ShmSegment.create({name!r}, 32)\n"
            "segment.unlink()\n"
        )
        assert result.returncode == 0
        assert "resource_tracker" not in result.stderr, result.stderr
        assert not segment_exists(name)

    def test_attach_close_in_worker_interpreter_is_silent(self, shm_namespace):
        name = f"{shm_namespace}.attached"
        segment = ShmSegment.create(name, 32)
        segment.write_at(0, b"x" * 32)
        result = self.run_script(
            "from repro.shm.segment import ShmSegment\n"
            f"view = ShmSegment.attach({name!r})\n"
            "assert bytes(view.read_at(0, 32)) == b'x' * 32\n"
            "view.close()\n"
        )
        assert result.returncode == 0
        assert "resource_tracker" not in result.stderr, result.stderr
        assert segment_exists(name)
        segment.unlink()
