"""ShmSegment lifetimes across process boundaries, with no helper process.

``multiprocessing.shared_memory`` hands every segment to the stdlib's
resource-tracker helper process, whose job is to unlink "leaked"
segments when the registering process exits — exactly what a
restart-persistence mechanism must prevent.  :class:`ShmSegment` opens
and maps its POSIX object itself, so no process but the ones that call
``unlink`` ever removes one: a forked worker that creates, attaches or
closes segments leaves the parent's data alone, an interpreter that
exits (cleanly or killed) leaves its segments for the next one, and no
interpreter in a shared memory restart ever starts the tracker (or
prints its ``resource_tracker`` noise on stderr at exit).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.shm.segment import ShmSegment, segment_exists

pytestmark = pytest.mark.slow  # every test runs real child processes


def child_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_script(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-c", body],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )


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
        segment.unlink()  # already gone: nothing to do


class TestTrackerNoiseAtExit:
    """Run a whole interpreter and audit its stderr: the resource
    tracker prints 'leaked shared_memory objects' / KeyError warnings at
    exit when the register/unregister pairing is off."""

    def test_create_without_unlink_is_silent(self, shm_namespace):
        name = f"{shm_namespace}.deliberate"
        result = run_script(
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
        """An unlink tells no tracker anything: no KeyError from a
        double unregister."""
        name = f"{shm_namespace}.balanced"
        result = run_script(
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
        result = run_script(
            "from repro.shm.segment import ShmSegment\n"
            f"view = ShmSegment.attach({name!r})\n"
            "assert bytes(view.read_at(0, 32)) == b'x' * 32\n"
            "view.close()\n"
        )
        assert result.returncode == 0
        assert "resource_tracker" not in result.stderr, result.stderr
        assert segment_exists(name)
        segment.unlink()


#: Printed by a script's last line: whether this interpreter ever
#: started the stdlib's resource tracker.
TRACKER_PROBE = textwrap.dedent(
    """
    import sys
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    print("tracker pid:", None if tracker is None else tracker._resource_tracker._pid)
    """
)


def run_probed(body: str) -> subprocess.CompletedProcess:
    return run_script(textwrap.dedent(body) + TRACKER_PROBE)


class TestNoHelperProcess:
    """A shared memory restart is the engine's segments and nothing
    else: no interpreter starts the stdlib's resource tracker, so none
    writes to one, and nothing unlinks a segment behind the engine."""

    def test_segment_calls_and_a_leaf_restart_start_no_tracker(
        self, shm_namespace, tmp_path
    ):
        result = run_probed(
            f"""
            from pathlib import Path
            from repro.core.engine import RecoveryMethod
            from repro.disk.backup import DiskBackup
            from repro.server.leaf import LeafServer
            from repro.shm.segment import ShmSegment, segment_exists

            name = {shm_namespace + ".probe"!r}
            segment = ShmSegment.create(name, 64)
            segment.write_at(0, b"a name and a mapping")
            segment.close()
            segment = ShmSegment.attach(name)
            assert bytes(segment.read_at(0, 20)) == b"a name and a mapping"
            segment.unlink()
            assert not segment_exists(name)

            def leaf():
                backup = DiskBackup(Path({str(tmp_path)!r}))
                return LeafServer("0", backup=backup, namespace={shm_namespace!r}, rows_per_block=50)

            rows = [{{"time": 1000 + i, "host": f"h{{i % 3}}"}} for i in range(120)]
            first = leaf()
            first.start()
            first.add_rows("events", rows)
            first.shutdown(use_shm=True)
            second = leaf()
            report = second.start()
            assert report.method is RecoveryMethod.SHARED_MEMORY, report.method
            assert second.leafmap.row_count == 120
            second.shutdown(use_shm=False)
            """
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout.splitlines()[-1] == "tracker pid: None"

    def test_a_segment_whose_creator_was_killed_attaches_in_the_next_interpreter(
        self, shm_namespace
    ):
        name = f"{shm_namespace}.killed"
        creator = run_probed(
            f"""
            import os
            import signal
            from repro.shm.segment import ShmSegment

            segment = ShmSegment.create({name!r}, 64)
            segment.write_at(0, b"outlived a SIGKILL")
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        assert creator.returncode == -signal.SIGKILL
        assert segment_exists(name)
        reader = run_probed(
            f"""
            from repro.shm.segment import ShmSegment

            segment = ShmSegment.attach({name!r})
            assert bytes(segment.read_at(0, 18)) == b"outlived a SIGKILL"
            segment.unlink()
            """
        )
        assert reader.returncode == 0, reader.stderr
        assert reader.stderr == ""
        assert reader.stdout.splitlines()[-1] == "tracker pid: None"
        assert not segment_exists(name)
