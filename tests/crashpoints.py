"""Crash points, enumerated from the side effects the code performs.

:class:`Recorder` patches every side-effecting primitive a restart, a
sync point or an expiry run goes through, and records each call, in
order, as an :class:`Effect` ``(kind, target)``:

==================================  ====================================
kind                                target
==================================  ====================================
``create``, ``unlink``              the shared memory segment's name
``set_valid``                       the metadata segment's name and the
                                    bit, as ``leaf-0-meta=True``
``set_records``                     the metadata segment's name
``fsync``, ``replace``,             the path, relative to ``root``
``unlink_file``                     (only paths under ``root`` count)
``manifest``                        the backup directory, as above
``send``                            the wire frame kind
``recv``                            ``header`` (the fixed frame header's
                                    size) or ``payload``: a frame is
                                    two effects
``allocate``, ``free``              the tracker region
==================================  ====================================

Nothing names a crash point: effect *k* of a recorded run *is* one.
:meth:`Recorder.fail` makes an effect raise instead of happening;
:meth:`Recorder.die_after` makes it the last thing the process does, and
:func:`in_child` runs a cycle in a forked child so that the death is
real.  Frames the in-process block server sends or reads are not
recorded: its threads serve whoever asks.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import repro.cluster.replication as replication
from repro.disk.backup import DiskBackup
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment
from repro.util.memtrack import MemoryTracker


class Effect(NamedTuple):
    kind: str
    target: str


class InjectedFault(Exception):
    """Raised in place of the effect a test picked."""


class _Trigger:
    """One armed action: at effect number ``at`` of the recording, or at
    the ``nth`` effect from arming of ``kind`` whose target contains
    ``target``.  Fires once."""

    def __init__(self, action, at, kind, target, nth):
        self.action, self.at, self.kind, self.target, self.nth = action, at, kind, target, nth

    def matches(self, index: int, effect: Effect) -> bool:
        if self.at is not None:
            return index == self.at
        if effect.kind == self.kind and self.target in effect.target:
            self.nth -= 1
            return self.nth == 0
        return False


class Recorder:
    """Records side effects through ``monkeypatch`` from construction on.

    ``root`` limits the file effects to paths under it (a test's
    ``tmp_path``); without it no file effect is recorded.  Segment names
    are recorded without their ``namespace-`` prefix, so runs in two
    namespaces record the same effects.
    """

    def __init__(
        self, monkeypatch, root: str | Path | None = None, namespace: str = ""
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.namespace = namespace
        self.effects: list[Effect] = []
        #: The effect a :meth:`fail` raised at, once it has.
        self.fired: Effect | None = None
        self._before: list[_Trigger] = []
        self._after: list[_Trigger] = []
        self._lock = threading.RLock()
        self._patch(monkeypatch)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def fail(self, at=None, kind=None, target="", nth=1, exc: BaseException | None = None):
        """Raise ``exc`` (default :class:`InjectedFault`) instead of one
        effect: number ``at`` of the recording, or the ``nth`` from now
        of ``kind`` whose target contains ``target``."""

        def action(index, effect):
            self.fired = effect
            raise exc if exc is not None else InjectedFault(f"injected at {index}: {effect}")

        self._before.append(_Trigger(action, at, kind, target, nth))

    def before(self, fn: Callable[[Effect], None], at=None, kind=None, target="", nth=1):
        """Call ``fn(effect)`` just before one effect happens."""
        self._before.append(_Trigger(lambda i, e: fn(e), at, kind, target, nth))

    def die_after(self, at=None, kind=None, target="", nth=1):
        """End the process with ``os._exit(0)`` right after one effect."""
        self._after.append(_Trigger(lambda i, e: os._exit(0), at, kind, target, nth))

    def reset(self) -> None:
        """Forget what was recorded and armed; count from zero again."""
        with self._lock:
            self.effects.clear()
            self._before.clear()
            self._after.clear()
            self.fired = None

    def of(self, *kinds: str) -> list[Effect]:
        """The recorded effects of ``kinds``, in order."""
        return [effect for effect in self.effects if effect.kind in kinds]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _effect(self, kind: str, target: str, call):
        with self._lock:
            index = len(self.effects)
            effect = Effect(kind, target)
            self.effects.append(effect)
            before = self._pop(self._before, index, effect)
            after = self._pop(self._after, index, effect)
        if before is not None:
            before.action(index, effect)
        result = call()
        if after is not None:
            after.action(index, effect)
        return result

    @staticmethod
    def _pop(triggers: list[_Trigger], index: int, effect: Effect) -> _Trigger | None:
        for trigger in triggers:
            if trigger.matches(index, effect):
                triggers.remove(trigger)
                return trigger
        return None

    def _name(self, name: str) -> str:
        prefix = f"{self.namespace}-"
        return name[len(prefix) :] if self.namespace and name.startswith(prefix) else name

    def _path(self, path) -> str | None:
        """``path`` relative to ``root``, or ``None`` outside it."""
        if self.root is None:
            return None
        try:
            return str(Path(path).resolve().relative_to(self.root.resolve()))
        except ValueError:
            return None

    def _patch(self, monkeypatch) -> None:
        record = self._effect
        real_create = ShmSegment.create.__func__
        real_unlink = ShmSegment.unlink
        real_set_valid = LeafMetadata.set_valid
        real_set_records = LeafMetadata.set_records
        real_fsync, real_replace = os.fsync, os.replace
        real_path_unlink = Path.unlink
        real_manifest = DiskBackup._save_manifest
        real_send, real_recv = replication.send_frame, replication._recv_exact
        real_allocate, real_free = MemoryTracker.allocate, MemoryTracker.free

        def create(cls, name, size):
            return record("create", self._name(name), lambda: real_create(cls, name, size))

        def unlink(segment):
            return record("unlink", self._name(segment.name), lambda: real_unlink(segment))

        def set_valid(meta, valid):
            target = f"{self._name(meta._segment.name)}={bool(valid)}"
            return record("set_valid", target, lambda: real_set_valid(meta, valid))

        def set_records(meta, records):
            target = self._name(meta._segment.name)
            return record("set_records", target, lambda: real_set_records(meta, records))

        def on_file(kind, path, call):
            relative = self._path(path)
            return call() if relative is None else record(kind, relative, call)

        def fsync(fd):
            path = os.readlink(f"/proc/self/fd/{fd}")
            return on_file("fsync", path, lambda: real_fsync(fd))

        def replace(src, dst, **kwargs):
            return on_file("replace", dst, lambda: real_replace(src, dst, **kwargs))

        def path_unlink(path, missing_ok=False):
            return on_file("unlink_file", path, lambda: real_path_unlink(path, missing_ok))

        def save_manifest(backup):
            return on_file("manifest", backup.directory, lambda: real_manifest(backup))

        def on_wire(kind, target, call):
            if threading.current_thread().name.startswith("replica-stream"):
                return call()  # the block server's side of the conversation
            return record(kind, target, call)

        def send_frame(sock, frame_kind, *chunks):
            return on_wire("send", str(frame_kind), lambda: real_send(sock, frame_kind, *chunks))

        def recv_exact(sock, nbytes):
            part = "header" if nbytes == replication._FRAME.size else "payload"
            return on_wire("recv", part, lambda: real_recv(sock, nbytes))

        def allocate(tracker, region, nbytes, at=None):
            return record("allocate", region, lambda: real_allocate(tracker, region, nbytes, at))

        def free(tracker, region, nbytes, at=None):
            return record("free", region, lambda: real_free(tracker, region, nbytes, at))

        monkeypatch.setattr(ShmSegment, "create", classmethod(create))
        monkeypatch.setattr(ShmSegment, "unlink", unlink)
        monkeypatch.setattr(LeafMetadata, "set_valid", set_valid)
        monkeypatch.setattr(LeafMetadata, "set_records", set_records)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "unlink", path_unlink)
        monkeypatch.setattr(DiskBackup, "_save_manifest", save_manifest)
        monkeypatch.setattr(replication, "send_frame", send_frame)
        monkeypatch.setattr(replication, "_recv_exact", recv_exact)
        monkeypatch.setattr(MemoryTracker, "allocate", allocate)
        monkeypatch.setattr(MemoryTracker, "free", free)


def in_child(cycle: Callable[[], object]) -> int:
    """Run ``cycle`` in a forked child and return its exit status: 0 if
    a :meth:`Recorder.die_after` ended it, 3 if the cycle finished
    without reaching that effect, 4 if it raised.

    Only the forking thread lives on in the child, so ``cycle`` must not
    need a lock another thread of this process may hold: an in-process
    block server keeps serving from the parent, and the child is only
    its client."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        status = 4
        try:
            cycle()
            status = 3
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)
