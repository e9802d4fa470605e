"""Named shared memory segments with explicitly-managed lifetimes.

``multiprocessing.shared_memory.SharedMemory`` registers every created
segment with the stdlib resource tracker, which *unlinks it when the
creating process exits* — precisely the behaviour a restart-persistence
mechanism must avoid.  :class:`ShmSegment` unregisters from the tracker
at creation, making segment lifetime a deliberate responsibility of the
restart engine (create at shutdown, unlink after a successful restore or
a failed validity check), exactly as in the paper.
"""

from __future__ import annotations

import mmap
from multiprocessing import resource_tracker, shared_memory

from repro.errors import ShmError

#: Punches pages out of a shared mapping's backing store (Linux); where
#: the platform has none, :meth:`ShmSegment.release_pages` frees nothing.
_MADV_REMOVE = getattr(mmap, "MADV_REMOVE", None)


def _untrack(name: str) -> None:
    """Tell the resource tracker to forget a segment we manage ourselves."""
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


def _retrack(name: str) -> None:
    """Re-register a segment right before unlinking it.

    ``SharedMemory.unlink`` unregisters from the resource tracker; since
    creation unregistered already, the pair must be balanced or the
    tracker daemon logs spurious KeyErrors.
    """
    try:
        resource_tracker.register(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover
        pass


def segment_exists(name: str) -> bool:
    """Whether a shared memory segment with ``name`` currently exists."""
    try:
        segment = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    _untrack(name)
    segment.close()
    return True


class ShmSegment:
    """A named POSIX shared memory segment.

    Use :meth:`create` from the shutting-down process and :meth:`attach`
    from its replacement.  ``close`` drops this process's mapping;
    ``unlink`` removes the segment from the system.  The segment survives
    process exit until someone unlinks it.
    """

    def __init__(self, raw: shared_memory.SharedMemory) -> None:
        self._raw = raw
        self._closed = False
        self._released = 0  # pages [0, this) given back by release_pages

    @classmethod
    def create(cls, name: str, size: int) -> "ShmSegment":
        if size <= 0:
            raise ShmError(f"segment size must be positive, got {size}")
        try:
            raw = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError as exc:
            raise ShmError(f"shared memory segment '{name}' already exists") from exc
        except OSError as exc:
            raise ShmError(f"cannot create segment '{name}' of {size} bytes: {exc}") from exc
        _untrack(raw.name)
        return cls(raw)

    @classmethod
    def attach(cls, name: str) -> "ShmSegment":
        try:
            raw = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise ShmError(f"no shared memory segment named '{name}'") from exc
        _untrack(raw.name)
        return cls(raw)

    @property
    def name(self) -> str:
        return self._raw.name

    @property
    def size(self) -> int:
        return self._raw.size

    @property
    def buf(self) -> memoryview:
        if self._closed:
            raise ShmError(f"segment '{self.name}' is closed in this process")
        return self._raw.buf

    def write_at(self, offset: int, data: bytes | bytearray | memoryview) -> int:
        """Copy ``data`` into the segment; returns the offset past it.

        This is the library's ``memcpy``: one call moves one row block
        column.
        """
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise ShmError(
                f"write of {len(data)} bytes at {offset} overruns segment "
                f"'{self.name}' of {self.size} bytes"
            )
        self.buf[offset:end] = data
        return end

    def read_at(self, offset: int, length: int) -> memoryview:
        """A zero-copy view of ``length`` bytes at ``offset``."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ShmError(
                f"read of {length} bytes at {offset} overruns segment "
                f"'{self.name}' of {self.size} bytes"
            )
        return self.buf[offset : offset + length]

    def release_pages(self, end: int) -> int:
        """Give the whole pages below offset ``end`` back to the system.

        ``madvise(MADV_REMOVE)`` on the stdlib's own mapping
        (``SharedMemory._mmap``) frees their tmpfs backing and reads of
        them return zeros from then on, so only a reader done with every
        byte below ``end`` may call this.  Returns the bytes newly freed:
        0, with no syscall, unless ``end`` crossed a page boundary since
        the last call, and 0 where pages cannot be punched.
        """
        end = min(end, self.size) // mmap.PAGESIZE * mmap.PAGESIZE
        if end <= self._released or _MADV_REMOVE is None:
            return 0
        try:
            self._raw._mmap.madvise(_MADV_REMOVE, self._released, end - self._released)
        except OSError:
            return 0
        released, self._released = end - self._released, end
        return released

    def close(self) -> None:
        """Unmap from this process (the segment itself lives on)."""
        if not self._closed:
            self._raw.close()
            self._closed = True

    def unlink(self) -> None:
        """Remove the segment from the system."""
        self.close()
        _retrack(self._raw.name)
        try:
            self._raw.unlink()
        except FileNotFoundError:
            _untrack(self._raw.name)

    def __enter__(self) -> "ShmSegment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ShmSegment(name={self.name!r}, size={self.size}, {state})"
