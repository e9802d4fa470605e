"""Named shared memory segments with explicitly-managed lifetimes.

A segment is a POSIX shared memory object — a name under the leading
slash, mode ``0o600`` — opened with ``shm_open`` from ``_posixshmem``
(the C module ``multiprocessing.shared_memory`` itself calls) and mapped
with :class:`mmap.mmap`; the descriptor is closed once the mapping
exists.  Nothing else is registered anywhere: ``SharedMemory`` would
hand every name to the stdlib's resource-tracker helper process, which
*unlinks it when the creating process exits* — precisely the behaviour
a restart-persistence mechanism must avoid.  Segment lifetime is the
restart engine's deliberate responsibility instead (create at shutdown,
unlink after a successful restore or a failed validity check), exactly
as in the paper.
"""

from __future__ import annotations

import _posixshmem
import mmap
import os

from repro.errors import ShmError

#: Punches pages out of a shared mapping's backing store (Linux); where
#: the platform has none, :meth:`ShmSegment.release_pages` frees nothing.
_MADV_REMOVE = getattr(mmap, "MADV_REMOVE", None)

_MODE = 0o600


def _path(name: str) -> str:
    return f"/{name}"


def segment_exists(name: str) -> bool:
    """Whether a shared memory segment with ``name`` currently exists.

    The name is opened and closed again; nothing is mapped."""
    try:
        fd = _posixshmem.shm_open(_path(name), os.O_RDWR, mode=_MODE)
    except FileNotFoundError:
        return False
    os.close(fd)
    return True


class ShmSegment:
    """A named POSIX shared memory segment.

    Use :meth:`create` from the shutting-down process and :meth:`attach`
    from its replacement.  ``close`` drops this process's mapping;
    ``unlink`` removes the segment from the system.  The segment survives
    process exit until someone unlinks it.
    """

    def __init__(self, name: str, mapping: mmap.mmap) -> None:
        self._name = name
        self._mmap = mapping
        self._buf = memoryview(mapping)
        self._size = len(mapping)
        self._closed = False
        self._released = 0  # pages [0, this) given back by release_pages

    @classmethod
    def create(cls, name: str, size: int) -> "ShmSegment":
        if size <= 0:
            raise ShmError(f"segment size must be positive, got {size}")
        flags = os.O_CREAT | os.O_EXCL | os.O_RDWR
        try:
            fd = _posixshmem.shm_open(_path(name), flags, mode=_MODE)
        except FileExistsError as exc:
            raise ShmError(f"shared memory segment '{name}' already exists") from exc
        except OSError as exc:
            raise ShmError(f"cannot create segment '{name}' of {size} bytes: {exc}") from exc
        try:
            os.ftruncate(fd, size)
            mapping = mmap.mmap(fd, size)
        except BaseException as exc:
            _posixshmem.shm_unlink(_path(name))  # a failed create leaves no name
            if not isinstance(exc, OSError):
                raise
            raise ShmError(f"cannot create segment '{name}' of {size} bytes: {exc}") from exc
        finally:
            os.close(fd)
        return cls(name, mapping)

    @classmethod
    def attach(cls, name: str) -> "ShmSegment":
        """Map an existing segment whole.  An empty one cannot be mapped
        and raises ``ValueError``."""
        try:
            fd = _posixshmem.shm_open(_path(name), os.O_RDWR, mode=_MODE)
        except FileNotFoundError as exc:
            raise ShmError(f"no shared memory segment named '{name}'") from exc
        try:
            mapping = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        return cls(name, mapping)

    @property
    def name(self) -> str:
        return self._name

    @property
    def size(self) -> int:
        return self._size

    @property
    def buf(self) -> memoryview:
        if self._closed:
            raise ShmError(f"segment '{self.name}' is closed in this process")
        return self._buf

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

        ``madvise(MADV_REMOVE)`` on this handle's mapping frees their
        tmpfs backing and reads of them return zeros from then on, so
        only a reader done with every byte below ``end`` may call this.
        Returns the bytes newly freed: 0, with no syscall, unless ``end``
        crossed a page boundary since the last call, and 0 where pages
        cannot be punched.
        """
        end = min(end, self.size) // mmap.PAGESIZE * mmap.PAGESIZE
        if end <= self._released or _MADV_REMOVE is None:
            return 0
        try:
            self._mmap.madvise(_MADV_REMOVE, self._released, end - self._released)
        except OSError:
            return 0
        released, self._released = end - self._released, end
        return released

    def close(self) -> None:
        """Unmap from this process (the segment itself lives on).

        A view still exported from :meth:`read_at` or :attr:`buf` pins
        the mapping: the close raises ``BufferError`` and the handle
        stays open, to be closed once the view is released."""
        if self._closed:
            return
        self._buf.release()
        try:
            self._mmap.close()
        except BufferError:
            self._buf = memoryview(self._mmap)
            raise
        self._closed = True

    def unlink(self) -> None:
        """Unmap, then remove the segment from the system; already gone
        is fine."""
        self.close()
        try:
            _posixshmem.shm_unlink(_path(self._name))
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ShmSegment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ShmSegment(name={self.name!r}, size={self.size}, {state})"
