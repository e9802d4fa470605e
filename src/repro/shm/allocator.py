"""The road not taken: a custom allocator *inside* shared memory.

The paper's first design alternative (Section 3) was to allocate all data
in shared memory all the time, which "requires writing a custom allocator
to subdivide shared memory segments" and risks fragmentation because lazy
allocation of backing pages (jemalloc's anti-fragmentation weapon) is not
possible in shared memory.  Scuba rejected it.

This module implements exactly such an allocator — first-fit over an
explicit free list, with immediate neighbour coalescing — *instrumented
for fragmentation*, so experiment E11 can quantify the rejected design:
under a Scuba-like churn of mixed-size row block column allocations, the
largest satisfiable request shrinks even while plenty of total free bytes
remain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError


@dataclass
class _FreeBlock:
    offset: int
    size: int


@dataclass(frozen=True)
class FragmentationStats:
    """A point-in-time fragmentation picture of the arena."""

    capacity: int
    allocated_bytes: int
    free_bytes: int
    free_block_count: int
    largest_free_block: int

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/total_free: 0 = one hole, →1 = shattered."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free_block / self.free_bytes


class ShmAllocator:
    """First-fit allocator over a fixed-size arena with coalescing free.

    Offsets index into an external shared memory segment; the allocator
    only does bookkeeping, which is all the fragmentation study needs.
    Alignment is 8 bytes, matching a typical malloc's minimum.
    """

    ALIGNMENT = 8

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"arena capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._free: list[_FreeBlock] = [_FreeBlock(0, capacity)]
        self._allocated: dict[int, int] = {}  # offset -> size

    @staticmethod
    def _round_up(size: int) -> int:
        mask = ShmAllocator.ALIGNMENT - 1
        return (size + mask) & ~mask

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the offset.

        Raises :class:`AllocationError` when no single free block can
        hold the request, even if the *total* free space could — that gap
        is fragmentation, and it is the quantity E11 plots.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        need = self._round_up(size)
        for index, block in enumerate(self._free):
            if block.size >= need:
                offset = block.offset
                if block.size == need:
                    del self._free[index]
                else:
                    block.offset += need
                    block.size -= need
                self._allocated[offset] = need
                return offset
        raise AllocationError(
            f"no contiguous block of {need} bytes "
            f"(free {self.free_bytes} across {len(self._free)} holes, "
            f"largest {self.largest_free_block})"
        )

    def free(self, offset: int) -> None:
        """Return a block to the free list, coalescing neighbours."""
        size = self._allocated.pop(offset, None)
        if size is None:
            raise AllocationError(f"free of unallocated offset {offset}")
        # Insert in sorted position, then merge with adjacent holes.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].offset < offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, _FreeBlock(offset, size))
        # Coalesce with successor, then predecessor.
        if lo + 1 < len(self._free):
            nxt = self._free[lo + 1]
            if offset + size == nxt.offset:
                self._free[lo].size += nxt.size
                del self._free[lo + 1]
        if lo > 0:
            prev = self._free[lo - 1]
            if prev.offset + prev.size == offset:
                prev.size += self._free[lo].size
                del self._free[lo]

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocated.values())

    @property
    def free_bytes(self) -> int:
        return sum(block.size for block in self._free)

    @property
    def largest_free_block(self) -> int:
        return max((block.size for block in self._free), default=0)

    def stats(self) -> FragmentationStats:
        return FragmentationStats(
            capacity=self.capacity,
            allocated_bytes=self.allocated_bytes,
            free_bytes=self.free_bytes,
            free_block_count=len(self._free),
            largest_free_block=self.largest_free_block,
        )
