"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` from
argument validation) from operational failures (corruption, recovery
failure, capacity limits).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class CorruptionError(ReproError):
    """Raised when stored bytes fail validation (magic, checksum, bounds).

    This is the error a reader raises when a buffer that claims to be a
    row block column, row block, disk file, or shared memory segment does
    not decode cleanly.  It always means the *bytes* are wrong, never that
    the caller passed a bad argument.
    """


class ChecksumMismatchError(CorruptionError):
    """A payload's stored checksum does not match its recomputed value."""


class LayoutVersionError(ReproError):
    """The persisted layout version is not one this code can read.

    The paper keeps a layout version number in the leaf metadata so a new
    binary whose shared-memory layout changed refuses the old segments and
    falls back to disk recovery.
    """


class SchemaError(ReproError):
    """A row or column does not conform to the table schema."""


class CapacityError(ReproError):
    """An append or allocation would exceed a configured capacity limit."""


class StateError(ReproError):
    """An operation is not permitted in the current state machine state."""


class RecoveryError(ReproError):
    """A recovery path (shared memory or disk) failed irrecoverably."""


class SnapshotStaleError(RecoveryError):
    """A shm-format disk snapshot cannot be trusted for recovery.

    Raised when a snapshot's generation number does not match the backup
    manifest's watermark (the snapshot predates later sync points), or
    when the snapshot file is missing entirely.  The recovery ladder
    treats this as "route down to legacy replay", never as data loss.
    """


class ReplicaWireError(RecoveryError):
    """The replica block stream failed mid-session.

    Raised by the replication wire layer when a frame is malformed, a
    connection drops, the replica answers with an ERROR frame, or a
    session token is rejected.  The recovery ladder treats this exactly
    like a stale snapshot: abandon the replica rung all-or-nothing and
    route down to the local disk rungs — never data loss.
    """


class ShutdownTimeout(ReproError):
    """A clean shutdown overran its deadline and was killed.

    The deploy script gives a leaf 3 minutes to copy to shared memory
    and exit (paper, Section 4.3); a kill leaves the valid bit false, so
    the next start falls back to disk recovery.
    """


class ShmError(ReproError):
    """Shared memory segment creation, attach, or bookkeeping failed."""


class AllocationError(ShmError):
    """The (ablation-only) shared memory allocator could not satisfy a
    request, typically due to fragmentation."""


class QueryError(ReproError):
    """A query is malformed or references unknown tables/columns."""


class RoutingError(ReproError):
    """The tailer could not find any leaf willing to accept a batch."""
