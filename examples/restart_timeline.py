#!/usr/bin/env python3
"""Why did this leaf land on DISK_SNAPSHOT?  Its restart timeline says.

A leaf syncs to disk and shuts down into shared memory, as a planned
upgrade does.  While it is down, one byte of a row block's payload in its
``/dev/shm`` segment flips, and the standby that mirrors it goes away.
On restart the leaf walks the recovery ladder:

- shared memory is trusted (the valid bit is set), so memory recovery
  starts, and falls when the flipped block fails its checksum;
- the replica rung is next, but no standby answers;
- the shm-format snapshots on disk are trusted, so the leaf comes up
  from them.

Nothing here injects a fault through a hook: the corruption is real
bytes, and the standby is gone for real (it crashed, and the replica
catalog that lists it is closed).  The leaf's own report
is the whole answer: every state entered, every rung skipped or fallen
from and why, and every table as it came home.

Run:  python examples/restart_timeline.py
"""

import tempfile
import uuid
from pathlib import Path

from repro.cluster.replication import ReplicaCatalog
from repro.disk.backup import DiskBackup
from repro.server.leaf import LeafServer
from repro.shm.layout import read_block_headers
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment
from repro.util.clock import ManualClock
from repro.workloads import error_logs, service_requests

NAMESPACE = f"timeline-{uuid.uuid4().hex[:8]}"
BASE_TIME = 1_390_000_000


def flip_one_payload_byte(leaf_id: str) -> None:
    """Flip one byte in the middle of the last block of the last table's
    segment: the envelope and the block headers stay readable."""
    meta = LeafMetadata.attach(NAMESPACE, leaf_id)
    record = meta.records[-1]
    meta.close()
    with ShmSegment.attach(record.segment_name) as segment:
        view = segment.read_at(0, record.used_bytes)
        _, extents = read_block_headers(view)
        view.release()
    block = extents[-1]
    path = Path("/dev/shm") / record.segment_name
    with path.open("r+b") as segment_file:
        segment_file.seek(block.offset + block.size // 2)
        byte = segment_file.read(1)[0]
        segment_file.seek(-1, 1)
        segment_file.write(bytes([byte ^ 0x01]))


def describe(event) -> str:
    """One event as a line; ``at`` is left out because this leaf runs on a
    manual clock (a real one stamps every event with its wall clock)."""
    line = f"{event.kind:<12} {event.what}"
    if event.kind == "fall":
        line += f"  tables={event.tables}"
    if event.kind in ("fall", "table"):
        line += f"  blocks={event.blocks} rows={event.rows} bytes={event.bytes}"
    if event.reason:
        line += f"\n{'':<15}{event.reason}"
    return line


def main() -> None:
    clock = ManualClock(BASE_TIME + 3600)
    with tempfile.TemporaryDirectory() as tmp:
        leaf = LeafServer(
            "leaf-3",
            backup=DiskBackup(Path(tmp) / "leaf-3"),
            namespace=NAMESPACE,
            clock=clock,
            rows_per_block=512,
        )
        standby = LeafServer(
            "standby-3",
            backup=DiskBackup(Path(tmp) / "standby-3"),
            namespace=NAMESPACE,
            clock=clock,
            rows_per_block=512,
        )
        catalog = ReplicaCatalog()
        catalog.assign(leaf.leaf_id, standby)
        leaf.engine.replica_source = catalog.session_source(leaf.leaf_id)
        leaf.start()
        standby.start()
        for table, rows in (
            ("service_requests", list(service_requests(3000, start_time=BASE_TIME))),
            ("error_logs", list(error_logs(2000, start_time=BASE_TIME))),
        ):
            leaf.add_rows(table, rows)
            standby.add_rows(table, rows)
        leaf.sync_to_disk()
        leaf.shutdown(use_shm=True)

        flip_one_payload_byte(leaf.leaf_id)
        standby.crash()
        catalog.close()

        report = leaf.start()
        print(f"leaf {leaf.leaf_id} is {leaf.status.value} on {report.method.value}")
        for event in report.events:
            print("  " + describe(event))
        assert report.method.value == "disk_snapshot", report.method
        # ChecksumMismatchError is the CorruptionError a block's CRC raises.
        assert report.failure_reason.startswith("ChecksumMismatchError"), report.failure_reason
        leaf.crash()


if __name__ == "__main__":
    main()
