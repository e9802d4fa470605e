"""The hardware cost model, calibrated to the paper's numbers.

The paper quotes, for one machine with 144 GB of RAM holding ~120 GB of
data across 8 leaf servers:

- reading 120 GB from local disk: 20–25 minutes          (§1)
- reading *and translating* it to heap format: 2.5–3 h   (§1, §4.5)
- copying one leaf to shared memory at shutdown: 3–4 s   (§4.3)
- memory recovery: "a few seconds per leaf"              (§4.3)
- one leaf's rollover slot via shared memory: 2–3 min,
  "including the time to detect that a leaf is done with
  recovery and then initiate rollover for the next one"  (§4.5)
- full-cluster rollover: 10–12 h from disk, under 1 h via
  shared memory, of which deployment software is ~40 min (§1, §6)

These are mutually consistent only if concurrent disk recoveries
*thrash*: a 2014 Scuba machine used spinning disks, so eight interleaved
sequential readers degrade aggregate bandwidth far below one reader's.
The model therefore gives disk reads a concurrency penalty
(``disk_bandwidth(k) = base / (1 + thrash * (k - 1))``), while the
CPU-bound translate step scales with a bounded number of effective cores
and memory copies share the machine's copy bandwidth.

Every parameter is an explicit dataclass field, so benchmarks can sweep
them (e.g. E12 swaps the translate stage out; the SSD variant of §6 sets
``disk_seek_thrash = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MB = 1e6
GB = 1e9
MINUTE = 60.0
HOUR = 3600.0


@dataclass(frozen=True)
class HardwareProfile:
    """Per-machine performance constants for the simulator."""

    # Data geometry (paper, Sections 1-2).
    machine_ram_gb: float = 144.0
    data_gb_per_machine: float = 120.0
    leaves_per_machine: int = 8

    # Disk: one local spinning disk per machine, shared by its leaves.
    disk_read_mbps: float = 90.0
    #: Aggregate-bandwidth degradation per extra concurrent reader.
    #: 0 = perfect sharing (SSD-like); 0.65 reproduces the 2014 numbers.
    disk_seek_thrash: float = 0.65

    # Disk-format -> heap-format translation (CPU bound).
    translate_mbps: float = 22.5
    #: Effective cores available to concurrent translations on a machine.
    translate_cores: float = 4.0

    # Snapshot-tier recovery: the disk file *is* the shm layout, so the
    # "translate" step is a bulk per-column unpack — memory-ish speed,
    # bounded by the same machine-wide copy ceiling as shm restores.
    snapshot_unpack_gbps: float = 2.0

    # Memory: heap<->shared-memory copy bandwidth.  A single copy stream
    # is CPU/latency bound at ``mem_copy_gbps``; the machine's memory
    # controllers saturate at ``mem_total_gbps``, so concurrent streams
    # scale linearly only until they hit the ceiling (experiment E15).
    mem_copy_gbps: float = 4.0
    mem_total_gbps: float = 16.0
    #: Effective concurrent copy streams an *in-process thread pool*
    #: achieves.  CPython threads running bulk copies hold the GIL for
    #: each memcpy slice, so no matter how many workers are configured
    #: the machine sees roughly one stream (the paper's C++
    #: implementation has no such ceiling; neither do real leaf
    #: processes, one interpreter each).
    gil_copy_streams: float = 1.0

    # Incremental snapshot sync (§4.1: "only the sections of data that
    # have changed since the last synchronization point need to be
    # updated").  An append-mostly workload seals or expires only a
    # small fraction of a leaf's bytes between sync points; the delta
    # chain writes just that fraction, plus a full base rewrite every
    # ``snapshot_chain_links`` syncs when compaction folds the chain.
    snapshot_churn_fraction: float = 0.05
    snapshot_chain_links: int = 8

    # Parallel legacy replay.  Row decode + block sealing are pure-Python
    # CPU work, so the pool is of processes, which scale to the translate
    # cores.  The parent's serial share — the raw chunk scan and the
    # in-order merge — bounds the speedup (Amdahl).
    replay_serial_fraction: float = 0.08

    # Replica recovery tier: a restarting leaf pulls its sealed blocks
    # over the datacenter network from a standby on another machine, on
    # ``replica_streams`` concurrent TCP streams.  One stream is
    # latency/CPU bound well below the NIC; streams scale until they
    # saturate the host's usable network bandwidth.  The receiving side
    # still pays the bulk per-column unpack (same stage as the snapshot
    # tier), overlapped with the fetch.
    net_stream_gbps: float = 0.4
    net_total_gbps: float = 1.25
    replica_streams: int = 4
    #: Session setup: discovery, TCP connects, catalog exchange.
    replica_handshake_overhead_s: float = 0.3

    # Fixed overheads.
    process_restart_overhead_s: float = 12.0
    #: Serve-while-restoring: time to publish the block directory (map
    #: the segments, scan packed headers — no payload copies).  The leaf
    #: serves queries from this point; the restore copy continues in the
    #: background.
    lazy_publish_overhead_s: float = 0.5
    #: "time to detect that a leaf is done with recovery and then
    #: initiate rollover for the next one" (§4.5) — per rollover slot.
    detection_overhead_s: float = 115.0
    #: "The deployment software is responsible for about 40 minutes of
    #: overhead." (§6) — once per cluster rollover.
    deployment_overhead_s: float = 40.0 * MINUTE

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def data_bytes_per_leaf(self) -> float:
        return self.data_gb_per_machine * GB / self.leaves_per_machine

    def disk_aggregate_bps(self, concurrent_readers: int) -> float:
        """Aggregate disk bandwidth with ``k`` concurrent recoveries."""
        if concurrent_readers < 1:
            raise ValueError("need at least one reader")
        penalty = 1.0 + self.disk_seek_thrash * (concurrent_readers - 1)
        return self.disk_read_mbps * MB / penalty

    def disk_read_seconds(self, nbytes: float, concurrent_readers: int = 1) -> float:
        """Time for one leaf to read ``nbytes`` with ``k`` sharing the disk."""
        per_leaf = self.disk_aggregate_bps(concurrent_readers) / concurrent_readers
        return nbytes / per_leaf

    def translate_seconds(self, nbytes: float, concurrent: int = 1) -> float:
        """Time to translate ``nbytes`` disk->heap with ``m`` concurrent."""
        if concurrent < 1:
            raise ValueError("need at least one translator")
        share = min(1.0, self.translate_cores / concurrent)
        return nbytes / (self.translate_mbps * MB * share)

    def snapshot_translate_seconds(self, nbytes: float, concurrent: int = 1) -> float:
        """Bulk-unpack ``nbytes`` of shm-format disk bytes into the heap.

        Replaces the row-by-row ``translate_seconds`` stage when the
        snapshot tier runs: one bulk copy per row block column instead of
        re-encoding every row, so throughput is set by memory bandwidth,
        not by the CPU-bound translator.
        """
        if concurrent < 1:
            raise ValueError("need at least one unpacker")
        per_stream_gbps = min(
            self.snapshot_unpack_gbps, self.mem_total_gbps / concurrent
        )
        return nbytes / (per_stream_gbps * GB)

    def mem_copy_seconds(self, nbytes: float, concurrent: float = 1) -> float:
        """One direction of a heap<->shm copy with ``m`` leaves copying.

        Each stream runs at its single-stream rate until the machine's
        aggregate memory bandwidth is oversubscribed, then the streams
        share the ceiling fairly: ``min(mem_copy_gbps, mem_total / m)``
        per stream.  With the defaults, up to 4 concurrent copies are
        free and an 8-wide restart runs each stream at half speed —
        still a 4x machine-level speedup over sequential.
        """
        if concurrent < 1:
            raise ValueError("need at least one copier")
        per_stream_gbps = min(self.mem_copy_gbps, self.mem_total_gbps / concurrent)
        return nbytes / (per_stream_gbps * GB)

    def effective_copy_streams(self, workers: int, backend: str = "process") -> float:
        """Truly-concurrent copy streams ``workers`` workers achieve.

        ``"process"`` streams are real leaf processes — the paper's
        deployment, one interpreter each — so every worker is a stream;
        ``"thread"`` workers (an in-process ``Machine``'s pool) share
        one GIL, capping the machine at ``gil_copy_streams`` no matter
        the pool width.
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        if backend == "thread":
            return min(float(workers), self.gil_copy_streams)
        if backend == "process":
            return float(workers)
        raise ValueError(f"unknown restart backend {backend!r}")

    def parallel_restore_speedup(
        self, workers: int, backend: str = "process"
    ) -> float:
        """Machine-level speedup of restoring ``k`` leaves concurrently
        versus one at a time: linear in ``k`` until the memory-bandwidth
        ceiling, then flat at ``mem_total_gbps / mem_copy_gbps``.  For
        ``"thread"`` the GIL is the first ceiling — with the default
        ``gil_copy_streams`` the curve is flat at ~1x; ``"process"`` is
        the paper's machine, one leaf process per stream.
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        nbytes = self.data_bytes_per_leaf
        streams = self.effective_copy_streams(workers, backend)
        sequential = workers * self.mem_copy_seconds(nbytes, 1)
        # `streams` concurrent copies at a time, workers/streams waves.
        parallel = (workers / streams) * self.mem_copy_seconds(nbytes, streams)
        return sequential / parallel

    # ------------------------------------------------------------------
    # Incremental sync and parallel replay
    # ------------------------------------------------------------------

    def incremental_sync_bytes(
        self,
        nbytes: float,
        churn: float | None = None,
        chain_links: int | None = None,
    ) -> float:
        """Amortized snapshot bytes written per sync point for a leaf
        holding ``nbytes``: the churned fraction as a delta, plus the
        base rewrite compaction pays once per ``chain_links`` syncs."""
        churn = self.snapshot_churn_fraction if churn is None else churn
        chain_links = (
            self.snapshot_chain_links if chain_links is None else chain_links
        )
        if not 0.0 <= churn <= 1.0:
            raise ValueError("churn must be a fraction in [0, 1]")
        if chain_links < 1:
            raise ValueError("need at least one chain link")
        return nbytes * (churn + 1.0 / chain_links)

    def incremental_sync_reduction(
        self, churn: float | None = None, chain_links: int | None = None
    ) -> float:
        """Full-rewrite sync bytes over incremental sync bytes — the
        write-amplification drop the delta chain buys.  The defaults
        (5% churn, 8-link chains) give ~5.7x, the floor E17 asserts."""
        return 1e9 / self.incremental_sync_bytes(1e9, churn, chain_links)

    def effective_replay_streams(self, workers: int) -> float:
        """Truly-concurrent replay streams ``workers`` worker processes
        achieve: decode and seal are CPU-bound, so the machine's translate
        cores cap them."""
        if workers < 1:
            raise ValueError("need at least one worker")
        return min(float(workers), self.translate_cores)

    def parallel_replay_speedup(self, workers: int) -> float:
        """Speedup of the legacy translate stage with ``workers`` replay
        workers: Amdahl over the parent's serial chunk scan and merge,
        with the parallel share divided across the effective streams."""
        streams = self.effective_replay_streams(workers)
        serial = self.replay_serial_fraction
        return 1.0 / (serial + (1.0 - serial) / streams)

    # ------------------------------------------------------------------
    # Replica recovery tier
    # ------------------------------------------------------------------

    def replica_fetch_seconds(self, nbytes: float, streams: int | None = None) -> float:
        """Pull ``nbytes`` off a standby over ``streams`` pipelined TCP
        streams: each stream runs at its single-stream rate until the
        host NIC saturates, then they share the ceiling fairly."""
        streams = self.replica_streams if streams is None else streams
        if streams < 1:
            raise ValueError("need at least one stream")
        aggregate = min(self.net_total_gbps, streams * self.net_stream_gbps)
        return nbytes / (aggregate * GB)

    def replica_restart_seconds(self, streams: int | None = None) -> float:
        """One leaf's replica-tier recovery: handshake, then the wire
        fetch overlapped with the bulk per-column unpack (the pipeline
        runs at the slower of the two), plus process overhead.  No local
        disk read at all — the tier exists for exactly the case where
        the disk path would cost 20+ minutes."""
        nbytes = self.data_bytes_per_leaf
        fetch = self.replica_fetch_seconds(nbytes, streams)
        unpack = self.snapshot_translate_seconds(nbytes, 1)
        return (
            self.replica_handshake_overhead_s
            + max(fetch, unpack)
            + self.process_restart_overhead_s
        )

    def replica_restore_speedup(self, concurrent_on_machine: int = 1) -> float:
        """Replica-tier recovery versus the *snapshot* disk tier — the
        best disk rung, so the floor of what the wire buys.  With ``k``
        leaves of the same machine recovering at once the disk thrashes
        while each leaf's wire session has its own remote standby, so
        the ratio grows with ``k``."""
        return self.disk_snapshot_restart_seconds(
            concurrent_on_machine
        ) / self.replica_restart_seconds()

    # ------------------------------------------------------------------
    # Restart durations (per leaf)
    # ------------------------------------------------------------------

    def disk_restart_seconds(self, concurrent_on_machine: int = 1) -> float:
        """One leaf's full disk recovery: read + translate + overhead."""
        nbytes = self.data_bytes_per_leaf
        return (
            self.disk_read_seconds(nbytes, concurrent_on_machine)
            + self.translate_seconds(nbytes, concurrent_on_machine)
            + self.process_restart_overhead_s
        )

    def disk_snapshot_restart_seconds(self, concurrent_on_machine: int = 1) -> float:
        """One leaf's snapshot-tier disk recovery: read + bulk unpack.

        Same disk contention as legacy recovery (the bytes still come off
        the spindle), but the translate stage collapses to a near-copy.
        """
        nbytes = self.data_bytes_per_leaf
        return (
            self.disk_read_seconds(nbytes, concurrent_on_machine)
            + self.snapshot_translate_seconds(nbytes, concurrent_on_machine)
            + self.process_restart_overhead_s
        )

    def shm_shutdown_seconds(self, concurrent_on_machine: int = 1) -> float:
        """Copy-to-shared-memory at shutdown (paper: 3-4 s)."""
        return self.mem_copy_seconds(self.data_bytes_per_leaf, concurrent_on_machine)

    def shm_restore_seconds(self, concurrent_on_machine: int = 1) -> float:
        """Copy-back at startup ("a few seconds per leaf")."""
        return self.mem_copy_seconds(self.data_bytes_per_leaf, concurrent_on_machine)

    def shm_restart_seconds(self, concurrent_on_machine: int = 1) -> float:
        """One leaf's offline window via shared memory."""
        return (
            self.shm_shutdown_seconds(concurrent_on_machine)
            + self.shm_restore_seconds(concurrent_on_machine)
            + self.process_restart_overhead_s
        )

    def with_ssd(self) -> "HardwareProfile":
        """The §6 thought experiment: solid-state storage (no seek
        thrash, ~5x sequential bandwidth)."""
        return replace(self, disk_read_mbps=450.0, disk_seek_thrash=0.0)

    def with_shm_disk_format(self) -> "HardwareProfile":
        """The §6 plan measured as E12: the disk holds the shared memory
        layout, so translation becomes a near-copy at memory-ish speed."""
        return replace(self, translate_mbps=1000.0)


def paper_profile() -> HardwareProfile:
    """The default, paper-calibrated profile."""
    return HardwareProfile()
