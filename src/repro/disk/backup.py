"""The leaf's disk backup manager.

During normal operation a leaf synchronizes new rows to disk at sync
points (asynchronously in production; callers here decide when).  A clean
shutdown "finishes any pending synchronization with the data on disk"
(paper, Section 4.1), so a subsequent disk recovery sees everything; a
crash may lose the rows added after the last sync point, which Scuba
accepts.

On-disk state, inside one directory per leaf::

    manifest.json           per table: ``synced_rows`` / ``log_bytes`` (rows
                            and log bytes vouched for), ``rows_expired``,
                            sync/snapshot generations, ``chain``
    <table>.scuba           legacy row-format file (append-only chunks)
    snapshots/<table>.shmdisk   shm-format snapshot (Section 6 fast tier)

Expiry is one number, not a file rewrite.  A live table only ever drops
its oldest blocks (``Table.expire``), so the rows it has lost are the
first ``rows_expired`` of its ingest order, and that count is all the
manifest records.  Every recovery rung trims it — legacy replay keeps
the log's trailing ``synced_rows - rows_expired`` rows, snapshot
recovery skips the chain's leading blocks that hold the first
``rows_expired`` rows — mirroring how Scuba makes deletions after
recovery ("Any needed deletions are made after recovery", Figure 5
caption).  A manifest from before the count was kept carries an
``expire_before`` cutoff instead, which legacy replay applies as a
timestamp filter.

The snapshot side implements the paper's Section 6 plan: at a sync point
whose table has no buffered rows, the table's sealed blocks are also
written in the shm format, stamped with the sync *generation*.  A
snapshot is trusted for recovery only when its generation equals the
manifest's sync generation — any later sync (or a torn snapshot write,
which leaves the previous generation on disk) makes it stale, and the
recovery ladder routes that table down to legacy replay.

Snapshots are *incremental*: instead of rewriting the whole table at
every generation, a sync point appends a **delta** file carrying only
the blocks sealed since the previous generation.  The manifest chain
(base + ordered deltas, each keyed to the generation it was taken at) is
what recovery materializes.  A link records only what it appends —
``{gen, file, kind, blocks, keys, rows_ingested, rows_expired}`` — and
the ingest positions it spans: a base ``[its rows_expired, its
rows_ingested)``, a delta ``[the previous link's rows_ingested, its
rows_ingested)``.  Two watermarks describe the chain, so expiry below
the sync watermark writes nothing: recovery trims the chain's head by
the manifest's count, as legacy replay trims the log's.  When the chain
grows past ``max_chain_links`` or the dead share of its blocks crosses
``compact_churn``, the next snapshot *compacts*: it folds the chain back
into a single fresh base and deletes the obsolete delta files.  A sync
point whose generation already matches the chain tip writes nothing at
all.

What is already in the chain is decided by count and by **content
keys**, not by anything a process holds in memory: every link records,
under ``"keys"``, the :meth:`RowBlock.content_key` of each block it
appended.  The table's leading blocks that hold exactly the rows
between its expired count and the tip's ``rows_ingested`` are the ones
the chain holds, and their keys must equal the chain's last keys, in
order.  The keys are made of what a sealed block stores (header fields,
per-column length and footer CRC), so any restart that hands back the
same sealed bytes — shared memory, a replica, the snapshot chain itself
— and a reopened or :meth:`DiskBackup.reload`-ed manager all *extend*
the chain they find, writing only blocks it does not hold.  A legacy
replay re-seals every row into new blocks, shares nothing with the
chain, and honestly costs one fresh base; so does a chain an older
build wrote (:func:`written_by_older_build`), which recovery does not
read either.

The row-format side is delta-proportional too: a sync point transcodes
only the blocks that hold rows past the watermark, column by column
(:func:`repro.disk.format.encode_chunk_block`), and builds no row dicts.
One manifest is the commit point of a whole leaf sync, the log included.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import Table
from repro.disk.format import (
    encode_chunk_block,
    encode_chunk_rows,
    write_chunk_payload,
    write_file_header,
)
from repro.disk.shmformat import (
    SNAPSHOT_FLAG_DELTA,
    delta_filename,
    fsync_directory,
    safe_table_stem,
    snapshot_filename,
    write_table_shm_format,
)
from repro.errors import RecoveryError

_MANIFEST = "manifest.json"
_SNAPSHOT_DIR = "snapshots"
#: Entry keys an older build wrote that the ``rows_expired`` count replaced.
_SUPERSEDED_KEYS = {"next_seq", "expire_before", "expire_applied", "expire_gen"}

#: Chain-growth bound: a snapshot chain longer than this is folded back
#: into a single base at the next snapshot point (recovery cost stays
#: O(links) file opens, so the bound caps the worst-case restart read).
DEFAULT_MAX_CHAIN_LINKS = 8
#: Churn bound: once this fraction of all blocks ever appended to the
#: chain has expired out of it, the dead bytes on disk outweigh the
#: append savings and the next snapshot compacts.
DEFAULT_COMPACT_CHURN = 0.5


@dataclass
class SnapshotStats:
    """Cumulative write-path accounting for one backup's snapshot side.

    ``write_amplification`` is (bytes written per sync ÷ live sealed
    bytes), summed over every snapshot point — 1.0 is the full-rewrite
    floor, an append-mostly workload under incremental snapshots sits
    far below it.
    """

    snapshot_points: int = 0
    bases_written: int = 0
    deltas_written: int = 0
    #: Always 0: no link is written without a file.  Kept because the
    #: restart ledger reports every counter of this class.
    manifest_only_links: int = 0
    skipped_unchanged: int = 0
    compactions: int = 0
    snapshot_bytes_written: int = 0
    live_bytes_at_sync: int = 0
    manifests_published: int = 0

    @property
    def write_amplification(self) -> float | None:
        if self.live_bytes_at_sync == 0:
            return None
        return self.snapshot_bytes_written / self.live_bytes_at_sync


def written_by_older_build(entry: dict) -> bool:
    """Whether a table's manifest entry records its chain the way an
    older build did: no expired-row count, or a link with a drop list,
    without a file, or without int ``rows_ingested`` / ``rows_expired``
    / ``blocks`` and a list of ``keys``.

    Such a chain is never read (the table lands on legacy replay with
    the same rows) and never extended (the next snapshot is a base).
    """
    if not isinstance(entry.get("rows_expired"), int):
        return True
    for link in entry.get("chain") or ():
        if (
            link.get("dropped")
            or link.get("file") is None
            or not isinstance(link.get("rows_ingested"), int)
            or not isinstance(link.get("rows_expired"), int)
            or not isinstance(link.get("blocks"), int)
            or not isinstance(link.get("keys"), list)
        ):
            return True
    return False


def _unsynced_chunk(table: Table, offset: int) -> tuple[int, bytes]:
    """``(row count, chunk payload)`` of ``table.to_rows()[offset:]``:
    blocks wholly below ``offset`` skipped by row count, the rest
    transcoded, and only the write buffer's tail encoded from rows."""
    chunks = []
    for block in table.blocks:
        if offset < block.row_count:
            chunks.append(encode_chunk_block(block, offset))
        offset = max(0, offset - block.row_count)
    chunks.append(encode_chunk_rows(islice(table.iter_buffer_rows(), offset, None)))
    return sum(n for n, _ in chunks), b"".join(payload for _, payload in chunks)


class DiskBackup:
    """Manages the legacy-format backup (and shm-format snapshot chains)
    of one leaf's tables.

    ``snapshots=False`` keeps the legacy row format alone: no sync point
    writes a chain, and disk recovery reads none (the restart engine
    skips the snapshot tier and replays the log).  ``max_chain_links=1``
    is the pre-chain behavior — every snapshot point rewrites the table
    as a single base.
    """

    def __init__(
        self,
        directory: str | Path,
        snapshots: bool = True,
        max_chain_links: int = DEFAULT_MAX_CHAIN_LINKS,
        compact_churn: float = DEFAULT_COMPACT_CHURN,
    ) -> None:
        if max_chain_links < 1:
            raise ValueError("max_chain_links must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_dir = self.directory / _SNAPSHOT_DIR
        self.snapshots_enabled = snapshots
        self.max_chain_links = max_chain_links
        self.compact_churn = compact_churn
        self.stats = SnapshotStats()
        self._manifest: dict[str, dict] = {}
        #: What :meth:`publish_once` owes the disk, a failed publish
        #: included: a manifest ahead of its file, chain files renamed in
        #: but ``snapshots/`` not fsynced, files no longer named.
        self._deferred = False
        self._dirty = False
        self._chain_dir_dirty = False
        self._stale: list[Path] = []
        self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if path.exists():
            try:
                self._manifest = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise RecoveryError(f"unreadable backup manifest: {exc}") from exc
            # Manifests written before the snapshot side existed lack the
            # generation keys; zero means "no trusted snapshot".
            for entry in self._manifest.values():
                entry.setdefault("sync_gen", 0)
                entry.setdefault("snapshot_gen", 0)

    def _save_manifest(self) -> None:
        tmp = self._manifest_path().with_suffix(".tmp")
        # fsync before the rename: the snapshot generation watermark must
        # be durable, or a crash could leave a manifest that trusts a
        # snapshot which no longer matches it.
        with open(tmp, "w") as fh:
            # Compact: ``indent`` would select json's pure-Python encoder,
            # and every reader parses either form.
            fh.write(json.dumps(self._manifest, sort_keys=True, separators=(",", ":")))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._manifest_path())
        # And the rename itself must be durable: without the directory
        # fsync a crash can roll back to the previous manifest while the
        # files it described are gone (or vice versa).
        fsync_directory(self.directory)
        self.stats.manifests_published += 1

    @contextmanager
    def publish_once(self) -> Iterator[None]:
        """One publish for every manifest change made inside the
        (outermost) block, at its exit — on an exception too: what is
        already durable is worth vouching for.  The commit point of a
        sync: one fsync of ``snapshots/`` if a chain file was renamed in,
        one manifest, then the unlinks.  No manifest is published before
        every byte it vouches for is durable; files leave only after it
        stopped naming them."""
        outer, self._deferred = self._deferred, True
        try:
            yield
        finally:
            self._deferred = outer
            if not outer:
                if self._chain_dir_dirty:
                    fsync_directory(self.snapshot_dir)
                    self._chain_dir_dirty = False
                if self._dirty:
                    self._save_manifest()
                    self._dirty = False
                while self._stale:
                    self._stale.pop().unlink(missing_ok=True)

    def reload(self) -> None:
        """Reread the manifest from disk, dropping in-memory state.

        Needed when another process advanced this leaf's backup, syncing
        tables and bumping generations that this process's cached
        manifest predates.  The manifest is all the chain state there
        is, so the next snapshot extends whatever chain the other
        process left.
        """
        self._manifest = {}
        self._load_manifest()

    def _entry(self, table_name: str) -> dict:
        return self._manifest.setdefault(
            table_name,
            {"synced_rows": 0, "sync_gen": 0, "snapshot_gen": 0},
        )

    def table_file(self, table_name: str) -> Path:
        return self.directory / f"{safe_table_stem(table_name)}.scuba"

    def snapshot_path(self, table_name: str) -> Path:
        return self.snapshot_dir / snapshot_filename(table_name)

    @property
    def table_names(self) -> list[str]:
        return list(self._manifest)

    def synced_rows(self, table_name: str) -> int:
        return self._manifest.get(table_name, {}).get("synced_rows", 0)

    def log_bytes(self, table_name: str) -> int | None:
        """The row log's commit mark, its length at the last published
        append; ``None`` (older manifests) trusts the file to its end."""
        return self._manifest.get(table_name, {}).get("log_bytes")

    def expire_cutoff(self, table_name: str) -> int:
        """The timestamp cutoff a manifest from before :meth:`rows_expired`
        recorded instead of a count (0 = none)."""
        return self._manifest.get(table_name, {}).get("expire_before", 0)

    def rows_expired(self, table_name: str) -> int | None:
        """How many of the table's oldest rows (in ingest order) the live
        table had expired at the last record or sync.

        ``None`` for manifests written before the count was tracked;
        legacy replay then filters rows by :meth:`expire_cutoff`.
        """
        return self._manifest.get(table_name, {}).get("rows_expired")

    def snapshot_chain(self, table_name: str) -> list[dict]:
        """The table's snapshot chain links (base first), possibly empty
        — so for a manifest from before chains, which recovery replays."""
        return self._manifest.get(table_name, {}).get("chain") or []

    def chain_files(self, table_name: str) -> list[Path]:
        """Paths of every file the table's chain references, base first."""
        return [
            self.snapshot_dir / link["file"]
            for link in self.snapshot_chain(table_name)
            if link.get("file") is not None
        ]

    def snapshot_fault(self, table_name: str) -> str | None:
        """Why the table's snapshot chain may not be trusted for
        recovery, or ``None`` when it may."""
        entry = self._manifest.get(table_name, {})
        gen, sync_gen = entry.get("snapshot_gen", 0), entry.get("sync_gen", 0)
        if gen <= 0 or gen != sync_gen:
            return f"snapshot generation {gen} does not match sync generation {sync_gen}"
        return self._chain_fault(table_name, entry)

    def _chain_fault(self, table_name: str, entry: dict) -> str | None:
        """What is wrong with ``entry``'s chain as a record of its
        snapshot generation, or ``None``: the generation check left to
        the caller, which is the sync that may be about to move it."""
        chain = entry.get("chain")
        if not chain:
            return "no snapshot chain"
        if chain[-1].get("gen") != entry.get("snapshot_gen"):
            return (
                f"chain tip generation {chain[-1].get('gen')}; manifest "
                f"expects {entry.get('snapshot_gen')}"
            )
        if written_by_older_build(entry):
            return "chain written by an older build"
        try:
            present = set(os.listdir(self.snapshot_dir))
        except FileNotFoundError:
            present = set()
        for link in chain:
            name = link.get("file")
            if name is not None and name not in present:
                return f"chain file '{name}' missing"
        return None

    def snapshot_valid(self, table_name: str) -> bool:
        """Whether the table's snapshot chain may be trusted for recovery."""
        return self.snapshot_fault(table_name) is None

    def snapshots_ready(self) -> bool:
        """Whether the snapshot recovery tier covers *every* backed-up table."""
        if not self._manifest:
            return False
        return all(self.snapshot_valid(name) for name in self._manifest)

    # ------------------------------------------------------------------
    # Sync points
    # ------------------------------------------------------------------

    def sync_table(self, table: Table) -> int:
        """Append every not-yet-synced row of ``table`` as one chunk.

        Returns the number of rows written.  Uses the table's monotone
        ingest/expiry counters to find the delta since the last sync, so
        repeated calls are idempotent when nothing changed.

        When snapshots are enabled and the table has no buffered rows,
        the sync point also refreshes the table's shm-format snapshot so
        the next restart can take the fast disk tier.  A sync with
        buffered rows leaves the snapshot stale on purpose: the snapshot
        holds sealed blocks only, so trusting it would drop the buffered
        rows that the legacy chunks do contain.

        That is one table's *write phase*, then the publish.  A fault
        in the write phase leaves the table's manifest entry as it was:
        what it wrote is unvouched, and a retry lands it once.  A table
        never synced before stays unnamed, so no manifest trusts its log.
        """
        with self.publish_once():
            before = self._manifest.get(table.name)
            entry = dict(self._entry(table.name))
            self._manifest[table.name] = entry
            try:
                return self._write_phase(table, entry)
            except BaseException:
                if before is None:
                    del self._manifest[table.name]
                else:
                    self._manifest[table.name] = before
                raise

    def _write_phase(self, table: Table, entry: dict) -> int:
        watermark = entry["synced_rows"]
        expired = table.total_rows_expired
        total = table.total_rows_ingested
        start = max(watermark, expired)
        written = 0
        if start < total:
            # Position 0 of the resident table is ingest position
            # ``expired``; only blocks holding unsynced rows are decoded.
            written, payload = _unsynced_chunk(table, start - expired)
            with open(self.table_file(table.name), "ab") as fh:
                # Bytes past the mark are a torn or unpublished append;
                # writing after them would bury them mid-file.  (No rows
                # synced vouches for no bytes; no mark, for the file.)
                vouched = entry.get("log_bytes", None if watermark else 0)
                if vouched is not None and fh.tell() > vouched:
                    fh.truncate(vouched)
                    fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    write_file_header(fh)
                write_chunk_payload(fh, written, payload)
                fh.flush()
                os.fsync(fh.fileno())
                entry["log_bytes"] = fh.tell()
        # Without new data, rows may still have expired past the watermark.
        changed = max(total, expired) > watermark
        if changed:
            entry["synced_rows"] = max(total, expired)
            entry["sync_gen"] = entry.get("sync_gen", 0) + 1
        # Keep the trim count in step with the live table: it tells every
        # recovery rung how many leading ingest positions are gone.
        if expired > entry.get("rows_expired", -1):
            entry["rows_expired"] = expired
            changed = True
        # With the count recorded, an older build's cutoff and block
        # numbering are read by nothing: stop carrying them forward.
        for key in _SUPERSEDED_KEYS & entry.keys():
            del entry[key]
            changed = True
        if self.snapshots_enabled and table.buffered_row_count == 0:
            if self.snapshot_valid(table.name):
                # The chain tip already carries this sync generation, and
                # expiry since it is the manifest's count: nothing to write.
                self.stats.skipped_unchanged += 1
            else:
                self._write_snapshot(table, entry)
                changed = True
        self._dirty |= changed
        return written

    # ------------------------------------------------------------------
    # Snapshot chain writes
    # ------------------------------------------------------------------

    def _write_snapshot(self, table: Table, entry: dict) -> None:
        """Advance the table's snapshot chain to the current generation.

        Appends a delta of the blocks the chain does not hold when the
        chain can be extended (:meth:`_chain_extension`), otherwise folds
        everything into a new base.  Files land (atomically, fsynced)
        *before* the manifest records their generation: a crash between
        the two leaves files whose generation the manifest does not vouch
        for, which the validity check routes down — never a
        trusted-but-wrong chain.  :meth:`publish_once` then owes the
        directory fsync, the manifest and the unlink of the files this
        made obsolete.
        """
        gen = entry.get("sync_gen", 0)
        if gen == 0:
            # A table can reach a snapshot point without ever having had
            # chunk-worthy rows (empty table); give it a real generation.
            gen = 1
            entry["sync_gen"] = gen
        name = table.name
        blocks = table.blocks
        keys = [block.content_key() for block in blocks]
        rows_ingested = table.total_rows_ingested - table.buffered_row_count
        rows_expired = table.total_rows_expired
        self.stats.snapshot_points += 1
        self.stats.live_bytes_at_sync += table.sealed_nbytes
        kept = self._chain_extension(name, entry, blocks, keys, rows_expired)
        chain, kept = ([], 0) if kept is None else (entry["chain"], kept)
        path = write_table_shm_format(
            self.snapshot_dir,
            name,
            blocks[kept:],
            generation=gen,
            rows_ingested=rows_ingested,
            rows_expired=rows_expired,
            flags=SNAPSHOT_FLAG_DELTA if chain else 0,
            filename=delta_filename(name, gen) if chain else None,
        )
        self._chain_dir_dirty = True
        self.stats.snapshot_bytes_written += path.stat().st_size
        if chain:
            self.stats.deltas_written += 1
        else:
            self.stats.bases_written += 1
            self._stale += [old for old in self.chain_files(name) if old != path]
        # Not an append: a failed write phase discards ``entry``, a
        # shallow copy, and must leave the old chain list as it was.
        entry["chain"] = [
            *chain,
            {
                "gen": gen,
                "file": path.name,
                "kind": "delta" if chain else "base",
                "blocks": len(blocks) - kept,
                "keys": keys[kept:],
                "rows_ingested": rows_ingested,
                "rows_expired": rows_expired,
            },
        ]
        entry["snapshot_gen"] = gen

    def _chain_extension(
        self,
        name: str,
        entry: dict,
        blocks: list[RowBlock],
        keys: list[str],
        rows_expired: int,
    ) -> int | None:
        """How many of a table's leading ``blocks`` (content ``keys``,
        ``rows_expired`` rows gone) the chain on disk already holds, or
        ``None`` when a fresh base is due instead.

        Those blocks hold exactly the ingest positions from the table's
        expired count up to the tip's ``rows_ingested``, and their keys
        must be the chain's last keys in order — a match by position, so
        blocks with equal content stay distinct.  The chain extends when
        the manifest vouches for its tip at an older generation
        (:meth:`_chain_fault`) and the table still shares a block with
        it.  A base is due on the first snapshot, for a chain an older
        build wrote, for a table legacy replay re-sealed (nothing
        resident is in the chain, so a delta would carry the whole table
        behind a chain of dead files), and — counted as a compaction —
        when the chain is too long or its dead blocks pass the churn
        threshold.
        """
        if self._chain_fault(name, entry) is not None:
            return None
        chain = entry["chain"]
        rows = chain[-1]["rows_ingested"] - rows_expired
        kept = 0
        while rows > 0 and kept < len(blocks):
            rows -= blocks[kept].row_count
            kept += 1
        held = [key for link in chain for key in link["keys"]]
        dead = len(held) - kept
        if rows or dead < 0 or keys[:kept] != held[dead:] or (held and not kept):
            return None
        total = len(held) + len(keys) - kept
        if len(chain) + 1 > self.max_chain_links or (
            total and dead / total > self.compact_churn
        ):
            self.stats.compactions += 1
            return None
        return kept

    def sync_leafmap(self, leafmap: LeafMap) -> int:
        """Sync every table as one transaction; returns rows written.

        Every table's write phase, then one publish: 2·tables + 3
        fsyncs and one manifest.  A fault in table *k*'s write phase
        still publishes the tables before *k* and then propagates.
        """
        with self.publish_once():
            return sum(self.sync_table(table) for table in leafmap)

    def record_expiry(self, table_name: str, rows_expired: int) -> None:
        """Record the table's expired-row count (never backwards).

        Does not invalidate the snapshot: recovery skips the chain's
        leading blocks that hold the first ``rows_expired`` rows, as
        legacy replay drops the log's leading rows.
        """
        entry = self._entry(table_name)
        changed = rows_expired > entry.get("rows_expired", -1)
        if changed:
            entry["rows_expired"] = rows_expired
        with self.publish_once():
            self._dirty |= changed

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def drop_table(self, table_name: str) -> None:
        self._stale += {
            self.table_file(table_name),
            self.snapshot_path(table_name),
            *self.chain_files(table_name),
        }
        with self.publish_once():
            self._manifest.pop(table_name, None)
            self._dirty = True

    def wipe(self) -> None:
        """Delete every backup file and the manifest (tests/teardown)."""
        for name in list(self._manifest):
            self.drop_table(name)
        if self.snapshot_dir.exists():
            for stray in self.snapshot_dir.iterdir():
                if stray.suffix in (".shmdisk", ".tmp"):
                    stray.unlink()
            try:
                self.snapshot_dir.rmdir()
            except OSError:
                pass
        if self._manifest_path().exists():
            self._manifest_path().unlink()
        self._manifest = {}
