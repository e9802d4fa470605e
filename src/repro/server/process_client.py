"""Controller-side handle on a leaf server running in its own process.

:class:`LeafProcess` spawns ``repro.server.process_worker``, speaks its
JSON-line protocol, and implements the deploy script's shutdown loop
(paper, §4.3): send the shutdown command, wait for the process to die,
kill it if it overruns the deadline — in which case the valid bit was
never set and the replacement restarts from disk.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.watchdog import DEFAULT_SHUTDOWN_DEADLINE_SECONDS, wait_or_kill
from repro.errors import ReproError
from repro.query.aggregate import partial_from_wire
from repro.query.execute import LeafExecution
from repro.query.query import Query


class LeafProcessError(ReproError):
    """The worker process misbehaved or reported an error."""


@dataclass
class LeafProcessConfig:
    """Everything needed to (re)spawn one leaf worker.

    With ``supervised=True`` the spawn goes through
    :mod:`repro.server.supervisor`: the worker runs as the supervisor's
    child (inheriting its stdio, so this controller's pipes survive
    respawns) and a restart request — exit code 75 or a
    ``restart.requested`` file in the backup dir — replaces it with a
    genuinely new process, optionally under a new version.
    """

    leaf_id: str
    backup_dir: str | Path
    namespace: str = "scuba"
    version: str = "v1"
    rows_per_block: int | None = None
    capacity_bytes: int = 64 << 20
    supervised: bool = False

    def worker_args(self) -> list[str]:
        args = [
            "--leaf-id",
            str(self.leaf_id),
            "--backup-dir",
            str(self.backup_dir),
            "--namespace",
            self.namespace,
            "--version",
            self.version,
            "--capacity-bytes",
            str(self.capacity_bytes),
        ]
        if self.rows_per_block is not None:
            args += ["--rows-per-block", str(self.rows_per_block)]
        return args

    def argv(self) -> list[str]:
        if self.supervised:
            return [
                sys.executable,
                "-m",
                "repro.server.supervisor",
                "--restart-dir",
                str(self.backup_dir),
                "--",
                *self.worker_args(),
            ]
        return [
            sys.executable,
            "-m",
            "repro.server.process_worker",
            *self.worker_args(),
        ]


class LeafProcess:
    """One leaf server living in a child process."""

    def __init__(self, config: LeafProcessConfig, request_timeout: float = 120.0):
        self.config = config
        #: How long :meth:`request` waits for a reply before it kills the
        #: worker — one that stopped answering must not wedge its controller.
        self.request_timeout = request_timeout
        self._proc: subprocess.Popen | None = None
        self._unread = b""  # reply bytes past the last line handed out

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    @property
    def accepts_queries(self) -> bool:
        """A running worker answers queries (the aggregator's gate)."""
        return self.running

    def spawn(self, memory_recovery_enabled: bool = True) -> dict:
        """Start the worker process and have it recover its data.

        Returns the start report: ``{"method": "shared_memory"|"disk",
        "rows": ..., "seconds": ..., "timeline": [RestartEvent._asdict()]}``.
        """
        if self.running:
            raise LeafProcessError(f"leaf {self.config.leaf_id} is already running")
        self._proc = subprocess.Popen(
            self.config.argv(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._unread = b""
        return self.request(
            {"op": "start", "memory_recovery_enabled": memory_recovery_enabled}
        )

    def shutdown(
        self,
        use_shm: bool = True,
        deadline_seconds: float = DEFAULT_SHUTDOWN_DEADLINE_SECONDS,
    ) -> bool:
        """The §4.3 deploy loop: ask for a clean shutdown, wait, kill on
        overrun.  Returns True if the process exited on its own."""
        if not self.running:
            raise LeafProcessError(f"leaf {self.config.leaf_id} is not running")
        assert self._proc is not None and self._proc.stdin is not None
        self._proc.stdin.write(
            json.dumps({"op": "shutdown", "use_shm": use_shm}) + "\n"
        )
        self._proc.stdin.flush()
        clean = wait_or_kill(self._proc, timeout=deadline_seconds)
        self._drain()
        self._proc = None
        return clean

    def restart(
        self,
        mode: str = "execv",
        version: str | None = None,
        use_shm: bool = True,
        memory_recovery_enabled: bool = True,
    ) -> dict:
        """The in-place upgrade handoff: shm shutdown, process swap,
        recover on the same pipes.

        ``mode="execv"`` re-execs the worker in place (same pid, new
        image); ``mode="exit"`` has it exit 75 for the supervisor to
        respawn (new pid) — which requires ``supervised=True``.  Either
        way this controller's stdin/stdout survive, so the method simply
        sends ``restart``, then ``start``s the successor and returns its
        report.  ``version`` relabels the successor — the upgrade.
        """
        if mode == "exit" and not self.config.supervised:
            raise LeafProcessError(
                "restart mode 'exit' needs a supervisor to respawn the "
                "worker (spawn with supervised=True)"
            )
        payload: dict = {"op": "restart", "mode": mode, "use_shm": use_shm}
        if version is not None:
            payload["version"] = version
            self.config.version = version  # future respawns keep it
        handoff = self.request(payload)
        start = self.request(
            {"op": "start", "memory_recovery_enabled": memory_recovery_enabled}
        )
        return {"handoff": handoff, "start": start}

    def kill(self) -> None:
        """Simulate a hard crash: SIGKILL, no shutdown protocol."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._drain()
            self._proc = None

    def _drain(self) -> None:
        if self._proc is not None:
            for stream in (self._proc.stdin, self._proc.stdout, self._proc.stderr):
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------

    def request(self, payload: dict) -> dict:
        if not self.running:
            raise LeafProcessError(f"leaf {self.config.leaf_id} is not running")
        assert self._proc is not None
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(json.dumps(payload) + "\n")
        self._proc.stdin.flush()
        line = self._read_reply(payload.get("op"))
        if not line:
            stderr = ""
            if self._proc.stderr is not None:
                stderr = self._proc.stderr.read() or ""
            self.kill()
            raise LeafProcessError(
                f"leaf {self.config.leaf_id} died mid-request: {stderr.strip()[-500:]}"
            )
        response = json.loads(line)
        if not response.get("ok"):
            raise LeafProcessError(
                f"leaf {self.config.leaf_id}: {response.get('error', 'unknown error')}"
            )
        return response

    def _read_reply(self, op) -> str:
        """The next reply line ("" at EOF), waiting at most the request
        timeout: past it the worker is killed and the request fails.

        Reads the pipe's descriptor directly — nothing else reads the
        worker's stdout — because a wait on a buffered reader cannot be
        bounded.
        """
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self.request_timeout
        while b"\n" not in self._unread:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self.kill()
                raise LeafProcessError(
                    f"leaf {self.config.leaf_id} did not answer {op!r} within "
                    f"{self.request_timeout:g} s; the worker was killed"
                )
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return ""
            self._unread += chunk
        line, _, self._unread = self._unread.partition(b"\n")
        return line.decode()

    # ------------------------------------------------------------------
    # Data plane conveniences
    # ------------------------------------------------------------------

    def status(self) -> dict:
        return self.request({"op": "status"})

    def digest(self) -> str:
        """Content digest of all rows (restart-equivalence witness)."""
        return self.request({"op": "digest"})["digest"]

    def add_rows(self, table: str, rows: list[dict]) -> int:
        return self.request({"op": "add_rows", "table": table, "rows": rows})["added"]

    def query(self, query: Query) -> LeafExecution:
        response = self.request({"op": "query", "query": query.to_dict()})
        return LeafExecution(
            partial_from_wire(response["partial"]),
            rows_scanned=response["rows_scanned"],
            blocks_pruned=response["blocks_pruned"],
        )

    def sync(self) -> int:
        return self.request({"op": "sync"})["rows_synced"]

    def __repr__(self) -> str:
        state = f"pid={self._proc.pid}" if self.running else "stopped"
        return f"LeafProcess(leaf_id={self.config.leaf_id!r}, {state})"
