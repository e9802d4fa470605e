"""``repro.experiments``: one definition per experiment, two callers.

Every ``run()`` is exercised at tiny sizes for the *shape* it returns —
what ``repro bench-*`` prints, what ``--json`` and ``BENCH_<E>_JSON``
write, and what ``benchmarks/`` asserts.  Whether the floors hold at the
benchmark's sizes is ``benchmarks/``' job, not tier-1's.
"""

import copy
import functools
import json
import os
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro import experiments
from repro.cli import finish, main
from repro.core.engine import RestartEngine
from repro.experiments import e1, e12, e13, e15, e16, e17, e18
from repro.query.query import Query

#: experiment -> (tiny run() arguments, the CLI line that runs the same)
TINY = {
    e1: ({"rows": 2000}, ["bench-restart", "--rows", "2000"]),
    e12: ({"rows": 2000}, ["bench-restart", "--rows", "2000", "--disk-tier"]),
    e13: (
        {"rows": 2000, "repeats": 1},
        ["bench-query", "--rows", "2000", "--repeats", "1"],
    ),
    e15: (
        {"rows": 2000, "leaves": 2, "workers": 2},
        ["bench-restart", "--rows", "2000", "--leaves", "2", "--workers", "2"],
    ),
    e16: (
        {"rows": 2000, "leaves": 2},
        ["bench-restart", "--rows", "2000", "--leaves", "2", "--serve-while-restoring"],
    ),
    e17: (
        {"rows": 1000, "workers": 2},
        ["bench-restart", "--rows", "1000", "--workers", "2", "--incremental"],
    ),
    e18: (
        {"rows": 2000},
        ["bench-restart", "--rows", "2000", "--replica-tier"],
    ),
}
IDS = [module.__name__.rsplit(".", 1)[1] for module in TINY]


def leftovers() -> set[str]:
    """Everything an experiment workspace could leave behind."""
    prefix = experiments.NAMESPACE_PREFIX
    found = set()
    for directory in (Path("/dev/shm"), Path(tempfile.gettempdir())):
        if directory.is_dir():
            found |= {str(p) for p in directory.iterdir() if p.name.startswith(prefix)}
    return found


@functools.lru_cache(maxsize=None)
def tiny(module) -> dict:
    """``module.run()`` at its tiny size, once per session; copy before
    changing it."""
    before = leftovers()
    payload = module.run(**TINY[module][0])
    assert leftovers() == before
    return payload


def gate(name: str, *, ok: bool, enforced: bool) -> dict:
    return asdict(experiments.Gate(name, ">= 5x", "1.2x", ok, enforced))


class TestRunShape:
    @pytest.mark.parametrize("module", TINY, ids=IDS)
    def test_payload_and_both_writers(self, module, tmp_path, monkeypatch, capsys):
        payload = tiny(module)
        assert payload["experiment"] == module.__name__.rsplit(".", 1)[1].upper()
        assert payload["cpu_count"] == (os.cpu_count() or 1)
        assert payload["gates"]
        for entry in payload["gates"]:
            assert set(entry) == {f.name for f in fields(experiments.Gate)}
            assert isinstance(entry["ok"], bool) and isinstance(entry["enforced"], bool)
        # Every run produces the benchmark's gates, in the same order.
        assert [entry["name"] for entry in payload["gates"]] == list(module.GATES)

        # The benchmark's opt-in writer and the CLI's --json are one
        # function: same keys, whichever path asked for the file.
        env_file = tmp_path / "from_env.json"
        monkeypatch.setenv(f"BENCH_{payload['experiment']}_JSON", str(env_file))
        assert experiments.write_payload(payload) == str(env_file)
        cli_file = tmp_path / "from_cli.json"
        main([*TINY[module][1], "--json", str(cli_file)])
        assert f"wrote {cli_file}" in capsys.readouterr().out
        from_env = json.loads(env_file.read_text())
        from_cli = json.loads(cli_file.read_text())
        assert list(from_cli) == list(from_env) == list(payload)
        assert from_cli["experiment"] == payload["experiment"]

    def test_no_env_var_no_file(self, monkeypatch):
        monkeypatch.delenv("BENCH_E1_JSON", raising=False)
        assert experiments.write_payload({"experiment": "E1"}) is None


class TestGates:
    def test_multicore_floors_follow_the_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert not experiments.multicore()
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert experiments.multicore()
        assert not experiments.multicore(workers=2)

    def test_e15_thread_floor_is_recorded_not_enforced_below_four_cores(
        self, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        payload = e15.run(rows=2000, leaves=2, workers=2)
        sweep_gate = next(
            entry for entry in payload["gates"] if "workers=4 vs workers=1" in entry["name"]
        )
        assert sweep_gate["enforced"] is False
        assert "on 2 cores" in sweep_gate["measured"]
        assert set(payload["worker_sweep_seconds"]) == {"1", "2", "4", "8"}

    def test_dashboard_probe_that_touches_no_data_cannot_pass(self, monkeypatch):
        """< 25% restored is vacuous when the window matches nothing."""
        monkeypatch.setattr(
            e16,
            "dashboard_query",
            lambda data: Query("service_requests", start_time=1, end_time=2),
        )
        payload = e16.run(rows=2000, leaves=2)
        first = payload["gates"][0]
        assert payload["first_answer"]["fraction_restored_at_first_query"] < 0.25
        assert payload["first_answer"]["rows_matched_at_first_query"] == 0
        assert first["ok"] is False and first["enforced"] is True

    def test_dashboard_query_reads_newest_from_the_rows(self):
        query = experiments.dashboard_query([{"time": 5}, {"time": 1000}])
        assert (query.start_time, query.end_time) == (970, 1001)


class TestExitCode:
    def test_failing_enforced_gate_exits_one(self, capsys):
        payload = {"cpu_count": 2, "gates": [gate("floor", ok=False, enforced=True)]}
        assert finish(payload) == 1
        assert "[FAILED] floor: 1.2x" in capsys.readouterr().out

    def test_failing_unenforced_gate_is_reported_and_exits_zero(self, capsys):
        payload = {
            "cpu_count": 2,
            "gates": [
                gate("held", ok=True, enforced=True),
                gate("needs cores", ok=False, enforced=False),
            ],
        }
        assert finish(payload) == 0
        out = capsys.readouterr().out
        assert "[ok] held" in out
        assert "[not enforced on 2 cores] needs cores: 1.2x" in out

    def test_cli_exit_code_is_the_gates_verdict(self, monkeypatch, capsys):
        """``bench-restart --incremental`` fails when a floor does."""
        payload = copy.deepcopy(tiny(e17))
        payload["gates"][0]["ok"] = False
        monkeypatch.setattr(e17, "run", lambda **kwargs: payload)
        assert main(["bench-restart", "--incremental"]) == 1
        assert "[FAILED] sync write bytes" in capsys.readouterr().out


class TestBenchRestartArguments:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--incremental", "--replica-tier"],
            ["--disk-tier", "--serve-while-restoring"],
            ["--workers", "2", "--disk-tier"],
            ["--workers", "2", "--serve-while-restoring"],
            ["--workers", "2", "--replica-tier"],
        ],
    )
    def test_two_modes_are_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-restart", "--rows", "2000", *flags])
        assert excinfo.value.code not in (0, None)


class TestWorkspaceCleanup:
    @pytest.mark.parametrize(
        "module, kwargs",
        [(e1, TINY[e1][0]), (e16, TINY[e16][0])],
        ids=["e1", "e16"],
    )
    def test_nothing_survives_a_run_that_raises_midway(
        self, module, kwargs, monkeypatch
    ):
        """Segments outlive their creator by design, so a run that dies
        between backup and restore must still unlink its own."""
        before = leftovers()
        real_restore = RestartEngine.restore
        at_stake = []

        def restore(self, *args, **kwargs):
            segments = [p for p in leftovers() - before if p.startswith("/dev/shm")]
            if not segments:  # a first boot: nothing to leak yet
                return real_restore(self, *args, **kwargs)
            at_stake.extend(segments)
            raise RuntimeError("injected mid-run failure")

        monkeypatch.setattr(RestartEngine, "restore", restore)
        with pytest.raises(RuntimeError, match="injected"):
            module.run(**kwargs)
        assert at_stake
        assert leftovers() == before
