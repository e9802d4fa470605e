#!/usr/bin/env python3
"""Call census: which ``src/repro`` functions does nothing ever enter?

Runs what exercises the program — tier-1, CI's ``--reprosan`` suites,
every ``benchmarks/test_bench_*.py``, the CI CLI smoke lines, the
examples, the ledger smoke and ``repro lint`` — with a
``sys.setprofile`` hook that every Python process they start inherits
through a generated ``sitecustomize``.  Each process appends a function's ``file:line`` the
first time it is entered, so a killed or forked worker loses nothing it
already reported.  Then it lists every ``def`` under ``src/repro`` that
no run entered, and whether its name appears anywhere else in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/``.

    python benchmarks/census.py                       # all runs (slow)
    python benchmarks/census.py --only tier1 lint     # a subset
    python benchmarks/census.py --json census.json    # machine-readable

A never-entered definition is a candidate, not a verdict: delete it,
move it to ``tests/`` (an oracle), or justify it in one line.  The ones
kept, each with its line:

- ``Clock.now``, ``ReplicaSession.fetch``/``fetch_many``/``close``:
  ``Protocol`` stubs; the classes that satisfy them run their own.
- ``RestoreDriver._publish_directory``/``_read_block``/``_read_blocks``/
  ``_close_source``: hooks every source overrides; the base raises, so
  a source that forgets one fails on its first restore.
- ``_SanLock.__getattr__``, ``_SanCondition.acquire``/``release``/
  ``notify``/``__getattr__``: the sanitizer's wrappers keep the whole
  ``threading`` API, so a lock call no test takes today still runs
  under ``--reprosan``.
- ``Schema.__repr__``, ``ShmSegment.__repr__``, ``LeafProcess.__repr__``:
  what a failed assertion or a debugger shows for these objects.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PY = sys.executable

CI_CLI = (
    "bench-restart --rows 4000",
    "bench-restart --rows 4000 --workers 4",
    "bench-restart --rows 4000 --workers 4 --budget-mb 1",
    "bench-restart --rows 4000 --disk-tier",
    "bench-restart --rows 4000 --serve-while-restoring",
    "bench-restart --rows 4000 --incremental",
    "bench-restart --rows 4000 --replica-tier",
    "bench-query --rows 20000",
)
PYTEST = (PY, "-m", "pytest", "-q", "-p", "no:cacheprovider")
#: CI's ``reprosan`` job: the suites it runs under the sanitizer
REPROSAN_TESTS = (
    "test_columnstore_colcache",
    "test_query_vectorized",
    "test_core_engine",
    "test_core_engine_tiers",
    "test_server_leaf",
    "test_core_lazyrestore",
    "test_server_serve_while_restoring",
    "test_cluster_replication",
    "test_crashpoints",
    "test_core_parallel",
    "test_server_machine",
    "test_disk_replay",
)
RUNS = {
    "tier1": [(*PYTEST, "tests")],
    "reprosan": [(
        *PYTEST, "--reprosan", f"--reprosan-report={os.devnull}",
        *(f"tests/{name}.py" for name in REPROSAN_TESTS),
    )],
    "bench": [(*PYTEST, *sorted(str(p) for p in ROOT.glob("benchmarks/test_bench_*.py")))],
    "cli": [(PY, "-m", "repro", *line.split()) for line in CI_CLI],
    "examples": [(PY, str(p)) for p in sorted(ROOT.glob("examples/*.py"))],
    "ledger": [(*PYTEST, "--noconftest", "benchmarks/ledger/test_ledger_smoke.py")],
    "lint": [(PY, "-m", "repro", "lint")],
}

SITECUSTOMIZE = """\
import os, sys, threading

_SRC, _OUT = {src!r}, {out!r}
_seen, _out = set(), [None, None]


def _census(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = (code.co_filename, code.co_firstlineno)
    if key in _seen or not key[0].startswith(_SRC):
        return
    _seen.add(key)
    if _out[0] != os.getpid():
        _out[:] = [os.getpid(), open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a", buffering=1)]
    _out[1].write(f"{{key[0]}}:{{key[1]}}\\n")


sys.setprofile(_census)
threading.setprofile(_census)
"""


def definitions() -> list[dict]:
    """Every function and method under ``src/repro``, with the lines its
    code object may report as its first (the ``def``, or a decorator)."""
    found = []

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append({
                    "path": str(path.relative_to(ROOT)),
                    "line": child.lineno,
                    "name": child.name,
                    "qualname": prefix + child.name,
                    "lines": {child.lineno, *(d.lineno for d in child.decorator_list)},
                    "file": str(path),
                })
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def run_all(groups: list[str], out: Path) -> dict[str, int]:
    hook = out / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(src=str(SRC), out=str(out))
    )
    paths = [str(hook), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    codes = {}
    for group in groups:
        for command in RUNS[group]:
            label = " ".join(Path(part).name if "/" in part else part for part in command[1:])
            print(f"[{group}] {label}", flush=True)
            codes[label] = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL
            ).returncode
    return codes


def entered(out: Path) -> set[tuple[str, int]]:
    hits = set()
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            hits.add((path, int(lineno)))
    return hits


def references(name: str) -> int:
    """Occurrences of ``name`` as a word in tracked code, its def excluded."""
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    count = 0
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for line in path.read_text().splitlines():
                if pattern.search(line) and not re.match(rf"\s*(async\s+)?def {name}\b", line):
                    count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", choices=list(RUNS), default=list(RUNS))
    parser.add_argument("--json", metavar="FILE", help="also write the census as JSON")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        codes = run_all(args.only, Path(tmp))
        hits = entered(Path(tmp))
    defs = definitions()
    missed = [d for d in defs if not any((d["file"], line) in hits for line in d["lines"])]
    for d in missed:
        d["references"] = None if d["name"].startswith("__") else references(d["name"])
    print(f"\n{len(missed)} of {len(defs)} src/ defs never entered "
          f"({', '.join(args.only)}):")
    for d in missed:
        flag = "  unreferenced" if d["references"] == 0 else ""
        print(f"  {d['path']}:{d['line']}  {d['qualname']}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "runs": codes,
            "defs": len(defs),
            "never_entered": [
                {k: d[k] for k in ("path", "line", "qualname", "references")} for d in missed
            ],
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
