"""The docs name what exists: in every tracked Markdown file, a
backticked dotted name under ``repro.`` imports or resolves by
``getattr``, and a backticked path under ``src/``, ``tests/``,
``benchmarks/``, ``docs/`` or ``examples/`` exists.

A path may be a glob (``*``, ``**``, ``{a,b}``; a ``<placeholder>``
reads as ``*``) that must match something, or one the repository's
``.gitignore`` ignores: what a run writes, absent from a checkout.

A backticked command line, ``repro <subcommand> ...`` or ``python -m
repro <subcommand> ...``, names a subcommand of ``repro.cli.build_parser()``
(or a glob matching one) and only flags that subcommand takes.
"""

import argparse
import fnmatch
import importlib
import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
TICKED = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"repro(\.\w+)+")
PATH = re.compile(r"(src|tests|benchmarks|docs|examples)/\S*")
COMMAND = re.compile(r"(?:python -m )?repro ([a-z][\w*-]*)((?: .*)?)")


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def _mentions():
    """``(file, line, token)`` for every backticked token of every
    tracked Markdown file."""
    if shutil.which("git") is None or _git("rev-parse").returncode:
        pytest.skip("needs a git checkout to list the tracked files")
    for name in _git("ls-files", "*.md").stdout.split():
        text = (ROOT / name).read_text(encoding="utf-8")
        for match in TICKED.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield name, line, match.group(1).strip()


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                owner = getattr(owner, attr)
        except AttributeError:
            return False
        return True
    return False


def _exists(path: str) -> bool:
    alternatives = re.fullmatch(r"(.*)\{([^{}]*)\}(.*)", path)
    if alternatives:
        head, options, tail = alternatives.groups()
        return all(_exists(head + option + tail) for option in options.split(","))
    pattern = re.sub(r"<[^<>]*>", "*", path)
    if any(c in pattern for c in "*?["):
        return next(ROOT.glob(pattern.rstrip("/")), None) is not None
    return (ROOT / path).exists()


def _ignored(path: str) -> bool:
    return _git("check-ignore", "-q", "--no-index", path).returncode == 0


def test_backticked_repro_names_resolve():
    missing = [m for m in _mentions() if NAME.fullmatch(m[2]) and not _resolves(m[2])]
    assert not missing, "\n".join(f"{f}:{n}: `{t}`" for f, n, t in missing)


def test_backticked_paths_exist():
    missing = []
    for name, line, token in _mentions():
        if PATH.match(token):
            path = re.split(r"[\s:(]", token)[0]
            if not _exists(path) and not _ignored(path):
                missing.append(f"{name}:{line}: `{token}`")
    assert not missing, "\n".join(missing)


def _subcommands() -> dict[str, set[str]]:
    """Each subcommand of ``repro.cli.build_parser()`` and the flags it takes."""
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in subparsers.choices.items()
    }


def test_backticked_command_lines_parse():
    subcommands = _subcommands()
    wrong = []
    for name, line, token in _mentions():
        command = COMMAND.fullmatch(token)
        if command:
            matched = fnmatch.filter(subcommands, command.group(1))
            flags = set().union(*(subcommands[sub] for sub in matched))
            unknown = [
                arg
                for arg in shlex.split(command.group(2))
                if arg.startswith("-") and arg.split("=")[0] not in flags
            ]
            if not matched or unknown:
                wrong.append(f"{name}:{line}: `{token}`")
    assert not wrong, "\n".join(wrong)
