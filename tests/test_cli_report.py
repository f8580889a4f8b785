"""The CLI's one report path: outputs pinned, and --json honoured or rejected."""

import argparse
import hashlib
import json
import re

import pytest

from posetlex.cli import EXIT_ERROR, EXIT_OK, build_parser, main

from conftest import POSETS_DIR

#: The commands that read one poset file, each run on every bundled poset.
FILE_COMMANDS = (
    ["count"],
    ["enum"],
    ["probs"],
    ["delta"],
    ["check-13-23"],
    ["check-gpc"],
    ["check-gpc", "--nonadaptive"],
    ["check-gpc", "--via-decomposition"],
    ["sort-cost"],
    ["gold-bound"],
    ["decompose"],
    ["dot"],
)

#: The other commands, and two flag errors.
OTHER_RUNS = (
    ["lexsum", "posets/n.poset"] + ["posets/p312.poset"] * 4,
    ["compose-at", "posets/n.poset", "0", "posets/p312.poset"],
    ["sweep", "5"],
    ["lift-gpc", "posets/n.poset", "0", "posets/p312.poset"],
    ["verify-locality", "posets/table1_locality.json"],
    ["check-gpc", "--nonadaptive", "--via-decomposition", "posets/n.poset"],
    ["--cap", "3", "count", "posets/table1.poset"],
)

#: Commands that write a poset file or a graph, not a report.
WRITE_COMMANDS = {"lexsum", "compose-at", "dot"}

#: sha256 over every run's argv, exit code, stdout and stderr, text and
#: --json, with ``wall_time_s`` masked; the --json runs of WRITE_COMMANDS
#: are left out, since they printed a file, not a report.
OUTPUTS_SHA256 = "a4fafe7ec65e83d95bdc0dfcb5404a956a288295660ee90a6d216ecc0c3ebf25"

_WALL_TIME = re.compile(r'"wall_time_s": [0-9.e-]+')


def _pinned_runs():
    names = sorted(path.name for path in POSETS_DIR.glob("*.poset"))
    runs = [command + [f"posets/{name}"] for command in FILE_COMMANDS for name in names]
    for argv in runs + list(OTHER_RUNS):
        yield argv
        if argv[0] not in WRITE_COMMANDS:
            yield ["--json"] + argv


def test_cli_outputs_are_pinned(capsys, monkeypatch):
    """Every command on every bundled file prints what it printed before."""
    monkeypatch.chdir(POSETS_DIR.parent)  # argv and the locality spec name posets/...
    records = []
    for argv in _pinned_runs():
        code = main(argv)
        captured = capsys.readouterr()
        out = _WALL_TIME.sub('"wall_time_s": 0', captured.out)
        records.append(json.dumps([argv, code, out, captured.err]))
    assert len(records) == 173
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == OUTPUTS_SHA256


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


#: Arguments after each command's name; OUT stands for an output file.
OUT = object()
ARGS = {
    "count": ["posets/n.poset"],
    "enum": ["posets/n.poset"],
    "probs": ["posets/n.poset"],
    "delta": ["posets/n.poset"],
    "check-13-23": ["posets/n.poset"],
    "check-gpc": ["--via-decomposition", "posets/table1.poset"],
    "sort-cost": ["posets/n.poset"],
    "gold-bound": ["posets/n.poset"],
    "lexsum": ["posets/n.poset"] + ["posets/p312.poset"] * 4 + ["-o", OUT],
    "compose-at": ["posets/n.poset", "0", "posets/p312.poset", "-o", OUT],
    "verify-locality": ["posets/table1_locality.json"],
    "lift-gpc": ["posets/n.poset", "0", "posets/p312.poset"],
    "decompose": ["posets/table1.poset"],
    "dot": ["posets/n.poset"],
    "sweep": ["4"],
}


@pytest.mark.parametrize("command", _subcommands())
def test_cli_json_is_honoured_or_rejected(capsys, monkeypatch, tmp_path, command):
    """Under --json a command prints the envelope, or fails at once with
    nothing on stdout and no file written."""
    monkeypatch.chdir(POSETS_DIR.parent)
    out = tmp_path / "out.poset"
    argv = [str(out) if arg is OUT else arg for arg in ARGS[command]]
    code = main(["--json", command] + argv)
    captured = capsys.readouterr()
    if command in WRITE_COMMANDS:
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--json" in captured.err
        assert not out.exists()
    else:
        assert code == EXIT_OK
        doc = json.loads(captured.out)
        assert sorted(doc) == ["command", "input", "result", "wall_time_s"]
        assert doc["command"] == command
