"""The poset file format and the command-line front end."""

import json
import os
import subprocess
import sys

import pytest

from posetlex import Poset, count_extensions, files, linext
from posetlex.cli import EXIT_ERROR, EXIT_OK, main
from posetlex.files import FormatError

from conftest import POSETS_DIR


def test_loads_relations():
    p = files.loads("# comment\nn 3\nrel 0 1\nrel 1 2\n")
    assert p == Poset.chain(3)


def test_loads_permutation():
    p = files.loads("n 3\nperm 3 1 2\n")
    assert p == Poset.from_permutation([3, 1, 2])


def test_loads_errors():
    with pytest.raises(FormatError):
        files.loads("rel 0 1\n")  # missing n
    with pytest.raises(FormatError):
        files.loads("n 2\nn 2\n")
    with pytest.raises(FormatError):
        files.loads("n 2\nperm 1 2\nrel 0 1\n")
    with pytest.raises(FormatError):
        files.loads("n 2\nwat 1\n")
    with pytest.raises(FormatError):
        files.loads("n 3\nperm 1 2\n")


def test_dump_load_round_trip(tmp_path, n_poset):
    path = tmp_path / "n.poset"
    files.dump(n_poset, path, comment="round trip")
    assert files.load(path) == n_poset


def test_bundled_posets_load():
    expected = {
        "n.poset": 5,
        "p312.poset": 3,
        "table1.poset": 42,
        "p4123.poset": 4,
    }
    for name, count in expected.items():
        assert count_extensions(files.load(POSETS_DIR / name)) == count


def test_cli_count(capsys):
    code = main(["count", str(POSETS_DIR / "table1.poset")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "42"


def test_cli_count_json(capsys):
    code = main(["--json", "count", str(POSETS_DIR / "table1.poset")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "count"
    assert doc["result"]["extensions"] == "42"
    assert doc["input"]["elements"] == 6
    assert doc["wall_time_s"] >= 0


@pytest.mark.parametrize(
    "command, path, calls_made, extensions",
    [
        pytest.param("count", "table1.poset", 1, "42", id="count"),
        # enumerate_extensions checks its cap with one count
        pytest.param("enum", "p163425.poset", 1, "15", id="enum"),
        # pair_counts reads e(P) off its own forward pass
        pytest.param("probs", "table1.poset", 0, "42", id="probs"),
        # two enumerations (Q and the sum), each checking its cap with one
        # count; divisibility is read off the class table
        pytest.param(
            "verify-locality", "table1_locality.json", 2, "42", id="verify-locality"
        ),
    ],
)
def test_cli_json_count_counts_once(
    capsys, monkeypatch, command, path, calls_made, extensions
):
    """The --json envelope reuses the e(P) the command already holds."""
    calls = []

    def counted(poset):
        calls.append(poset)
        return count_extensions(poset)

    monkeypatch.setattr(linext, "count_extensions", counted)
    monkeypatch.chdir(POSETS_DIR.parent)  # the locality spec names posets/...
    assert main(["--json", command, str(POSETS_DIR / path)]) == EXIT_OK
    assert len(calls) == calls_made
    assert json.loads(capsys.readouterr().out)["input"]["extensions"] == extensions


def test_cli_calls_share_no_state(capsys):
    path = str(POSETS_DIR / "n.poset")
    assert main(["--json", "count", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["extensions"] == "5"
    assert main(["count", path]) == EXIT_OK
    assert capsys.readouterr().out == "5\n"
    assert main(["check-gpc", "--nonadaptive", path]) == EXIT_OK
    nonadaptive = json.loads(capsys.readouterr().out)
    assert main(["check-gpc", path]) == EXIT_OK
    adaptive = json.loads(capsys.readouterr().out)
    assert nonadaptive["branches"][1]["second"] == [2, 3]
    assert adaptive["branches"][1]["second"] == [0, 3]


def test_cli_enum_rows(capsys):
    code = main(["enum", str(POSETS_DIR / "p312.poset")])
    assert code == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3


def test_cli_delta(capsys):
    code = main(["delta", str(POSETS_DIR / "p163425.poset")])
    assert code == EXIT_OK
    assert "7/15" in capsys.readouterr().out


def test_cli_check_13_23(capsys):
    code = main(["check-13-23", str(POSETS_DIR / "n.poset")])
    assert code == EXIT_OK
    assert "balanced pair" in capsys.readouterr().out


def test_cli_check_gpc(capsys):
    code = main(["check-gpc", str(POSETS_DIR / "p312.poset")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["t0"] == 3
    assert len(doc["branches"]) == 2


def test_cli_check_gpc_via_decomposition(capsys):
    code = main(["check-gpc", "--via-decomposition", str(POSETS_DIR / "example19.poset")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["t0"] == 546510496896


def test_cli_check_gpc_rejects_nonadaptive_via_decomposition(capsys):
    # the decomposition route lifts adaptive witnesses only
    path = str(POSETS_DIR / "p163425.poset")
    code = main(["check-gpc", "--nonadaptive", "--via-decomposition", path])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_enum_over_default_cap_fails_at_once(capsys, tmp_path):
    path = tmp_path / "antichain10.poset"
    files.dump(Poset.antichain(10), path, "3,628,800 extensions")
    assert main(["enum", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_sort_cost_and_gold_bound(capsys):
    assert main(["sort-cost", str(POSETS_DIR / "p312.poset")]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    assert main(["gold-bound", str(POSETS_DIR / "p312.poset")]) == EXIT_OK
    assert "bound holds: True" in capsys.readouterr().out


def test_cli_probs(capsys):
    code = main(["probs", str(POSETS_DIR / "p312.poset")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "1/3" in out and "2/3" in out


def test_cli_lexsum_compose_dot(tmp_path, capsys):
    out = tmp_path / "sum.poset"
    code = main(
        [
            "compose-at",
            str(POSETS_DIR / "n.poset"),
            "0",
            str(POSETS_DIR / "p312.poset"),
            "-o",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert files.load(out) == files.load(POSETS_DIR / "table1.poset")
    code = main(["dot", str(out)])
    assert code == EXIT_OK
    assert "digraph" in capsys.readouterr().out


def test_cli_lexsum_stdout(capsys):
    code = main(
        [
            "lexsum",
            str(POSETS_DIR / "n.poset"),
            str(POSETS_DIR / "p312.poset"),
            str(POSETS_DIR / "p312.poset"),
            str(POSETS_DIR / "p312.poset"),
            str(POSETS_DIR / "p312.poset"),
        ]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert files.loads(text).n == 12


def test_cli_verify_locality(tmp_path, capsys):
    spec = {
        "base": str(POSETS_DIR / "n.poset"),
        "index": 0,
        "component": str(POSETS_DIR / "p312.poset"),
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["verify-locality", str(path)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == 3
    assert doc["k"] == 14
    assert doc["e"] == "42"
    assert doc["divisible"] is True


def test_cli_lift_gpc(capsys):
    code = main(
        ["lift-gpc", str(POSETS_DIR / "n.poset"), "0", str(POSETS_DIR / "p312.poset")]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 14
    assert doc["lifted_witness"]["t0"] == 42


def test_cli_decompose(capsys):
    code = main(["decompose", str(POSETS_DIR / "example19.poset")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["indecomposable"] is False
    assert doc["members"] == [3, 4, 5]
    code = main(["decompose", str(POSETS_DIR / "n.poset")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["indecomposable"] is True


def test_cli_sweep(capsys):
    code = main(["sweep", "4"])
    assert code == EXIT_OK
    assert "gpc failures: 0" in capsys.readouterr().out
    assert main(["sweep", "9"]) == EXIT_ERROR
    assert "sweep capped at 8" in capsys.readouterr().err


def test_cli_error_exit_codes(capsys, tmp_path):
    assert main(["count", str(tmp_path / "missing.poset")]) == EXIT_ERROR
    bad = tmp_path / "bad.poset"
    bad.write_text("n 3\nrel 0 1\nrel 1 0\n")
    assert main(["count", str(bad)]) == EXIT_ERROR
    capsys.readouterr()


def test_cli_reports_are_byte_stable(capsys):
    main(["check-gpc", str(POSETS_DIR / "n.poset")])
    first = capsys.readouterr().out
    main(["check-gpc", str(POSETS_DIR / "n.poset")])
    second = capsys.readouterr().out
    assert first == second


def test_cli_closed_stdout_pipe_is_silent():
    # The read end is closed before the child starts, so its output hits EPIPE.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "posetlex.cli", "enum", str(POSETS_DIR / "table1.poset")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_ERROR
    assert stderr == b""
