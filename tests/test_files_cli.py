"""The poset file format and the command-line front end."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from posetlex import Poset, count_extensions, files, linext
from posetlex.cli import EXIT_ERROR, EXIT_OK, main
from posetlex.errors import SizeCapError
from posetlex.files import FormatError
from posetlex.generate import random_nonchain_poset, random_poset

from conftest import POSETS_DIR, posets


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
    for text in ["n 2\nrel 0 x\n", "n three\n", "n 3\nperm 1 2 z\n", "n 2\nrel 0 1.5\n"]:
        with pytest.raises(FormatError, match=r"^line \d+: expected an integer"):
            files.loads(text)
    with pytest.raises(FormatError, match=r"^line 1: expected a count of at least 1, got 0$"):
        files.loads("n 0\n")
    with pytest.raises(FormatError, match=r"^line 1: expected a count of at least 1, got -2$"):
        files.loads("n -2\nrel 0 1\n")
    with pytest.raises(SizeCapError, match=r"^line 2: poset size 30 exceeds cap 24$"):
        files.loads("# big\nn 30\nwat\n")  # fails at the n line, before the bad tag
    with pytest.raises(FormatError, match=r"^line 3: relation \(0,5\) out of range for n=2$"):
        files.loads("n 2\nrel 0 1\nrel 0 5\n")
    with pytest.raises(FormatError, match=r"^line 1: expected 'n <count>' first, got 'rel'$"):
        files.loads("rel -1 0\nn 2\n")
    with pytest.raises(FormatError, match=r"^line 2: permutation values must be distinct$"):
        files.loads("n 2\nperm 1 1\n")
    with pytest.raises(FormatError, match=r"^line 3: relations close to a cycle$"):
        files.loads("n 2\nrel 0 1\nrel 1 0\n")
    with pytest.raises(FormatError, match=r"^line 5: relations close to a cycle$"):
        files.loads("n 3\nrel 0 1\n# a comment\nrel 1 2\nrel 2 0\nrel 2 2\n")


@pytest.mark.parametrize(
    "text, line",
    [("rel 0 1\nn 2\n", 1), ("perm 2 1\nn 2\n", 1), ("# c\n\nrel 0 1\nn 2\n", 3)],
    ids=["rel", "perm", "after-comments"],
)
def test_loads_wants_n_first(text, line):
    """A rel or perm line before the n line is an error at its own line."""
    with pytest.raises(FormatError, match=rf"^line {line}: expected 'n <count>' first"):
        files.loads(text)


def test_loads_names_the_line_of_a_wrong_perm_length():
    with pytest.raises(FormatError, match=r"^line 2: perm has 2 values, expected 3$"):
        files.loads("n 3\nperm 1 2\n")


@settings(max_examples=80, deadline=None)
@given(posets(10))
def test_dumps_loads_round_trip(poset):
    assert files.loads(files.dumps(poset, comment="round trip")) == poset


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
        # the bound is decided from the e(P) the report prints
        pytest.param("gold-bound", "n.poset", 1, "5", id="gold-bound"),
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


@pytest.mark.parametrize(
    "argv",
    [
        # --cap bounds enumeration only; other commands reject it
        ["--cap", "3", "count", "table1.poset"],
        ["--cap", str(linext.DEFAULT_ENUM_CAP), "check-gpc", "n.poset"],
        # a cap below 1 is rejected before any work
        ["--cap", "0", "enum", "n.poset"],
        ["--cap", "-5", "enum", "table1.poset"],
        ["--cap", "-5", "verify-locality", "table1_locality.json"],
    ],
)
def test_cli_rejects_misplaced_or_nonpositive_cap(capsys, argv):
    argv = argv[:-1] + [str(POSETS_DIR / argv[-1])]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--cap" in captured.err


def test_cli_cap_is_honoured(capsys):
    path = str(POSETS_DIR / "n.poset")
    assert main(["--cap", "5", "enum", path]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert main(["--cap", "4", "enum", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds enumeration cap 4" in captured.err
    spec = str(POSETS_DIR / "table1_locality.json")
    assert main(["--cap", "1", "verify-locality", spec]) == EXIT_ERROR
    assert "exceeds enumeration cap 1" in capsys.readouterr().err
    # without --cap every command runs as before, enum under the default cap
    assert main(["count", path]) == EXIT_OK
    assert capsys.readouterr().out == "5\n"


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


_SPEC = {
    "base": str(POSETS_DIR / "n.poset"),
    "index": 0,
    "component": str(POSETS_DIR / "p312.poset"),
}


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["compose-at", "n.poset", "9", "p312.poset"], None),
        (["lift-gpc", "n.poset", "9", "p312.poset"], None),
        (["verify-locality"], {**_SPEC, "index": 9}),
        (["verify-locality"], {}),
        (["verify-locality"], [1]),
        (["verify-locality"], {**_SPEC, "index": [1]}),
        (["verify-locality"], {**_SPEC, "index": 1.9}),
        (["verify-locality"], {**_SPEC, "index": True}),
        (["verify-locality"], {**_SPEC, "base": None}),
    ],
    ids=[
        "compose-at-index",
        "lift-gpc-index",
        "spec-index-outside",
        "spec-empty",
        "spec-not-object",
        "spec-index-list",
        "spec-index-float",
        "spec-index-bool",
        "spec-base-null",
    ],
)
def test_cli_rejects_bad_index_or_spec(tmp_path, capsys, argv, spec):
    """An index outside the base or a malformed spec is an error, not a traceback."""
    if spec is None:
        argv = [argv[0], str(POSETS_DIR / argv[1]), argv[2], str(POSETS_DIR / argv[3])]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + [str(path)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _seeded_locality_spec(tmp_path):
    """A verify-locality spec for one seeded triple, P and Q written out."""
    rng = random.Random(14)
    base, component = random_poset(4, rng), random_nonchain_poset(3, rng)
    paths = [tmp_path / "P.poset", tmp_path / "Q.poset"]
    files.dump(base, paths[0])
    files.dump(component, paths[1])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": str(paths[0]), "index": 1, "component": str(paths[1])}))
    return spec


@pytest.mark.parametrize("seeded", [False, True], ids=["table1", "seeded"])
def test_cli_verify_locality_unpacks_nothing(capsys, monkeypatch, tmp_path, seeded):
    """verify-locality reads the packed class table: no extension of Q or
    of the sum becomes a LinearExtension."""
    unpack, unpacked = linext._unpack, []

    def counted(packed, n, head=0):
        out = unpack(packed, n, head)
        unpacked.extend(out)
        return out

    monkeypatch.setattr(linext, "_unpack", counted)
    monkeypatch.chdir(POSETS_DIR.parent)  # the locality spec names posets/...
    spec = _seeded_locality_spec(tmp_path) if seeded else POSETS_DIR / "table1_locality.json"
    assert main(["--json", "verify-locality", str(spec)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert int(doc["input"]["extensions"]) == doc["result"]["k"] * doc["result"]["columns"]
    assert unpacked == []


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


@pytest.mark.parametrize("argv", [["sweep", "0"], ["sweep", "--", "-1"]])
def test_cli_sweep_below_one_point(capsys, argv):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sweep needs at least 1 element")


def test_cli_error_exit_codes(capsys, tmp_path):
    assert main(["count", str(tmp_path / "missing.poset")]) == EXIT_ERROR
    bad = tmp_path / "bad.poset"
    bad.write_text("n 3\nrel 0 1\nrel 1 0\n")
    assert main(["count", str(bad)]) == EXIT_ERROR
    capsys.readouterr()


def test_cli_non_integer_field_names_path_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    for text, message in [
        ("n 2\n# a comment\nrel 0 x\n", "line 3: expected an integer, got 'x'"),
        ("n 2\nrel 0 5\n", "line 2: relation (0,5) out of range for n=2"),
        ("n 0\n", "line 1: expected a count of at least 1, got 0"),
        ("n 2\nrel 0 1\nrel 1 0\n", "line 3: relations close to a cycle"),
        ("n 2\nperm 1 1\n", "line 2: permutation values must be distinct"),
    ]:
        bad.write_text(text)
        assert main(["count", str(bad)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {message}\n"


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


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "posetlex", "count", str(POSETS_DIR / "n.poset")],
        capture_output=True,
        env=env,
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, b"5\n", b"")


#: sha256 of ``posetlex enum FILE`` for every bundled poset within the
#: default cap; example19.poset has e(P) above it.
ENUM_SHA256 = {
    "n.poset": "d99c482bb798e9d1c775f5ffc05ec945a966dde84500a72f359a65c33b91e451",
    "p15324.poset": "8543ff660d71c5cec612b4caf6eb539c13cff212253edfb21610d69f630bf637",
    "p163425.poset": "c5ee9fb66294d6cf87853c02b64a9be4b999cf40c705f6fa3ed496e15ab2a0dc",
    "p312.poset": "70a263c6180786c31105998e82330513f3945b2997143feba466153dfbe61bfb",
    "p4123.poset": "74251da84e3f32fd5befc8ce51f9d53259410cb3b5d96a0b2b414a1d0a0aee57",
    "table1.poset": "549e067f088ec0da73a2fb091a12403341c0c26166f7fab6a2aa012dd80b63d2",
}


def test_cli_enum_output_is_pinned(capsys):
    """``enum`` prints L(P) in the same order, byte for byte."""
    within = set()
    for path in sorted(POSETS_DIR.glob("*.poset")):
        if count_extensions(files.load(path)) > linext.DEFAULT_ENUM_CAP:
            continue
        within.add(path.name)
        assert main(["enum", str(path)]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ENUM_SHA256[path.name], path.name
    assert within == set(ENUM_SHA256)
