"""Result records: immutable named tuples with pinned repr, and a CLI
import that stays free of the modules they once needed."""

import os
import subprocess
import sys

import pytest

from posetlex import (
    LocalityTable,
    PairCountMatrix,
    Poset,
    check_gpc,
    compose_at,
    decompose,
    enumerate_extensions,
    gap_profile,
    locality_table,
    pair_counts,
    sweep,
)
from posetlex import cli
from posetlex.decompose import autonomous_sets

from conftest import POSETS_DIR

A2, C2 = Poset.antichain(2), Poset.chain(2)
SPEC = (
    "LexSumSpec(base=Poset(2, [(0, 1)]), components=(Poset(2, []), Poset(1, [])), "
    "embed=((0, 1), (2,)), poset=Poset(3, [(0, 2), (1, 2)]), trivial=False)"
)
BRANCHES = (
    "(GpcBranch(result=(0, 1), t1=1, second=None, t2=1), "
    "GpcBranch(result=(1, 0), t1=1, second=None, t2=1))"
)

#: (build, repr, hashable): a record from the public API and its text.
#: Records holding a dict or a list do not hash, as frozen dataclasses did not.
RECORDS = {
    "LinearExtension": (
        lambda: enumerate_extensions(A2)[1], "LinearExtension(labels=(2, 1))", True
    ),
    "PairCountMatrix": (
        lambda: pair_counts(A2), "PairCountMatrix(columns=(4, 1), width=2, total=2)", True
    ),
    "GpcBranch": (
        lambda: check_gpc(A2).branches[0],
        "GpcBranch(result=(0, 1), t1=1, second=None, t2=1)",
        True,
    ),
    "GpcWitness": (
        lambda: check_gpc(A2),
        f"GpcWitness(first=(0, 1), t0=2, branches={BRANCHES}, strict=False)",
        True,
    ),
    "LexSumSpec": (lambda: compose_at(C2, 0, A2), SPEC, True),
    "LocalityTable": (
        lambda: locality_table(C2, 0, A2),
        f"LocalityTable(spec={SPEC}, columns=((0, 1), (1, 0)), "
        "packed={(0, 1): [197121], (1, 0): [196866]}, k=1, total=2)",
        False,
    ),
    "GapProfile": (
        lambda: gap_profile(A2, 0),
        "GapProfile(poset=Poset(2, []), point=0, classes={(1,): 1})",
        False,
    ),
    "AutonomousSet": (
        lambda: autonomous_sets(Poset.antichain(3))[0], "AutonomousSet(members=(0, 1))", True
    ),
    "Decomposition": (
        lambda: decompose(compose_at(C2, 0, A2).poset),
        "Decomposition(base=Poset(2, [(0, 1)]), index=0, factor=Poset(2, []), "
        "members=(0, 1), base_elements=(0, 2))",
        True,
    ),
    "SweepSummary": (
        lambda: sweep(2),
        "SweepSummary(max_n=2, mode='adaptive', total=4, chains=3, checked=1, "
        "gpc_failures=[], one_third_failures=[], unbalanced_witnesses=[])",
        False,
    ),
    "Report": (
        lambda: cli._cmd_count(None, A2),
        "Report(poset=Poset(2, []), result={'extensions': '2'}, text='2\\n', "
        "extensions=2, code=0)",
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    build, text, hashable = RECORDS[name]
    record = build()
    assert type(record).__name__ == name and repr(record) == text
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    # Only the two records with a cached property keep an instance dict.
    assert hasattr(record, "__dict__") == isinstance(record, (PairCountMatrix, LocalityTable))
    copy = record._replace()
    assert copy == record and copy is not record and type(copy) is type(record)
    changed = record._replace(**{first: None})
    assert getattr(changed, first) is None and getattr(record, first) is not None
    assert changed[1:] == record[1:] and type(changed) is type(record)
    if hashable:
        assert hash(copy) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_cached_properties_leave_repr_and_equality():
    """Reading ``counts`` keeps it in the instance dict, outside the tuple."""
    matrix = pair_counts(Poset.antichain(3))
    fresh = PairCountMatrix(*matrix)
    assert matrix.counts[0][1] == 3
    assert matrix == fresh and hash(matrix) == hash(fresh) and repr(matrix) == repr(fresh)


def test_cli_import_loads_no_record_machinery():
    """``import posetlex.cli`` brings in none of dataclasses, typing,
    inspect or random, whose import dominated CLI start-up."""
    code = (
        "import posetlex.cli, sys; "
        "print([m for m in ('dataclasses', 'typing', 'inspect', 'random') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(POSETS_DIR.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
