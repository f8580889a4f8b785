"""Gold partition witnesses, sorting cost, and the golden-ratio bound."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetlex import (
    Poset,
    check_gpc,
    conjectures,
    files,
    gold_bound_holds,
    linext,
    prob,
    sort_cost,
    verify_gpc_witness,
)
from posetlex.conjectures import GpcBranch, GpcWitness, information_lower_bound, _fib
from posetlex.errors import ChainError, SizeCapError
from posetlex.generate import poset_classes, random_nonchain_poset, random_poset

from conftest import (
    POSETS_DIR,
    brute_extensions,
    brute_gpc,
    brute_sort_cost,
    labeled_posets,
    posets,
)


def test_chain_is_rejected():
    with pytest.raises(ChainError):
        check_gpc(Poset.chain(3))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        check_gpc(Poset.antichain(2), mode="clairvoyant")


def test_antichain_two_witness():
    w = check_gpc(Poset.antichain(2))
    assert w is not None and w.holds()
    assert w.t0 == 2
    # both outcomes are chains, so both seconds are vacuous
    assert all(b.second is None and b.t1 == 1 and b.t2 == 1 for b in w.branches)
    assert verify_gpc_witness(Poset.antichain(2), w)


def test_point_beside_chain_witness(point_and_chain):
    # e = 3; the t1 = 2 branch must lean on the partition equality 3 = 2 + 1.
    w = check_gpc(point_and_chain)
    assert w is not None and w.holds()
    assert verify_gpc_witness(point_and_chain, w)
    assert {b.t1 for b in w.branches} == {1, 2}
    assert Fraction(1, 3) <= prob(point_and_chain, *w.first) <= Fraction(2, 3)


@pytest.mark.parametrize("strict", [2, 0.5, 1, None, "yes"])
def test_strict_must_be_a_bool(strict):
    """strict=2 would search a stricter inequality, 0.5 put a float into the
    windows and the JSON; only False and True are accepted."""
    message = f"strict must be False or True, got {strict!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_gpc(Poset.antichain(3), strict=strict)


def test_strict_reading_fails_on_three_extensions(point_and_chain):
    # Any poset with exactly three extensions has a t1 = 2 outcome whose
    # real second comparison leaves one extension, so strictly 3 > 2 + 1
    # cannot hold.  The strict variant is kept for comparison only.
    assert check_gpc(point_and_chain, strict=True) is None
    assert check_gpc(Poset.antichain(2), strict=True) is not None


def test_window_is_the_inequality():
    """A count passes the window exactly when its pair works as a second.

    A chain outcome accepts every pair, since the vacuous t2 passes for
    every non-chain (t0 >= 2).  Otherwise the window is empty exactly when
    t0 < t1 + ceil(t1/2) (+1 when strict), the least t2 any second pair
    leaves, so ``check_gpc`` skips just the first pairs that bound rules out.
    """
    for t0 in range(2, 41):
        for strict in (False, True):
            assert conjectures._window(t0, 1, strict) == (0, 1), (t0, strict)
    for t0 in range(3, 41):
        for t1 in range(2, t0):
            for strict in (False, True):
                lo, hi = conjectures._window(t0, t1, strict)
                bound_ok = conjectures._partition_ok(t0, t1, (t1 + 1) // 2, strict)
                assert (lo > hi) == (not bound_ok), (t0, t1, strict)
                for before in range(t1 + 1):
                    t2 = max(before, t1 - before)
                    works = 0 < before < t1 and conjectures._partition_ok(t0, t1, t2, strict)
                    assert (lo <= before <= hi) == works, (t0, t1, before, strict)


@pytest.mark.parametrize(
    "poset, t0",
    [
        (Poset.antichain(2), 2),  # both outcomes are chains
        (files.load(POSETS_DIR / "p312.poset"), 3),  # one chain outcome
        (Poset.from_relations(3, [(0, 1), (0, 2)]), 2),
    ],
    ids=["antichain2", "p312", "vee"],
)
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("mode", ["adaptive", "nonadaptive"])
def test_chain_outcomes_match_reference_search(poset, t0, mode, strict):
    assert linext.count_extensions(poset) == t0
    assert check_gpc(poset, mode=mode, strict=strict) == brute_gpc(poset, mode, strict)


def test_witness_determinism(n_poset):
    assert check_gpc(n_poset) == check_gpc(n_poset)


@settings(max_examples=60, deadline=None)
@given(posets(6))
def test_witness_matches_reference_search(poset):
    assume(not poset.is_chain())
    counts = {}  # poset -> brute count, shared by the four brute_gpc calls
    for mode in ("adaptive", "nonadaptive"):
        for strict in (False, True):
            expected = brute_gpc(poset, mode, strict, counts)
            assert check_gpc(poset, mode=mode, strict=strict) == expected


@pytest.mark.parametrize(
    "name, outcomes",
    [
        # the unpruned search ran 4 outcome passes on p163425, 3 on example19;
        # the balance bound leaves the 2 outcomes of the witness's first pair
        ("p163425", 2),
        ("example19", 2),
    ],
)
@pytest.mark.parametrize("mode", ["adaptive", "nonadaptive"])
def test_balance_bound_skips_outcome_passes(monkeypatch, name, outcomes, mode):
    """Of the outcomes left, P + a<b is one pass and P + b<a no matrix at
    all: its counts are read off P's matrix less that one, pair by pair."""
    poset = files.load(POSETS_DIR / f"{name}.poset")
    passes = []
    matrix = linext._matrix

    def counted(p, given=()):
        if given:
            passes.append((p, given))
        return matrix(p, given)

    monkeypatch.setattr(linext, "_matrix", counted)
    witness = check_gpc(poset, mode=mode)
    assert witness is not None and verify_gpc_witness(poset, witness)
    assert len(witness.branches) == outcomes
    # the one pass is for P + a<b, the witness's first pair (a, b), on P's lattice
    assert passes == [(poset, (witness.first,))]


@pytest.mark.parametrize("mode", ["adaptive", "nonadaptive"])
def test_one_outcome_pass_per_first_pair(monkeypatch, mode):
    """Each first pair the balance bound admits costs one pass, for P + a<b."""
    rng = random.Random(31)
    passes = []
    matrix = linext._matrix

    def counted(p, given=()):
        passes.append((p, given))
        return matrix(p, given)

    monkeypatch.setattr(linext, "_matrix", counted)
    for n in (4, 5, 6, 7, 8):
        for _ in range(6):
            poset = random_nonchain_poset(n, rng)
            passes.clear()
            witness = check_gpc(poset, mode=mode)
            # P's own pass comes first, and every pass runs on P's lattice
            assert passes.pop(0) == (poset, ())
            assert all(p is poset for p, _ in passes)
            counts = linext.pair_counts(poset)
            pairs = poset.incomparable_pairs()
            if witness is not None:
                pairs = pairs[: pairs.index(witness.first) + 1]
            larger = [max(counts.counts[a][b], counts.counts[b][a]) for a, b in pairs]
            evaluated = [
                pair
                for pair, t1 in zip(pairs, larger)
                if counts.total >= t1 + (t1 + 1) // 2
            ]
            assert len(evaluated) >= 1
            assert [given for _, given in passes] == [(pair,) for pair in evaluated]


def test_nonadaptive_implies_adaptive():
    for n in range(2, 5):
        for poset in labeled_posets(n):
            if poset.is_chain():
                continue
            non = check_gpc(poset, mode="nonadaptive")
            if non is not None:
                assert verify_gpc_witness(poset, non)
                assert check_gpc(poset) is not None


def test_nonadaptive_can_fail_where_adaptive_succeeds():
    # point beside a 3-chain: no single second pair stays incomparable in
    # both outcomes of any admissible first comparison
    p = Poset.from_relations(4, [(1, 2), (2, 3)])
    assert check_gpc(p) is not None
    assert check_gpc(p, mode="nonadaptive") is None


def test_verify_rejects_tampering(point_and_chain):
    w = check_gpc(point_and_chain)
    bad_t0 = GpcWitness(w.first, w.t0 + 1, w.branches, w.strict)
    assert not verify_gpc_witness(point_and_chain, bad_t0)
    b = w.branches[0]
    forged = GpcBranch(b.result, b.t1 + 1, b.second, b.t2)
    bad_t1 = GpcWitness(w.first, w.t0, (forged, w.branches[1]), w.strict)
    assert not verify_gpc_witness(point_and_chain, bad_t1)
    mismatched = GpcWitness((0, 2), w.t0, w.branches, w.strict)
    assert not verify_gpc_witness(point_and_chain, mismatched)
    # each branch passes alone, but the other orientation goes unchecked
    one_sided = GpcWitness(w.first, w.t0, (b, b), w.strict)
    assert verify_gpc_witness(point_and_chain, w)
    assert not verify_gpc_witness(point_and_chain, one_sided)
    # the second branch's t1 is checked as t0 less the first's; 3 >= 1 + 1
    # would hold, and its second pair leaves max(1, 1 - 1) = 1 = t2
    c = w.branches[1]
    assert (c.t1, c.t2) == (2, 1)
    forged_second = GpcBranch(c.result, c.t1 - 1, c.second, c.t2)
    bad_second_t1 = GpcWitness(w.first, w.t0, (b, forged_second), w.strict)
    assert not verify_gpc_witness(point_and_chain, bad_second_t1)
    # a first pair out of range is rejected, not raised on, with the
    # branches oriented to match it
    for first in ((3, 0), (-1, 0)):
        results = (first, first[::-1])
        branches = tuple(GpcBranch(r, x.t1, x.second, x.t2) for r, x in zip(results, w.branches))
        assert not verify_gpc_witness(point_and_chain, GpcWitness(first, w.t0, branches, w.strict))
    # pairs that are not two integers are rejected, not raised on
    for second in ((), (0, 1, 2)):
        malformed = GpcWitness(w.first, w.t0, (b, GpcBranch(c.result, c.t1, second, c.t2)), w.strict)
        assert not verify_gpc_witness(point_and_chain, malformed)
    assert not verify_gpc_witness(point_and_chain, GpcWitness((0,), w.t0, w.branches, w.strict))


def test_verify_accepts_list_pairs():
    """A witness whose pairs are lists, as ``to_json_dict`` writes them,
    verifies as its tuple form does, and a forged t1 is still caught."""
    p = Poset.from_relations(3, [(0, 1)])
    w = check_gpc(p)
    branches = tuple(
        GpcBranch(list(b.result), b.t1, b.second and list(b.second), b.t2) for b in w.branches
    )
    listed = GpcWitness(list(w.first), w.t0, branches, w.strict)
    assert verify_gpc_witness(p, listed)
    b = branches[0]
    forged = GpcBranch(b.result, b.t1 + 1, b.second, b.t2)
    assert not verify_gpc_witness(p, listed._replace(branches=(forged, branches[1])))


def test_verify_rejects_comparable_first_pair():
    p = Poset.from_relations(3, [(0, 1)])
    w = check_gpc(p)
    assert w is not None
    chain = Poset.chain(3)
    assert not verify_gpc_witness(chain, w)


def test_sort_cost_basics():
    assert sort_cost(Poset.chain(5)) == 0
    assert sort_cost(Poset.antichain(2)) == 1
    # merging two sorted runs of 1 and 2 takes 2 comparisons worst case
    assert sort_cost(Poset.from_relations(3, [(1, 2)])) == 2
    # sorting 3 unknown elements takes 3 comparisons
    assert sort_cost(Poset.antichain(3)) == 3
    # 5 unknown elements: the classic 7-comparison bound is optimal
    assert sort_cost(Poset.antichain(5)) == 7
    # S(6..8) from cold calls; the unpruned minimax took minutes on 8
    assert [sort_cost(Poset.antichain(n)) for n in (6, 7, 8)] == [10, 13, 16]


def test_sort_cost_cap():
    with pytest.raises(SizeCapError):
        sort_cost(Poset.antichain(9))


@settings(max_examples=25, deadline=None)
@given(posets(6))
def test_sort_cost_matches_minimax(poset):
    assert sort_cost(poset) == brute_sort_cost(poset)


def test_sort_cost_matches_minimax_on_every_class():
    memo = {}  # one oracle search serves every class
    for p, _ in poset_classes(6):
        assert sort_cost(p) == brute_sort_cost(p, memo)


def test_sort_cost_matches_minimax_on_seeded_orders():
    # 8-point orders are compared only where the oracle's unpruned search is
    # quick: it takes seconds from a few hundred extensions on
    rng = random.Random(8128)
    sizes = []
    for n in (7,) * 4 + (8,) * 8:
        p = random_poset(n, rng)
        if n == 7 or linext.count_extensions(p) <= 120:
            assert sort_cost(p) == brute_sort_cost(p)
            sizes.append(n)
    assert sizes.count(8) >= 3


def test_sort_cost_keeps_no_state(monkeypatch):
    calls = []
    key = Poset.canonical_key

    def counted(poset):
        calls.append(poset)
        return key(poset)

    monkeypatch.setattr(Poset, "canonical_key", counted)
    assert sort_cost(Poset.antichain(6)) == 10
    first = len(calls)
    assert sort_cost(Poset.antichain(6)) == 10
    assert 0 < first == len(calls) - first
    assert not hasattr(conjectures, "_sort_cost_memo")


def test_sort_cost_reads_memo_before_pass(monkeypatch):
    """A node with e >= 7 always recurses, so a memo hit costs no pass."""
    passes = []
    matrix = linext._matrix

    def counted(poset, given=()):
        passes.append(poset)
        return matrix(poset, given)

    monkeypatch.setattr(linext, "_matrix", counted)
    assert sort_cost(Poset.antichain(7)) == 13
    # 71 when every node ran its pass before its memo lookup
    assert len(passes) == 60


def test_fibonacci_helper():
    assert [_fib(k) for k in range(-1, 8)] == [1, 0, 1, 1, 2, 3, 5, 8, 13]


def test_gold_bound_examples():
    # e = 2 >= phi^1, e = 3 >= phi^2, e = 6 >= phi^3, e = 120 >= phi^7
    for p in (
        Poset.antichain(2),
        Poset.from_relations(3, [(1, 2)]),
        Poset.antichain(3),
        Poset.antichain(5),
        Poset.chain(4),
    ):
        assert gold_bound_holds(p)


def test_gold_bound_is_exact_not_float():
    # F(C)*phi + F(C-1) decomposition: equality-tight case e = 3, C = 2
    p = Poset.from_relations(3, [(1, 2)])
    assert sort_cost(p) == 2
    # phi^2 = 2.618..., so 3 passes but any hypothetical e = 2 would not:
    # the exact test must distinguish A^2 >= 5 F(C)^2 at small numbers
    assert gold_bound_holds(p)


def test_information_lower_bound():
    assert information_lower_bound(Poset.chain(3)) == 0
    assert information_lower_bound(Poset.antichain(2)) == 1
    assert information_lower_bound(Poset.antichain(3)) == 3  # ceil(log2 6)
    assert sort_cost(Poset.antichain(4)) >= information_lower_bound(
        Poset.antichain(4)
    )


def test_verify_rejects_second_pair_comparable_in_outcome():
    # 0 < 2 beside 1: in the chain outcome 1 < 0 < 2, the pair (1, 2) is
    # ordered though P leaves it incomparable.  Counted as a comparison it
    # would leave max(1, 0) = 1 = t2, and 3 >= 1 + 1 would hold.
    p = Poset.from_relations(3, [(0, 2)])
    w = check_gpc(p)
    assert w.first == (0, 1) and verify_gpc_witness(p, w)
    b = w.branches[1]
    assert b.result == (1, 0) and (b.t1, b.t2) == (1, 1)
    assert not p.is_lt(1, 2) and p.with_relation(1, 0).is_lt(1, 2)
    for second in ((1, 2), (2, 1)):
        forged = GpcBranch(b.result, b.t1, second, b.t1)
        witness = GpcWitness(w.first, w.t0, (w.branches[0], forged), w.strict)
        assert witness.holds()
        assert not verify_gpc_witness(p, witness)


def test_verify_is_one_pass(monkeypatch):
    """Both branches record a second pair: every count comes from one pass."""
    poset = files.load(POSETS_DIR / "p163425.poset")
    witness = check_gpc(poset)
    assert all(branch.second is not None for branch in witness.branches)
    passes, matrices = [], []
    counts, matrix = linext._counts, linext._matrix

    def counted(p, givens):
        passes.append(p)
        return counts(p, givens)

    def matrixed(p, given=()):
        matrices.append(p)
        return matrix(p, given)

    monkeypatch.setattr(linext, "_counts", counted)
    monkeypatch.setattr(linext, "_matrix", matrixed)
    assert verify_gpc_witness(poset, witness)
    assert passes == [poset] and matrices == []


def test_verify_never_reads_a_kept_matrix(monkeypatch):
    """The recount stays independent of the search's kept matrices, P's own
    included, though ``count_extensions`` would read e(P) off it."""
    poset = files.load(POSETS_DIR / "p163425.poset")
    witness = check_gpc(poset)
    linext.pair_counts(poset)

    def kept(*args):
        raise AssertionError("verify_gpc_witness read a kept matrix")

    monkeypatch.setattr(linext, "_kept_matrix", kept)
    monkeypatch.setattr(linext, "count_extensions", kept)
    assert verify_gpc_witness(poset, witness)
    forged = witness._replace(t0=witness.t0 + 1)
    assert not verify_gpc_witness(poset, forged)


def _brute_verdict(poset, witness):
    """``verify_gpc_witness``'s verdict, from the filtered extensions of P.

    Two points are incomparable in an outcome exactly when its extensions
    place them both ways.
    """
    ranks = [{e: i for i, e in enumerate(order)} for order in brute_extensions(poset)]
    a, b = witness.first
    if sorted(branch.result for branch in witness.branches) != sorted([(a, b), (b, a)]):
        return False
    if a == b or poset.is_lt(a, b) or poset.is_lt(b, a) or len(ranks) != witness.t0:
        return False
    vacuous = 0 if witness.strict else 1
    for branch in witness.branches:
        x, y = branch.result
        outcome = [rank for rank in ranks if rank[x] < rank[y]]
        t1 = len(outcome)

        def worst(c, d):
            """t2 of comparing c with d in the outcome, None if they are ordered."""
            before = sum(rank[c] < rank[d] for rank in outcome)
            return max(before, t1 - before) if 0 < before < t1 else None

        if t1 != branch.t1:
            return False
        if branch.second is None:
            t2 = branch.t2
            if t1 == 1:
                ok = t2 == vacuous
            else:
                worsts = [worst(c, d) for c in range(poset.n) for d in range(c + 1, poset.n)]
                ok = any(w is not None and w <= t2 for w in worsts)
        else:
            c, d = branch.second
            in_range = 0 <= c < poset.n and 0 <= d < poset.n and c != d
            t2 = worst(c, d) if in_range else None
            ok = t2 is not None and t2 == branch.t2
        if not ok or not conjectures._partition_ok(witness.t0, t1, t2, witness.strict):
            return False
    return True


@st.composite
def _tampered(draw):
    """A witness of a drawn non-chain poset with one field changed."""
    poset = draw(posets(7).filter(lambda p: not p.is_chain()))
    mode = draw(st.sampled_from(["adaptive", "nonadaptive"]))
    witness = check_gpc(poset, mode=mode, strict=draw(st.booleans()))
    assume(witness is not None)
    points = st.integers(0, poset.n - 1)
    pair = st.tuples(points, points)
    count = st.integers(0, witness.t0 + 2)
    field = draw(st.sampled_from(["t0", "t1", "t2", "first", "second"]))
    if field == "t0":
        return poset, witness._replace(t0=draw(count))
    if field == "first":
        return poset, witness._replace(first=draw(pair))
    i = draw(st.integers(0, 1))
    branch = witness.branches[i]
    if field == "second":
        branch = branch._replace(second=draw(st.one_of(st.none(), pair)))
    else:
        branch = branch._replace(**{field: draw(count)})
    branches = list(witness.branches)
    branches[i] = branch
    return poset, witness._replace(branches=tuple(branches))


@settings(max_examples=120, deadline=None)
@given(_tampered())
def test_verify_matches_brute_verdict_on_tampered_witnesses(case):
    poset, witness = case
    assert verify_gpc_witness(poset, witness) == _brute_verdict(poset, witness)

