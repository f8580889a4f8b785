"""Isomorph-free generation against the labeled oracle, and the sweep built on it."""

import hashlib
import math
import random
import re
from collections import Counter

import pytest

from posetlex import GpcWitness, Poset, PosetError, SizeCapError, ZeroSizeError, conjectures
from posetlex import generate, linext, poset as poset_module, survey, sweep
from posetlex.generate import poset_classes, random_nonchain_poset, random_poset

from conftest import brute_automorphisms, brute_covered, closed_subsets, labeled_posets

#: Labeled posets on n = 1..6 points (OEIS A001035).
LABELED = (1, 3, 19, 219, 4231, 130023)

#: Isomorphism classes of posets on n = 1..7 points (OEIS A000112).
CLASSES = (1, 2, 5, 16, 63, 318, 2045)

#: sha256 of repr of the sorted list of (canonical key, |Aut|) over
#: ``poset_classes(7)``: the classes and their automorphism counts, whatever
#: the representatives.  Taken from the build that deduplicated by key.
CLASSES_7_SHA256 = "6e248f0c6dc758710a612a4c1eb1bf14fad4a0d5314e5dc809a4effe129ba198"

#: sha256 of repr((p.n, p.lt, |Aut(p)|)) over ``poset_classes(7)``, in
#: yield order: the representatives, their labelings and their order.
YIELD_7_SHA256 = "cd648268c9f969a46ad35a5ce6d5a3d311321eb5f0ca7cf04a06f2c0f5009f7a"

#: ``sweep(7).to_json_dict()`` but for its mode and GPC failure count.
SWEEP_7 = {
    "max_n": 7,
    "total_posets": 6264355,
    "chains": 5913,
    "non_chains_checked": 6258442,
    "one_third_failures": 0,
    "unbalanced_witness_first_pairs": 0,
}

#: (mode, strict) -> (GPC failures of ``sweep(7)``, sha256 of repr of the
#: sorted canonical keys of the failing classes).
SWEEP_7_GPC = {
    ("adaptive", False): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("adaptive", True): (60, "3a4e848b7da45cd889a73de1b76fc16f7068fe7e3ede370fb01281e81597e98c"),
    ("nonadaptive", False): (29, "6557ee5a837227e2251cac837360db05fb2dc18bf4313313d9e3232fc9210264"),
    ("nonadaptive", True): (78, "edf3bac8dbb9d6f8fc65d93fedee50fc5b0c674be941b014a077f46e059ee0f3"),
}


@pytest.fixture(scope="module")
def sweep_7():
    """``sweep(7)`` in a (mode, strict) setting, each computed once for the module."""
    summaries = {}

    def summary(mode, strict):
        if (mode, strict) not in summaries:
            summaries[mode, strict] = sweep(7, mode=mode, strict=strict)
        return summaries[mode, strict]

    return summary


def _classes_of_size(n):
    return [(p, aut) for p, aut in poset_classes(n) if p.n == n]


@pytest.mark.parametrize("n", range(1, 6))
def test_classes_match_labeled_oracle(n):
    labelings = Counter(p.canonical_key() for p in labeled_posets(n))
    classes = _classes_of_size(n)
    assert len(classes) == len(labelings)
    assert {p.canonical_key(): math.factorial(n) // aut for p, aut in classes} == labelings


def test_labeled_totals():
    found = [0] * len(LABELED)
    for p, aut in poset_classes(len(LABELED)):
        found[p.n - 1] += math.factorial(p.n) // aut
    assert tuple(found) == LABELED
    assert sum(found) == 134496


@pytest.mark.parametrize("max_n", [0, -1])
def test_no_classes_below_one_point(max_n):
    assert list(poset_classes(max_n)) == []


def test_class_counts():
    sizes = Counter(p.n for p, _ in poset_classes(len(CLASSES)))
    assert tuple(sizes[n] for n in range(1, len(CLASSES) + 1)) == CLASSES


def test_classes_are_byte_stable():
    classes = list(poset_classes(7))
    keys = sorted((p.canonical_key(), automorphisms) for p, automorphisms in classes)
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == CLASSES_7_SHA256
    digest = hashlib.sha256()
    for p, automorphisms in classes:
        digest.update(repr((p.n, p.lt, automorphisms)).encode())
    assert digest.hexdigest() == YIELD_7_SHA256


def test_automorphism_counts_match_brute_force():
    """The counts read off the parents by orbit-stabilizer are exact."""
    for p, automorphisms in poset_classes(6):
        assert automorphisms == brute_automorphisms(p)


def test_each_class_comes_once():
    keys = [p.canonical_key() for p, _ in poset_classes(len(CLASSES))]
    assert len(set(keys)) == len(keys) == sum(CLASSES)


def test_one_child_per_twin_orbit(monkeypatch):
    """Deduplicating every child by canonical key took 134 canonical forms
    on at most 5 points; canonical augmentation builds 88 children and
    searches 9 times, and computes no canonical form.  On at most 7 points
    it builds 2,634 children and searches 503 times, whatever the order of
    the down-sets."""
    searches, built = [], []
    search = poset_module._canonical_code
    init = Poset.__init__

    def counted(*args):
        searches.append(args)
        return search(*args)

    def constructed(self, n, *args, **kwargs):
        built.append(n)
        init(self, n, *args, **kwargs)

    def forbidden(_):
        raise AssertionError("poset_classes computed a canonical form")

    monkeypatch.setattr(poset_module, "_canonical_code", counted)
    monkeypatch.setattr(Poset, "__init__", constructed)
    monkeypatch.setattr(Poset, "canonical_form", forbidden)
    for max_n, children, searched in [(5, 88, 9), (7, 2634, 503)]:
        searches.clear()
        built.clear()
        assert sum(1 for _ in poset_classes(max_n)) == sum(CLASSES[:max_n])
        assert (sum(n > 1 for n in built), len(searches)) == (children, searched)


def test_children_get_down_sets_from_the_parent(monkeypatch):
    """Each class expanded gets every down-set once, read off its parent's,
    and no class comes with an ideal lattice."""
    received = []
    children = generate._children

    def recorded(small, automorphisms, downs):
        received.append((small, downs))
        return children(small, automorphisms, downs)

    monkeypatch.setattr(generate, "_children", recorded)
    for poset, _ in poset_classes(7):
        assert poset._lattice is None
    assert len(received) == sum(CLASSES[:6])
    for small, downs in received:
        k = small.n
        assert len(set(downs)) == len(downs)
        assert set(downs) == set(closed_subsets(k, [small.below_mask(e) for e in range(k)]))


def test_generation_builds_children_before_handing_a_class_over(monkeypatch):
    """A class on fewer than max_n points has had its children built when it
    is yielded, and what a caller keeps on a yielded class stays as left."""
    built = {}  # id -> class, kept alive so that the ids stay unique
    children = generate._children

    def recorded(small, automorphisms, downs):
        built[id(small)] = small
        return children(small, automorphisms, downs)

    monkeypatch.setattr(generate, "_children", recorded)
    kept = []
    for poset, _ in poset_classes(5):
        assert (id(poset) in built) == (poset.n < 5)
        kept.append((poset, linext.pair_counts(poset), poset._kept_pairs()))
    assert len(kept) == sum(CLASSES[:5]) and len(built) == sum(CLASSES[:4])
    assert all(
        linext.pair_counts(p) is matrix and p._kept_pairs() is pairs for p, matrix, pairs in kept
    )


def test_sweep_seven_points(sweep_7):
    summary = sweep_7("adaptive", False)
    assert (summary.total, summary.chains) == (6264355, 5913)
    assert summary.checked == summary.total - summary.chains
    assert summary.clean


@pytest.mark.parametrize("mode, strict", list(SWEEP_7_GPC))
def test_sweep_seven_points_is_pinned(sweep_7, mode, strict):
    summary = sweep_7(mode, strict)
    failures, digest = SWEEP_7_GPC[mode, strict]
    assert summary.to_json_dict() == {**SWEEP_7, "mode": mode, "gpc_failures": failures}
    keys = sorted(p.canonical_key() for p in summary.gpc_failures)
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def test_sweep_checks_its_counts_against_oeis(monkeypatch):
    """A generator that loses a class fails the sweep, naming the size."""
    classes = poset_classes

    def lossy(max_n):
        for poset, automorphisms in classes(max_n):
            if poset != Poset.antichain(3):
                yield poset, automorphisms

    monkeypatch.setattr(survey, "poset_classes", lossy)
    message = (
        "sweep met 4 classes and 18 labeled posets on 3 points;"
        " OEIS A000112 and A001035 give 5 and 19"
    )
    with pytest.raises(PosetError, match=f"^{re.escape(message)}$"):
        sweep(4)
    assert survey.CLASSES[:len(CLASSES)] == CLASSES
    assert survey.LABELED[:len(LABELED)] == LABELED


def test_sweep_searches_balanced_pairs_only_without_a_balanced_witness(monkeypatch):
    """A balanced witness first pair is a balanced pair: only a missing or
    unbalanced witness sends the sweep to ``balanced_pair``."""
    searched = []
    monkeypatch.setattr(linext, "balanced_pair", searched.append)  # finds none
    assert sweep(4).clean and searched == []
    search = conjectures._search

    def unbalanced(poset, adaptive, strict):
        a, b, t0, *rest = search(poset, adaptive, strict)
        return a, b, 9 * t0, *rest

    monkeypatch.setattr(conjectures, "_search", unbalanced)
    summary = sweep(4)
    assert summary.unbalanced_witnesses == summary.one_third_failures == searched
    assert len(searched) == 20  # the non-chain classes on at most 4 points
    searched.clear()
    monkeypatch.setattr(conjectures, "_search", lambda poset, adaptive, strict: None)
    summary = sweep(4)
    assert summary.gpc_failures == summary.one_third_failures == searched
    assert len(searched) == 20


def _recording_search(monkeypatch, fails=()):
    """Patch ``_search`` to record each poset it is called on, and to find
    no witness on the posets in ``fails``; returns the record."""
    searched = []
    search = conjectures._search

    def recorded(poset, adaptive, strict):
        searched.append(poset)
        return None if poset in fails else search(poset, adaptive, strict)

    monkeypatch.setattr(conjectures, "_search", recorded)
    return searched


def test_sweep_searches_only_classes_the_theorem_leaves(monkeypatch):
    """Adaptive non-strict ``sweep(7)`` searches the 528 non-chain classes
    with no autonomous set of 2..n-1 points inducing a non-chain; each of
    the 1,915 it skips passes ``check_gpc`` with a balanced first pair, as
    the paper's theorem says."""
    searched = _recording_search(monkeypatch)
    assert sweep(7).to_json_dict() == {**SWEEP_7, "mode": "adaptive", "gpc_failures": 0}
    monkeypatch.undo()
    covered, left = [], []
    for poset, _ in poset_classes(7):
        if not poset.is_chain():
            (covered if brute_covered(poset) else left).append(poset)
    assert searched == left
    assert (len(left), len(covered)) == (528, 1915)
    for poset in covered:
        witness = conjectures.check_gpc(poset)
        assert witness is not None
        assert linext._balanced(witness.branches[0].t1, witness.t0)


@pytest.mark.parametrize(
    "failing, searches",
    [(Poset.antichain(2), 82), (Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)]), 74)],
    ids=["antichain2", "N"],
)
def test_sweep_searches_every_class_after_a_failure(monkeypatch, failing, searches):
    """Covered classes are skipped only while no class has failed: from the
    first failure on, every non-chain class is searched."""
    non_chains = [p for p, _ in poset_classes(5) if not p.is_chain()]
    keys = [p.canonical_key() for p in non_chains]
    first = keys.index(failing.canonical_key())
    searched = _recording_search(monkeypatch, fails=(non_chains[first],))
    summary = sweep(5)
    assert summary.gpc_failures == [non_chains[first]] and not summary.clean
    before = [p for p in non_chains[:first] if not brute_covered(p)]
    assert searched == before + non_chains[first:]
    assert len(searched) == searches  # of the 82 non-chain classes on <= 5 points


@pytest.mark.parametrize("max_n", [1, 3])
@pytest.mark.parametrize(
    "options, message",
    [
        ({"mode": "bogus"}, "unknown mode 'bogus'"),
        ({"strict": 2}, "strict must be False or True, got 2"),
        ({"strict": 0.5}, "strict must be False or True, got 0.5"),
        ({"strict": None}, "strict must be False or True, got None"),
    ],
    ids=["mode", "strict2", "strict_half", "strict_none"],
)
def test_sweep_rejects_bad_options_before_generating(monkeypatch, max_n, options, message):
    """``check_gpc``'s errors, at every size, even with no non-chain met."""

    def generated(max_n):
        raise AssertionError("generated before checking the options")

    monkeypatch.setattr(survey, "poset_classes", generated)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep(max_n, **options)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        conjectures.check_gpc(Poset.antichain(2), **options)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("mode", ["adaptive", "nonadaptive"])
def test_sweep_reads_check_gpc_search(monkeypatch, mode, strict):
    """What ``sweep`` reads off each class it searches is ``check_gpc``'s
    witness: the first pair, t0 and the first branch's t1, or None for
    both.  Adaptive non-strict sweeps search only the classes that the
    paper's theorem does not cover; the other settings search them all."""
    seen = []
    search = conjectures._search

    def recorded(poset, adaptive, strict):
        found = search(poset, adaptive, strict)
        seen.append((poset, adaptive, strict, found))
        return found

    monkeypatch.setattr(conjectures, "_search", recorded)
    sweep(6, mode=mode, strict=strict)
    monkeypatch.setattr(conjectures, "_search", search)  # check_gpc's own calls unrecorded
    non_chains = [p for p, _ in poset_classes(6) if not p.is_chain()]
    assert len(non_chains) == 399
    if mode == "adaptive" and not strict:
        non_chains = [p for p in non_chains if not brute_covered(p)]
        assert len(non_chains) == 72
    assert [poset for poset, *_ in seen] == non_chains
    for poset, adaptive, searched_strict, found in seen:
        assert (adaptive, searched_strict) == (mode == "adaptive", strict)
        witness = conjectures.check_gpc(poset, mode=mode, strict=strict)
        if witness is None:
            assert found is None
        else:
            first = witness.branches[0]
            assert first.result == witness.first
            assert found[:4] == (*witness.first, witness.t0, first.t1)


def test_sweep_builds_no_witness(monkeypatch):
    built = Counter()

    def counted(cls):
        def build(*fields):
            built[cls.__name__] += 1
            return cls(*fields)

        return build

    for cls in (GpcWitness, conjectures.GpcBranch):
        monkeypatch.setattr(conjectures, cls.__name__, counted(cls))
    assert sweep(5).clean
    assert built == {}
    conjectures.check_gpc(Poset.antichain(2))  # the counters do count
    assert built == {"GpcWitness": 1, "GpcBranch": 2}


def test_sweep_cap():
    with pytest.raises(SizeCapError):
        sweep(9)


@pytest.mark.parametrize("n", [1, 0, -1])
def test_random_nonchain_poset_needs_two_points(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        random_nonchain_poset(n, random.Random(1))


@pytest.mark.parametrize("edge_probability", [1.0, 1.5, -0.1])
def test_random_nonchain_poset_needs_a_probability_below_one(monkeypatch, edge_probability):
    """At 1 every draw is a chain: the bad value is rejected before drawing."""
    rng = random.Random(1)
    monkeypatch.setattr(rng, "random", None)  # a draw would fail with TypeError
    with pytest.raises(ValueError, match=re.escape(str(edge_probability))):
        random_nonchain_poset(4, rng, edge_probability=edge_probability)
    if edge_probability != 1:
        with pytest.raises(ValueError, match=re.escape(str(edge_probability))):
            random_poset(4, rng, edge_probability=edge_probability)


def test_random_poset_probability_bounds():
    assert random_poset(4, random.Random(1), edge_probability=1.0).is_chain()
    for sample in (random_poset, random_nonchain_poset):
        assert sample(4, random.Random(1), edge_probability=0.0) == Poset.antichain(4)


@pytest.mark.parametrize("max_n", [0, -1])
def test_sweep_needs_a_point(max_n):
    with pytest.raises(ZeroSizeError):
        sweep(max_n)
