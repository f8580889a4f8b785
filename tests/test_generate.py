"""Isomorph-free generation against the labeled oracle, and the sweep built on it."""

import hashlib
import math
from collections import Counter

import pytest

from posetlex import GpcWitness, Poset, SizeCapError, ZeroSizeError, conjectures, linext, sweep
from posetlex.generate import poset_classes

from conftest import labeled_posets

#: Labeled posets on n = 1..6 points (OEIS A001035).
LABELED = (1, 3, 19, 219, 4231, 130023)

#: Isomorphism classes of posets on n = 1..7 points (OEIS A000112).
CLASSES = (1, 2, 5, 16, 63, 318, 2045)

#: sha256 of repr((p.n, p.lt, |Aut(p)|)) over ``poset_classes(7)``, in
#: yield order, as the build with one child per down-set gave it.
CLASSES_7_SHA256 = "22c378bf86e468e3f539e080be7d221f31e5415444fd001e5004437e435b4308"


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
    """Skipping the children that a swap of twins repeats leaves every
    representative, its labeling, its place and its |Aut| as they were."""
    digest = hashlib.sha256()
    for p, automorphisms in poset_classes(7):
        digest.update(repr((p.n, p.lt, automorphisms)).encode())
    assert digest.hexdigest() == CLASSES_7_SHA256


def test_one_child_per_twin_orbit(monkeypatch):
    """Building every down-set's child took 172 canonical forms on at most
    5 points; one child per orbit of twin swaps takes 134."""
    calls = []
    canonical_form = Poset.canonical_form

    def counted(poset):
        calls.append(poset)
        return canonical_form(poset)

    monkeypatch.setattr(Poset, "canonical_form", counted)
    assert sum(1 for _ in poset_classes(5)) == sum(CLASSES[:5])
    assert len(calls) <= 134


def test_generation_drops_kept_matrices_of_handed_over_levels():
    """The matrices a caller keeps on a level are dropped before the next."""
    classes = []
    for poset, _ in poset_classes(5):
        linext.pair_counts(poset)
        classes.append(poset)
    assert len(classes) == sum(CLASSES[:5])
    assert all(p._pair_counts is None for p in classes if p.n < 5)
    assert all(p._pair_counts is not None for p in classes if p.n == 5)


def test_sweep_seven_points():
    summary = sweep(7)
    assert (summary.total, summary.chains) == (6264355, 5913)
    assert summary.checked == summary.total - summary.chains
    assert summary.clean


def test_sweep_searches_balanced_pairs_only_without_a_balanced_witness(monkeypatch):
    """A balanced witness first pair is a balanced pair: only a missing or
    unbalanced witness sends the sweep to ``balanced_pair``."""
    searched = []
    monkeypatch.setattr(linext, "balanced_pair", searched.append)  # finds none
    assert sweep(4).clean and searched == []
    check = conjectures.check_gpc

    def unbalanced(poset, **options):
        witness = check(poset, **options)
        return GpcWitness(witness.first, 9 * witness.t0, witness.branches)

    monkeypatch.setattr(conjectures, "check_gpc", unbalanced)
    summary = sweep(4)
    assert summary.unbalanced_witnesses == summary.one_third_failures == searched
    assert len(searched) == 20  # the non-chain classes on at most 4 points
    searched.clear()
    monkeypatch.setattr(conjectures, "check_gpc", lambda poset, **options: None)
    summary = sweep(4)
    assert summary.gpc_failures == summary.one_third_failures == searched
    assert len(searched) == 20


def test_sweep_cap():
    with pytest.raises(SizeCapError):
        sweep(9)


@pytest.mark.parametrize("max_n", [0, -1])
def test_sweep_needs_a_point(max_n):
    with pytest.raises(ZeroSizeError):
        sweep(max_n)
