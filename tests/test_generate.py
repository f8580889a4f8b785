"""Isomorph-free generation against the labeled oracle, and the sweep built on it."""

import math
from collections import Counter

import pytest

from posetlex import SizeCapError, sweep
from posetlex.generate import poset_classes

from conftest import labeled_posets

#: Labeled posets on n = 1..6 points (OEIS A001035).
LABELED = (1, 3, 19, 219, 4231, 130023)

#: Isomorphism classes of posets on n = 1..7 points (OEIS A000112).
CLASSES = (1, 2, 5, 16, 63, 318, 2045)


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


def test_class_counts():
    sizes = Counter(p.n for p, _ in poset_classes(len(CLASSES)))
    assert tuple(sizes[n] for n in range(1, len(CLASSES) + 1)) == CLASSES


def test_sweep_seven_points():
    summary = sweep(7)
    assert (summary.total, summary.chains) == (6264355, 5913)
    assert summary.checked == summary.total - summary.chains
    assert summary.clean


def test_sweep_cap():
    with pytest.raises(SizeCapError):
        sweep(9)
