"""Counting, enumeration and order probabilities against brute force."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posetlex import (
    LinearExtension,
    Poset,
    balanced_pair,
    check_gpc,
    count_extensions,
    delta,
    enumerate_extensions,
    linext,
    pair_counts,
    prob,
)
from posetlex.errors import CapExceededError, ChainError

from conftest import (
    brute_balanced_pair,
    brute_count,
    brute_delta,
    brute_extensions,
    brute_pair_counts,
    posets,
)


def test_count_chain_antichain():
    assert count_extensions(Poset.chain(6)) == 1
    assert count_extensions(Poset.antichain(6)) == math.factorial(6)
    assert count_extensions(Poset.antichain(1)) == 1


def test_count_n_poset(n_poset):
    # w<y, x<y, x<z has exactly five extensions.
    assert count_extensions(n_poset) == 5


def test_count_disjoint_chains_binomial():
    # two disjoint chains of lengths a and b interleave in C(a+b, a) ways
    p = Poset.from_relations(5, [(0, 1), (1, 2), (3, 4)])
    assert count_extensions(p) == math.comb(5, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ),
        )
    )
)
def test_count_matches_brute_force(data):
    n, raw = data
    pairs = [(min(a, b), max(a, b)) for a, b in raw if a != b]
    p = Poset.from_relations(n, pairs)
    assert count_extensions(p) == brute_count(p)


@settings(max_examples=150, deadline=None)
@given(posets(7))
@example(Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)]))  # the N poset
def test_enumerate_matches_brute_force(poset):
    """Same extensions in the same order: the oracle's permutations are
    lexicographic, as is taking the least minimal element first."""
    extensions = enumerate_extensions(poset)
    assert [ext.order for ext in extensions] == brute_extensions(poset)
    assert all(ext.respects(poset) for ext in extensions)


def test_enumerate_deterministic(n_poset):
    assert enumerate_extensions(n_poset) == enumerate_extensions(n_poset)


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_extensions(Poset.antichain(6), cap=10)


def test_enumerate_default_cap_fails_at_once():
    # 10! = 3,628,800 extensions would hold about 700 MB; the cap check
    # costs one count over 2**10 ideals.
    with pytest.raises(CapExceededError):
        enumerate_extensions(Poset.antichain(10))


def test_linear_extension_labels_are_ranks():
    ext = LinearExtension.from_order((2, 0, 1))
    assert ext.labels == (2, 3, 1)
    assert ext.order == (2, 0, 1)


@settings(max_examples=80, deadline=None)
@given(posets(7))
def test_pair_counts_match_brute_force(poset):
    matrix = pair_counts(poset)
    assert matrix.total == brute_count(poset)
    assert [list(row) for row in matrix.counts] == brute_pair_counts(poset)


@settings(max_examples=80, deadline=None)
@given(posets(6))
def test_delta_and_balanced_pair_match_brute_force(poset):
    assume(not poset.is_chain())
    assert delta(poset) == brute_delta(poset)
    assert balanced_pair(poset) == brute_balanced_pair(poset)


def test_prob_values(point_and_chain):
    assert prob(point_and_chain, 1, 2) == 1
    assert prob(point_and_chain, 2, 1) == 0
    assert prob(point_and_chain, 0, 1) == Fraction(1, 3)
    assert prob(point_and_chain, 0, 2) == Fraction(2, 3)
    with pytest.raises(ValueError):
        prob(point_and_chain, 1, 1)


def test_prob_complement(n_poset):
    for x, y in n_poset.incomparable_pairs():
        assert prob(n_poset, x, y) + prob(n_poset, y, x) == 1


def test_delta_antichain_is_half():
    value, pair = delta(Poset.antichain(3))
    assert value == Fraction(1, 2)
    assert pair == (0, 1)


def test_delta_chain_raises():
    with pytest.raises(ChainError):
        delta(Poset.chain(3))
    with pytest.raises(ChainError):
        balanced_pair(Poset.chain(3))


def test_balanced_pair_found(n_poset):
    found = balanced_pair(n_poset)
    assert found is not None
    (x, y), p = found
    assert Fraction(1, 3) <= p <= Fraction(2, 3)
    assert (x, y) in n_poset.incomparable_pairs()


def test_delta_permutation_examples():
    value, _ = delta(Poset.from_permutation([1, 6, 3, 4, 2, 5]))
    assert value == Fraction(7, 15)
    value, _ = delta(Poset.from_permutation([1, 5, 3, 2, 4]))
    assert value == Fraction(1, 2)


def _count_passes(monkeypatch):
    """Record the poset of every forward pass over an ideal lattice."""
    passes = []
    forward = linext._forward

    def counted(poset):
        passes.append(poset)
        return forward(poset)

    monkeypatch.setattr(linext, "_forward", counted)
    return passes


def test_pair_counts_pass_runs_once_per_poset(monkeypatch):
    poset = Poset.from_relations(5, [(0, 2), (1, 2), (1, 3), (3, 4)])
    passes = _count_passes(monkeypatch)
    matrix = pair_counts(poset)
    delta(poset)
    balanced_pair(poset)
    check_gpc(poset)
    check_gpc(poset, mode="nonadaptive")
    assert pair_counts(poset) is matrix
    assert sum(p is poset for p in passes) == 1


def test_pair_counts_memo_leaves_equality_and_hash(n_poset):
    twin = Poset(n_poset.n, n_poset.lt)
    before = hash(n_poset)
    pair_counts(n_poset)
    assert n_poset == twin and twin == n_poset
    assert hash(n_poset) == before == hash(twin)
    outcome = n_poset.with_relation(0, 1)
    assert outcome._pair_counts is None
    assert pair_counts(outcome).total == count_extensions(outcome) == 2


def test_count_extensions_runs_its_own_pass(monkeypatch, n_poset):
    pair_counts(n_poset)
    passes = _count_passes(monkeypatch)
    assert count_extensions(n_poset) == 5
    assert passes == [n_poset]
