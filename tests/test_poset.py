"""Core poset structure: constructors, closure, invariants, canonical form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlex import Poset, are_isomorphic
from posetlex.errors import (
    AlreadyComparableError,
    CycleError,
    DuplicateValueError,
    SizeCapError,
    ZeroSizeError,
)

from conftest import brute_automorphisms, brute_isomorphic, brute_width, posets


def relation_strategy(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n * 2,
            ),
        )
    )


def dag_poset(n, pairs):
    """Build from index-increasing pairs only, so no cycles can appear."""
    return Poset.from_relations(n, [(min(a, b), max(a, b)) for a, b in pairs if a != b])


def test_from_relations_closes_transitively():
    p = Poset.from_relations(3, [(0, 1), (1, 2)])
    assert p.is_lt(0, 2)
    assert p.relation_pairs() == [(0, 1), (0, 2), (1, 2)]


def test_cycle_detected():
    with pytest.raises(CycleError):
        Poset.from_relations(3, [(0, 1), (1, 2), (2, 0)])


def test_zero_and_cap_errors():
    with pytest.raises(ZeroSizeError):
        Poset.antichain(0)
    with pytest.raises(SizeCapError):
        Poset.antichain(25)
    with pytest.raises(ZeroSizeError):
        Poset.from_permutation([])
    with pytest.raises(SizeCapError):
        Poset.from_permutation(range(10**6))
    with pytest.raises(SizeCapError):
        Poset.chain(10**6)


def test_chain_and_antichain():
    c = Poset.chain(4)
    assert c.is_chain()
    assert c.relation_pairs() == [(a, b) for a in range(4) for b in range(a + 1, 4)]
    a = Poset.antichain(4)
    assert not a.is_chain()
    assert a.relation_pairs() == []
    assert len(a.incomparable_pairs()) == 6
    assert Poset.chain(1).is_chain()


def test_from_permutation_identity_is_chain():
    assert Poset.from_permutation([1, 2, 3, 4]).is_chain()
    assert Poset.from_permutation([3, 2, 1]).relation_pairs() == []


def test_from_permutation_pairs():
    # (i, v_i) points: i below j iff i precedes j and values increase.
    p = Poset.from_permutation([2, 1, 3])
    assert p.relation_pairs() == [(0, 2), (1, 2)]
    with pytest.raises(DuplicateValueError):
        Poset.from_permutation([1, 1, 2])


def test_with_relation_and_already_comparable():
    p = Poset.from_relations(3, [(0, 1)])
    q = p.with_relation(1, 2)
    assert q.is_lt(0, 2)
    with pytest.raises(AlreadyComparableError):
        q.with_relation(0, 2)
    with pytest.raises(AlreadyComparableError):
        q.with_relation(2, 0)
    # the original is untouched
    assert not p.is_lt(1, 2)


def test_dual_involution(n_poset):
    assert n_poset.dual().dual() == n_poset
    assert n_poset.dual().is_lt(2, 0)


def test_induced_and_relabel(n_poset):
    sub = n_poset.induced([1, 2, 3])
    assert sub.relation_pairs() == [(0, 1), (0, 2)]
    perm = [3, 2, 1, 0]
    r = n_poset.relabel(perm)
    assert r.is_lt(3, 1) and r.is_lt(2, 1) and r.is_lt(2, 0)


def test_covers_skip_transitive_edges():
    p = Poset.chain(4)
    assert p.covers() == [(0, 1), (1, 2), (2, 3)]


def test_to_dot_mentions_every_cover(n_poset):
    dot = n_poset.to_dot(labels=["w", "x", "y", "z"])
    assert '"w" -> "y";' in dot
    assert '"x" -> "z";' in dot
    assert '"w" -> "z";' not in dot


def test_width_small_cases():
    assert Poset.chain(5).width() == 1
    assert Poset.antichain(5).width() == 5
    n = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])
    assert n.width() == 2
    assert set(n.max_antichain()) in ({0, 1}, {0, 3}, {2, 3})


@settings(max_examples=60, deadline=None)
@given(relation_strategy())
def test_width_matches_dilworth_oracle(data):
    n, pairs = data
    p = dag_poset(n, pairs)
    assert p.width() == brute_width(p)


def test_forbidden_subposets():
    two_plus_two = Poset.from_relations(4, [(0, 1), (2, 3)])
    kind, elems = two_plus_two.find_forbidden_subposet()
    assert kind == "2+2" and elems == (0, 1, 2, 3)
    three_plus_one = Poset.from_relations(4, [(0, 1), (1, 2)])
    kind, _ = three_plus_one.find_forbidden_subposet()
    assert kind == "3+1"
    assert not two_plus_two.is_semiorder()
    assert Poset.chain(4).is_semiorder()
    assert Poset.antichain(4).is_semiorder()


def test_canonical_key_distinguishes_and_identifies():
    a = Poset.from_relations(3, [(0, 1)])
    b = Poset.from_relations(3, [(1, 2)])
    c = Poset.from_relations(3, [(0, 1), (0, 2)])
    assert a.canonical_key() == b.canonical_key()
    assert a.canonical_key() != c.canonical_key()
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, c)


def test_canonical_key_cap():
    with pytest.raises(SizeCapError):
        Poset.antichain(11).canonical_key()


@settings(max_examples=40, deadline=None)
@given(relation_strategy(max_n=5), st.randoms(use_true_random=False))
def test_isomorphism_matches_brute_force(data, rng):
    n, pairs = data
    p = dag_poset(n, pairs)
    perm = list(range(n))
    rng.shuffle(perm)
    q = p.relabel(perm)
    assert are_isomorphic(p, q)
    assert brute_isomorphic(p, q)


@settings(max_examples=80, deadline=None)
@given(posets(6))
def test_automorphism_count_matches_brute_force(p):
    assert p.canonical_form()[1] == brute_automorphisms(p)


def test_relabeled_pair_not_isomorphic_when_shapes_differ():
    p = Poset.chain(4)
    q = Poset.from_relations(4, [(0, 1), (1, 2)])
    assert not are_isomorphic(p, q)
    assert not brute_isomorphic(p, q)


def test_hashable_and_equal():
    a = Poset.from_relations(3, [(0, 1), (1, 2)])
    b = Poset.chain(3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_incomparable_pairs_partition():
    p = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])
    comparable = set()
    for a, b in p.relation_pairs():
        comparable.add((min(a, b), max(a, b)))
    incomparable = set(p.incomparable_pairs())
    assert comparable | incomparable == set(itertools.combinations(range(4), 2))
    assert not comparable & incomparable
