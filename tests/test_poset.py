"""Core poset structure: constructors, closure, invariants, canonical form."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlex import Poset, are_isomorphic
from posetlex.poset import _validate
from posetlex.errors import (
    AlreadyComparableError,
    CycleError,
    DuplicateValueError,
    SizeCapError,
    ZeroSizeError,
)

from posetlex.generate import poset_classes, random_poset

from conftest import (
    brute_automorphisms,
    brute_isomorphic,
    brute_width,
    closed_subsets,
    posets,
    reference_canonical_form,
    twin_heavy_posets,
)


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


@pytest.mark.parametrize("a, b", [(-3, 1), (1, -1), (3, 0), (0, 3)])
def test_is_lt_rejects_points_out_of_range(a, b):
    """A negative point does not count from the end."""
    with pytest.raises(ValueError, match=r"is_lt needs points in 0\.\.2"):
        Poset.chain(3).is_lt(a, b)


def _reach(n, pairs):
    """reach[a] = the elements a path of the given pairs leads to from a."""
    reach = [set() for _ in range(n)]
    for a in range(n):
        stack = [b for x, b in pairs if x == a]
        while stack:
            b = stack.pop()
            if b not in reach[a]:
                reach[a].add(b)
                stack.extend(c for x, c in pairs if x == b)
    return reach


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=2 * n),
        )
    )
)
def test_from_relations_is_valid_or_rejected(case):
    """Out-of-range pairs and cycles are rejected; anything else comes out
    closed, irreflexive and antisymmetric, as ``_validate`` demands."""
    n, pairs = case
    if any(not (0 <= a < n and 0 <= b < n) for a, b in pairs):
        with pytest.raises(ValueError, match="out of range"):
            Poset.from_relations(n, pairs)
        return
    reach = _reach(n, pairs)
    if any(a in reach[a] for a in range(n)):
        with pytest.raises(CycleError):
            Poset.from_relations(n, pairs)
        return
    poset = Poset.from_relations(n, pairs)
    _validate(n, poset.lt)
    assert poset.relation_pairs() == sorted((a, b) for a in range(n) for b in reach[a])


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


@settings(max_examples=80, deadline=None)
@given(posets(8))
def test_with_relation_matches_closure(poset):
    """Adding a < b without a closure gives the closed relation and its transpose."""
    for a, b in poset.incomparable_pairs():
        for x, y in ((a, b), (b, a)):
            outcome = poset.with_relation(x, y)
            closed = Poset.from_relations(poset.n, poset.relation_pairs() + [(x, y)])
            assert outcome.lt == closed.lt and outcome._gt == closed._gt
            assert hash(outcome) == hash(closed) and outcome == closed
            assert outcome.dual()._gt == outcome.lt


def test_dual_involution(n_poset):
    assert n_poset.dual().dual() == n_poset
    assert n_poset.dual().is_lt(2, 0)


def test_induced_and_relabel(n_poset):
    sub = n_poset.induced([1, 2, 3])
    assert sub.relation_pairs() == [(0, 1), (0, 2)]
    perm = [3, 2, 1, 0]
    r = n_poset.relabel(perm)
    assert r.is_lt(3, 1) and r.is_lt(2, 1) and r.is_lt(2, 0)


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 5]])
def test_relabel_rejects_a_non_permutation(perm):
    """A repeated, missing or out-of-range image is a ValueError naming
    ``perm``, not a wrong order or an IndexError."""
    message = f"relabel needs a permutation of 0..2, got {perm}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Poset.chain(3).relabel(perm)


@pytest.mark.parametrize("elements, outside", [([0, 7], [7]), ([0, -1], [-1]), ([3, 1, 9], [3, 9])])
def test_induced_rejects_points_outside(elements, outside):
    message = f"induced needs points in 0..2, got {outside}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Poset.chain(3).induced(elements)


@pytest.mark.parametrize(
    "elements, repeated", [([0, 1, 0], [0]), ([2, 2, 1, 1], [2, 1]), ([1, 1, 1], [1])]
)
def test_induced_rejects_repeated_points(elements, repeated):
    """A repeated point would give a copy of it, not a subposet."""
    message = f"induced needs distinct points, got {repeated} repeated"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Poset.from_relations(3, [(0, 1)]).induced(elements)


@pytest.mark.parametrize("method", ["above_mask", "below_mask", "incomparable_mask"])
@pytest.mark.parametrize("point", [-1, 3, -3])
def test_masks_reject_points_outside(method, point):
    """No negative index reads another point's row, and no point past n is an IndexError."""
    p = Poset.from_relations(3, [(0, 1)])
    message = f"{method} needs points in 0..2, got [{point}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(p, method)(point)
    assert [getattr(p, method)(v) for v in range(3)] == {
        "above_mask": [0b010, 0, 0],
        "below_mask": [0, 0b001, 0],
        "incomparable_mask": [0b100, 0b100, 0b011],
    }[method]


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


def _disjoint_chains(copies, length):
    return Poset.from_relations(
        copies * length,
        [(c * length + i, c * length + i + 1) for c in range(copies) for i in range(length - 1)],
    )


def _ordinal_sum_of_antichains(sizes):
    starts = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    return Poset.from_relations(
        starts[-1],
        [
            (a, b)
            for k in range(len(sizes) - 1)
            for a in range(starts[k], starts[k + 1])
            for b in range(starts[k + 1], starts[k + 2])
        ],
    )


@pytest.mark.parametrize(
    "poset, automorphisms",
    [
        (Poset.antichain(24), math.factorial(24)),
        (Poset.chain(24), 1),
        (random_poset(24, random.Random(24)), 8),
        (_disjoint_chains(8, 3), math.factorial(8)),
        (_ordinal_sum_of_antichains([3, 4, 5]), 6 * 24 * 120),
    ],
    ids=["antichain", "chain", "random", "eight-3-chains", "sum-of-antichains"],
)
def test_canonical_form_on_24_points(poset, automorphisms):
    key, count = poset.canonical_form()
    assert count == automorphisms
    perm = list(range(poset.n))
    random.Random(poset.n).shuffle(perm)
    assert poset.relabel(perm).canonical_form() == (key, count)


def test_twin_classes():
    assert _ordinal_sum_of_antichains([3, 4, 5]).twin_classes() == [
        (0, 1, 2), (3, 4, 5, 6), (7, 8, 9, 10, 11)
    ]
    assert Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)]).twin_classes() == [
        (0,), (1,), (2,), (3,)
    ]
    assert Poset.from_relations(3, [(0, 2), (1, 2)]).twin_classes() == [(0, 1), (2,)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)), st.data())
def test_isomorphism_matches_brute_force(p, data):
    perm = data.draw(st.permutations(range(p.n)))
    q = p.relabel(perm)
    assert are_isomorphic(p, q)
    assert brute_isomorphic(p, q)
    other = data.draw(st.one_of(posets(p.n), twin_heavy_posets(p.n)))
    assert are_isomorphic(p, other) == brute_isomorphic(p, other)


@settings(max_examples=80, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)))
def test_automorphism_count_matches_brute_force(p):
    assert p.canonical_form()[1] == brute_automorphisms(p)


def test_canonical_form_matches_reference_on_all_classes():
    """Every child poset_classes(7) builds, relabeled at random: keys are
    equal exactly when the reference keys are, and |Aut| is the reference's."""
    rng = random.Random(7)
    keys = {}
    for small, _ in poset_classes(6):
        k = small.n
        for down in closed_subsets(k, [small.below_mask(e) for e in range(k)]):
            rows = [row | (1 << k if down >> a & 1 else 0) for a, row in enumerate(small.lt)]
            child = Poset(k + 1, rows + [0], _trusted=True)
            perm = list(range(k + 1))
            rng.shuffle(perm)
            key, count = child.relabel(perm).canonical_form()
            reference, reference_count = reference_canonical_form(child)
            assert count == reference_count
            keys.setdefault(reference, set()).add(key)
    assert len(keys) == 2 + 5 + 16 + 63 + 318 + 2045  # classes on 2..7 points
    assert all(len(new) == 1 for new in keys.values())
    assert len(set().union(*keys.values())) == len(keys)


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


@settings(max_examples=80, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)))
def test_kept_incomparable_pairs_match_definition(p):
    expected = [
        (a, b)
        for a, b in itertools.combinations(range(p.n), 2)
        if not p.is_lt(a, b) and not p.is_lt(b, a)
    ]
    first = p.incomparable_pairs()
    assert first == expected
    first.append((0, 0))
    first.clear()
    assert p.incomparable_pairs() == expected
    assert p.incomparable_pairs() is not p.incomparable_pairs()
    assert p.is_chain() == (len(p.relation_pairs()) == p.n * (p.n - 1) // 2)
    derived = [p.dual(), p.induced(range(p.n - 1, -1, -1))]
    if expected:
        derived.append(p.with_relation(*expected[0]))
    assert all(q._pairs is None for q in derived)
