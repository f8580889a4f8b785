"""Order-autonomous sets, decomposition, and the GPC fast path."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlex import (
    Poset,
    are_isomorphic,
    autonomous_sets,
    check_gpc,
    count_extensions,
    decompose,
    gpc_via_decomposition,
    is_autonomous,
    verify_gpc_witness,
)
from posetlex import compose_at
from posetlex.decompose import _covered
from posetlex.errors import SizeCapError

from conftest import (
    brute_autonomous_sets,
    brute_covered,
    brute_is_autonomous,
    posets,
    twin_heavy_posets,
)


def test_is_autonomous_basic():
    # 0 < {1, 2} with 1, 2 incomparable: {1, 2} is autonomous, {0, 1} is not
    p = Poset.from_relations(3, [(0, 1), (0, 2)])
    assert is_autonomous(p, (1, 2))
    assert not is_autonomous(p, (0, 1))
    assert is_autonomous(p, (0, 1, 2))
    for members in [(0, 5), (5,), (-1, 0)]:
        with pytest.raises(ValueError, match="is_autonomous needs points in 0..2"):
            is_autonomous(p, members)


def test_autonomous_sets_chain():
    sets = autonomous_sets(Poset.chain(3))
    assert [s.members for s in sets] == [(0, 1), (1, 2)]


def test_autonomous_sets_ordering():
    p = compose_at(Poset.chain(2), 1, Poset.antichain(2)).poset
    members = [s.members for s in autonomous_sets(p)]
    assert members[0] == (1, 2)


def test_decompose_indecomposable():
    # the N poset is the smallest indecomposable poset shape
    n = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])
    assert decompose(n) is None


def test_decompose_round_trip():
    spec = compose_at(Poset.chain(2), 1, Poset.antichain(2))
    split = decompose(spec.poset)
    assert split is not None
    assert are_isomorphic(split.factor, Poset.antichain(2))
    assert are_isomorphic(split.base, Poset.chain(2))
    assert split.members == (1, 2)
    rebuilt = compose_at(split.base, split.index, split.factor).poset
    assert are_isomorphic(rebuilt, spec.poset)


def test_decompose_prefers_nonchain_factor():
    # chain factor {1,2} is smaller, but the antichain factor {3,4} matters
    p = Poset.from_relations(
        5, [(0, 1), (1, 2), (2, 3), (2, 4)]
    )  # 0<1<2 < {3,4} antichain
    split = decompose(p)
    assert are_isomorphic(split.factor, Poset.antichain(2))
    assert split.members == (3, 4)


def test_decompose_falls_back_to_chain_factor():
    split = decompose(Poset.chain(3))
    assert split is not None
    assert split.factor.is_chain()
    assert split.members == (0, 1)


def _rebuilds(poset, split):
    """base o_index factor equals P relabeled by base_elements and members."""
    i = split.index
    order = split.base_elements[:i] + split.members + split.base_elements[i + 1:]
    return compose_at(split.base, i, split.factor).poset == poset.induced(order)


def _relabeled_sums():
    """compose_at(base, i, factor) on at most 8 points, in any labeling."""
    return st.tuples(posets(4), posets(5)).flatmap(
        lambda bq: st.builds(
            lambda i, perm: compose_at(bq[0], i, bq[1]).poset.relabel(perm),
            st.integers(0, bq[0].n - 1),
            st.permutations(range(bq[0].n + bq[1].n - 1)),
        )
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(posets(8), _relabeled_sums()))
def test_autonomous_sets_and_decompose_match_subset_oracle(poset):
    oracle = brute_autonomous_sets(poset)
    assert [s.members for s in autonomous_sets(poset)] == oracle
    assert all(is_autonomous(poset, members) for members in oracle)
    split = decompose(poset)
    if not oracle:
        assert split is None
        return
    nonchain = [
        members
        for members in oracle
        if any(
            not (poset.is_lt(a, b) or poset.is_lt(b, a))
            for a, b in itertools.combinations(members, 2)
        )
    ]
    assert split.members == (nonchain or oracle)[0]
    assert _rebuilds(poset, split)


@settings(max_examples=300, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7), _relabeled_sums()))
def test_covered_matches_subset_oracle(poset):
    """The sweep's cover test: an autonomous set of 2..n-1 points inducing a non-chain."""
    assert _covered(poset) == brute_covered(poset)


def test_decompose_has_no_size_cap():
    rng = random.Random(24)
    pairs = [(a, b) for a in range(24) for b in range(a + 1, 24) if rng.random() < 0.1]
    for poset, members in (
        (Poset.antichain(24), (0, 1)),
        (Poset.chain(24), (0, 1)),
        (Poset.from_relations(24, pairs), (2, 15)),
    ):
        split = decompose(poset)
        assert split.members == members
        assert brute_is_autonomous(poset, members)
        assert _rebuilds(poset, split)
    with pytest.raises(SizeCapError):
        autonomous_sets(Poset.antichain(21))


def test_gpc_via_decomposition_matches_direct():
    spec = compose_at(Poset.chain(2), 1, Poset.antichain(2))
    w = gpc_via_decomposition(spec.poset)
    assert w is not None and w.holds()
    assert verify_gpc_witness(spec.poset, w)
    assert check_gpc(spec.poset) is not None


def test_gpc_via_decomposition_indecomposable_falls_back():
    n = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])
    w = gpc_via_decomposition(n)
    assert w is not None
    assert verify_gpc_witness(n, w)


def test_gpc_via_decomposition_nested():
    # factor that itself decomposes: chain(2) at 1 of chain(2), under a point
    inner = compose_at(Poset.chain(2), 1, Poset.antichain(2)).poset
    outer = compose_at(Poset.from_relations(2, []), 0, inner).poset
    w = gpc_via_decomposition(outer)
    assert w is not None
    assert verify_gpc_witness(outer, w)
    k_checked = count_extensions(outer) % count_extensions(inner)
    assert k_checked == 0


def test_example19_decomposition():
    perm = [1, 15, 13, 17, 18, 16, 12, 10, 14, 8, 11, 9, 6, 7, 0, 5, 2, 3, 4]
    p = Poset.from_permutation(perm)
    split = decompose(p)
    assert split.members == (3, 4, 5)
    assert are_isomorphic(split.factor, Poset.from_permutation([3, 1, 2]))
    w = gpc_via_decomposition(p)
    assert w is not None and w.holds()
    assert verify_gpc_witness(p, w)


@settings(max_examples=150, deadline=None)
@given(st.one_of(posets(8), _relabeled_sums()), st.booleans())
def test_gpc_via_decomposition_verifies_and_agrees_with_direct(poset, strict):
    """Every witness verifies, strict or not, and there is one exactly when
    the direct search finds one."""
    if poset.is_chain():
        return
    w = gpc_via_decomposition(poset, strict=strict)
    assert (w is None) == (check_gpc(poset, strict=strict) is None)
    assert w is None or verify_gpc_witness(poset, w)


@pytest.mark.parametrize("poset", [Poset.antichain(3), Poset.antichain(2)], ids=["factor", "direct"])
def test_gpc_via_decomposition_rejects_non_bool_strict(poset):
    """Both paths, the factor's search and the direct one, check ``strict``."""
    for strict in (2, 0.5):
        with pytest.raises(ValueError, match="^strict must be False or True"):
            gpc_via_decomposition(poset, strict=strict)


def test_gpc_via_decomposition_strict_antichain():
    # the factor {0, 1} has t0 = 2 and vacuous branches; lifted by k = 3
    # they would tie t0 = t1 + t2 = 6, so the lift records the first pair
    # each result leaves incomparable, as the direct search does
    p = Poset.antichain(3)
    w = gpc_via_decomposition(p, strict=True)
    assert w == check_gpc(p, strict=True)
    assert w.t0 == 6 and [(b.t1, b.second, b.t2) for b in w.branches] == [
        (3, (0, 2), 2),
        (3, (0, 2), 2),
    ]
    assert verify_gpc_witness(p, w)
