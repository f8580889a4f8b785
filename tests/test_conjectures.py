"""Gold partition witnesses, sorting cost, and the golden-ratio bound."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from posetlex import (
    Poset,
    check_gpc,
    gold_bound_holds,
    prob,
    sort_cost,
    verify_gpc_witness,
)
from posetlex.conjectures import GpcBranch, GpcWitness, information_lower_bound, _fib
from posetlex.errors import ChainError, SizeCapError

from conftest import brute_gpc, labeled_posets, posets


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


def test_strict_reading_fails_on_three_extensions(point_and_chain):
    # Any poset with exactly three extensions has a t1 = 2 outcome whose
    # real second comparison leaves one extension, so strictly 3 > 2 + 1
    # cannot hold.  The strict variant is kept for comparison only.
    assert check_gpc(point_and_chain, strict=True) is None
    assert check_gpc(Poset.antichain(2), strict=True) is not None


def test_witness_determinism(n_poset):
    assert check_gpc(n_poset) == check_gpc(n_poset)


@settings(max_examples=60, deadline=None)
@given(posets(6))
def test_witness_matches_reference_search(poset):
    assume(not poset.is_chain())
    for mode in ("adaptive", "nonadaptive"):
        for strict in (False, True):
            assert check_gpc(poset, mode=mode, strict=strict) == brute_gpc(poset, mode, strict)


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


def test_sort_cost_cap():
    with pytest.raises(SizeCapError):
        sort_cost(Poset.antichain(9))


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
