"""Outcome matrices kept on the poset: one pass each, whatever reads them."""

import hashlib
import json
import random

from hypothesis import given, settings

from posetlex import Poset, check_gpc, linext
from posetlex.generate import random_nonchain_poset, random_poset

from conftest import (
    brute_count,
    brute_gpc,
    brute_pair_counts,
    labeled_posets,
    posets,
    twin_heavy_posets,
)

MODES = ("adaptive", "nonadaptive")

#: sha256 of the witnesses' JSON over the labeled non-chains on 5 points
#: and 200 seeded random 10-point posets, taken before outcome matrices were
#: kept.
WITNESS_SHA256 = "8d7785c86190beed91ce4ab3e6cbddb2a83116e9565ec11b6eddb0e47830c428"


def _record_passes(monkeypatch):
    """Record (poset, given) for every pass ``linext._matrix`` runs."""
    passes = []
    matrix = linext._matrix

    def counted(p, given=()):
        passes.append((p, given))
        return matrix(p, given)

    monkeypatch.setattr(linext, "_matrix", counted)
    return passes


def test_second_mode_repeats_no_pass(monkeypatch):
    passes = _record_passes(monkeypatch)
    rng = random.Random(8)
    saved = 0
    for n in (8, 9, 10):
        for _ in range(10):
            poset = random_nonchain_poset(n, rng)
            passes.clear()
            check_gpc(poset)
            first = len(passes)
            check_gpc(poset, mode="nonadaptive")
            both = list(passes)
            passes.clear()
            check_gpc(Poset(poset.n, poset.lt), mode="nonadaptive")
            alone = {given for _, given in passes}
            assert all(p is poset for p, _ in both)
            assert len(set(both)) == len(both)
            assert set(poset._pair_counts) == {given for _, given in both} >= alone
            saved += len(alone) - (len(both) - first)
    # the nonadaptive search tries the adaptive one's first pairs again
    assert saved > 0


def _check_both_orders(poset):
    counts = {}  # poset -> brute count, shared by every brute_gpc call
    expected = {
        (mode, strict): brute_gpc(Poset(poset.n, poset.lt), mode, strict, counts)
        for mode in MODES
        for strict in (False, True)
    }
    brute = {}  # given -> (e, pair counts) of P + given, brute-counted once
    for order in (MODES, MODES[::-1]):
        instance = Poset(poset.n, poset.lt)
        for strict in (False, True):
            for mode in order:
                assert check_gpc(instance, mode=mode, strict=strict) == expected[mode, strict]
        for given, matrix in instance._pair_counts.items():
            if given not in brute:
                outcome = poset
                for a, b in given:
                    outcome = outcome.with_relation(a, b)
                total = counts.get(outcome) or brute_count(outcome)
                brute[given] = total, brute_pair_counts(outcome)
            total, pairs = brute[given]
            assert matrix.total == total
            assert [list(row) for row in matrix.counts] == pairs


@settings(max_examples=30, deadline=None)
@given(posets(7))
def test_modes_in_either_order_match_reference(poset):
    if not poset.is_chain():
        _check_both_orders(poset)


@settings(max_examples=20, deadline=None)
@given(twin_heavy_posets(7))
def test_modes_in_either_order_match_reference_on_twins(poset):
    if not poset.is_chain():
        _check_both_orders(poset)


def test_witnesses_unchanged_by_kept_matrices():
    rng = random.Random(1)
    inputs = list(labeled_posets(5)) + [random_poset(10, rng) for _ in range(200)]
    docs = []
    for poset in inputs:
        if poset.is_chain():
            continue
        for strict in (False, True):
            for mode in MODES:
                witness = check_gpc(poset, mode=mode, strict=strict)
                docs.append(None if witness is None else witness.to_json_dict())
    text = json.dumps(docs, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_SHA256
