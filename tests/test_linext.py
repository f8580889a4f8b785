"""Counting, enumeration and order probabilities against brute force."""

import math
import re
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
    closed_subsets,
    posets,
    twin_heavy_posets,
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


@pytest.mark.parametrize(
    "poset",
    [
        Poset.antichain(1),
        Poset.antichain(4),
        Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)]),  # the N poset
        Poset.from_permutation([1, 5, 3, 2, 4]),
    ],
)
def test_enumerate_cap_boundary(poset):
    """A cap of exactly e(P) enumerates everything; one less enumerates nothing."""
    total = count_extensions(poset)
    assert len(enumerate_extensions(poset, cap=total)) == total
    message = f"^e\\(P\\) = {total} exceeds enumeration cap {total - 1}$"
    with pytest.raises(CapExceededError, match=message):
        enumerate_extensions(poset, cap=total - 1)


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


@settings(max_examples=60, deadline=None)
@given(posets(7))
def test_outcome_matrix_is_the_complement(poset):
    """P's matrix less that of P + a<b, entry by entry, is the matrix of P + b<a."""
    matrix = pair_counts(poset)
    orders = brute_extensions(poset)  # L(P + b<a): the orders with b before a
    for a, b in poset.incomparable_pairs():
        part = pair_counts(poset.with_relation(a, b))
        other = [order for order in orders if order.index(b) < order.index(a)]
        assert matrix.total - part.total == len(other)
        derived = [
            [whole - piece for whole, piece in zip(row, part_row)]
            for row, part_row in zip(matrix.counts, part.counts)
        ]
        assert derived == brute_pair_counts(poset, other)


def _check_packed(poset):
    """Each field read in place equals the unpacked entry and the brute count,
    for P and for every outcome P + a<b on P's lattice."""
    orders = brute_extensions(poset)
    outcomes = [((), orders)]
    for a, b in poset.incomparable_pairs():
        for x, y in ((a, b), (b, a)):
            kept = [order for order in orders if order.index(x) < order.index(y)]
            outcomes.append((((x, y),), kept))
    for given, kept in outcomes:
        matrix = linext._kept_matrix(poset, given)
        assert matrix.total == len(kept)
        brute = brute_pair_counts(poset, kept)
        n = poset.n
        assert [[matrix.before(x, y) for y in range(n)] for x in range(n)] == brute
        assert [list(row) for row in matrix.counts] == brute


@settings(max_examples=40, deadline=None)
@given(posets(7))
def test_packed_fields_match_brute_force(poset):
    _check_packed(poset)


@settings(max_examples=40, deadline=None)
@given(twin_heavy_posets(7))
def test_packed_fields_match_brute_force_with_twins(poset):
    _check_packed(poset)


def test_pair_counts_on_wide_antichain():
    matrix = pair_counts(Poset.antichain(12))
    half = math.factorial(12) // 2
    assert matrix.total == 2 * half
    assert all(
        matrix.counts[x][y] == (0 if x == y else half)
        for x in range(12)
        for y in range(12)
    )


def test_pair_counts_chain_beside_antichain():
    """A 5-chain on the odd points beside 6 free even points: 11 points,
    past the brute-force oracles.  A free point falls into one of the six
    gaps of the chain, uniformly, so it precedes the i-th chain point
    (from 0) in i + 1 of them."""
    chain = [1, 3, 5, 7, 9]
    free = [0, 2, 4, 6, 8, 10]
    p = Poset.from_relations(11, list(zip(chain, chain[1:])))
    matrix = pair_counts(p)
    total = math.comb(11, 5) * math.factorial(6)
    assert matrix.total == count_extensions(p) == total
    for i, c in enumerate(chain):
        for j, d in enumerate(chain):
            assert matrix.counts[c][d] == (total if i < j else 0)
        for f in free:
            assert matrix.counts[f][c] == math.comb(11, 5) * math.factorial(5) * (i + 1)
            assert matrix.counts[c][f] == total - matrix.counts[f][c]
    for f in free:
        for g in free:
            assert matrix.counts[f][g] == (0 if f == g else total // 2)


def test_count_wide_antichains():
    for k in range(1, 15):
        assert count_extensions(Poset.antichain(k)) == math.factorial(k)


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


@pytest.mark.parametrize("x, y, outside", [(-1, 2, [-1]), (0, 3, [3]), (5, -2, [5, -2])])
def test_prob_rejects_points_outside_the_poset(x, y, outside):
    """A point outside 0..n-1 is named in a ValueError, before any shift or
    index could fail on it."""
    poset = Poset.from_relations(3, [(0, 1)])
    with pytest.raises(ValueError, match=re.escape(f"in 0..2, got {outside}")):
        prob(poset, x, y)


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


def _record_lattices(monkeypatch):
    """Record the poset of every lattice of ideals built."""
    builds = []
    lattice = linext._lattice

    def built(poset):
        if poset._lattice is None:
            builds.append(poset)
        return lattice(poset)

    monkeypatch.setattr(linext, "_lattice", built)
    return builds


def test_pair_counts_pass_runs_once_per_poset(monkeypatch):
    poset = Poset.from_relations(5, [(0, 2), (1, 2), (1, 3), (3, 4)])
    builds = _record_lattices(monkeypatch)
    passes = []
    matrix = linext._matrix

    def counted(p, given=()):
        passes.append((p, given))
        return matrix(p, given)

    monkeypatch.setattr(linext, "_matrix", counted)
    first = pair_counts(poset)
    delta(poset)
    balanced_pair(poset)
    check_gpc(poset)
    check_gpc(poset, mode="nonadaptive")
    assert pair_counts(poset) is first
    assert passes.count((poset, ())) == 1
    # the outcomes' matrices come from P's lattice too
    assert all(p is poset for p, _ in passes)
    assert builds == [poset]


def test_pair_counts_memo_leaves_equality_and_hash(n_poset):
    twin = Poset(n_poset.n, n_poset.lt)
    before = hash(n_poset)
    pair_counts(n_poset)
    assert n_poset == twin and twin == n_poset
    assert hash(n_poset) == before == hash(twin)
    outcome = n_poset.with_relation(0, 1)
    assert outcome._pair_counts is None
    assert pair_counts(outcome).total == count_extensions(outcome) == 2


def test_lattice_memo_leaves_equality_and_hash(monkeypatch, n_poset):
    builds = _record_lattices(monkeypatch)
    twin = Poset(n_poset.n, n_poset.lt)
    before = hash(n_poset)
    lattice = linext._lattice(n_poset)
    assert n_poset == twin and twin == n_poset
    assert hash(n_poset) == before == hash(twin)
    assert twin._lattice is None
    outcome = n_poset.with_relation(0, 1)
    assert outcome._lattice is None and outcome._pair_counts is None
    # a second call, and every count on P and its outcomes, builds nothing more
    assert linext._lattice(n_poset) is lattice
    assert linext._counts(n_poset, [((0, 1),)]) == [pair_counts(n_poset).counts[0][1]] == [2]
    assert builds == [n_poset]
    ideals, sources, targets, elements = lattice
    assert len(sources) == len(targets) == len(elements)
    assert sources[-1] == len(ideals) - 2  # the full ideal has no steps
    assert ideals[0] == 0 and ideals[-1] == (1 << n_poset.n) - 1


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)))
def test_lattice_matches_closed_subsets(poset):
    """The levels are P's down-sets by size; the steps add minimal elements."""
    n = poset.n
    below = [sum(1 << y for y in range(n) if poset.is_lt(y, x)) for x in range(n)]
    closed = closed_subsets(n, below)
    ideals, sources, targets, elements = linext._lattice(poset)
    sizes = [ideal.bit_count() for ideal in ideals]
    assert sizes == sorted(sizes)
    for k in range(n + 1):
        level = [ideal for ideal, size in zip(ideals, sizes) if size == k]
        assert sorted(level) == [s for s in closed if s.bit_count() == k]
    steps = [(ideals[i], x, ideals[j]) for i, j, x in zip(sources, targets, elements)]
    assert sorted(steps) == [
        (ideal, x, ideal | 1 << x)
        for ideal in closed
        for x in range(n)
        if not ideal >> x & 1 and not below[x] & ~ideal
    ]
    assert list(sources) == sorted(sources)
    for s in range(1, len(sources)):
        assert sources[s - 1] < sources[s] or elements[s - 1] < elements[s]


def _draw_outcomes(data, poset):
    """(given, P + given) for 0, 1 and 2 comparisons, each drawn incomparable."""
    given = []
    outcome = poset
    yield (), outcome
    for _ in range(2):
        pairs = outcome.incomparable_pairs()
        if not pairs:
            return
        a, b = data.draw(st.sampled_from(pairs))
        if data.draw(st.booleans()):
            a, b = b, a
        given.append((a, b))
        outcome = outcome.with_relation(a, b)
        yield tuple(given), outcome


def _check_outcomes(data, poset):
    for given, outcome in _draw_outcomes(data, poset):
        assert linext._counts(poset, [given]) == [brute_count(outcome)]
        matrix = linext._matrix(poset, given)
        assert matrix.total == brute_count(outcome)
        assert [list(row) for row in matrix.counts] == brute_pair_counts(outcome)


@settings(max_examples=40, deadline=None)
@given(posets(7), st.data())
def test_outcome_counts_match_brute_force(poset, data):
    _check_outcomes(data, poset)


@settings(max_examples=30, deadline=None)
@given(twin_heavy_posets(7), st.data())
def test_outcome_counts_match_brute_force_on_twins(poset, data):
    _check_outcomes(data, poset)


@settings(max_examples=40, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)), st.integers(0, 99), st.integers(0, 99))
@example(Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)]), 0, 0)
def test_degenerate_givens_match_brute_force(poset, i, j):
    """``_matrix``'s forward loop and ``_counts`` agree with the filtered
    extensions when ``given`` adds nothing or leaves nothing: a comparison P
    implies gives P's matrix; one P contradicts, or two that close a cycle,
    give total 0 and every count 0."""
    orders = brute_extensions(poset)
    zeros = [[0] * poset.n for _ in range(poset.n)]
    cases = []
    relations, pairs = poset.relation_pairs(), poset.incomparable_pairs()
    if relations:
        a, b = relations[i % len(relations)]
        cases += [(((a, b),), len(orders), brute_pair_counts(poset)), (((b, a),), 0, zeros)]
    if pairs:
        a, b = pairs[j % len(pairs)]
        cases.append((((a, b), (b, a)), 0, zeros))
    for given_, total, counts in cases:
        kept = [o for o in orders if all(o.index(a) < o.index(b) for a, b in given_)]
        matrix = linext._matrix(poset, given_)
        assert linext._counts(poset, [given_]) == [matrix.total] == [len(kept)] == [total]
        assert [list(row) for row in matrix.counts] == brute_pair_counts(poset, kept) == counts


def test_count_extensions_reads_kept_total_or_runs_its_own_pass(monkeypatch, n_poset):
    """A fresh poset gets one forward pass and no lattice; once P's matrix
    is kept, e(P) is its total, read with no pass."""
    passes = _count_passes(monkeypatch)
    assert count_extensions(n_poset) == 5
    assert passes == [n_poset] and n_poset._lattice is None
    assert n_poset._pair_counts is None
    pair_counts(n_poset)
    passes.clear()
    assert count_extensions(n_poset) == 5 == pair_counts(n_poset).total
    assert passes == []


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)))
def test_count_extensions_before_and_after_pair_counts(poset):
    expected = brute_count(poset)
    assert count_extensions(poset) == expected
    pair_counts(poset)
    assert count_extensions(poset) == expected


@st.composite
def _givens(draw, poset):
    """1 to 5 givens on ``poset``: lists of comparisons, any of them empty,
    redundant (a relation of P) or closing a cycle with P or each other."""
    n = poset.n
    points = st.integers(0, n - 1)
    pairs = [st.tuples(points, points)]
    relations = poset.relation_pairs()
    if relations:
        pairs.append(st.sampled_from(relations))
        pairs.append(st.sampled_from([(b, a) for a, b in relations]))
    given = st.lists(st.one_of(pairs), max_size=4).map(tuple)
    return draw(st.lists(given, min_size=1, max_size=5))


def _brute_counts(poset, givens):
    ranks = [{e: i for i, e in enumerate(order)} for order in brute_extensions(poset)]
    return [
        sum(all(rank[a] < rank[b] for a, b in given) for rank in ranks) for given in givens
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(7), twin_heavy_posets(7)).flatmap(
    lambda poset: st.tuples(st.just(poset), _givens(poset))
))
@example((Poset.antichain(3), [(), ((0, 1), (1, 0)), ((2, 2),), ((0, 1), (1, 2), (0, 2))]))
@example((Poset.from_relations(4, [(0, 3)]), [((0, 2), (1, 2)), ((1, 2),), ((1, 2), (3, 2))]))
def test_packed_counts_match_brute_force(case):
    poset, givens = case
    assert linext._counts(poset, givens) == _brute_counts(poset, givens)


def test_prob_is_one_pass(monkeypatch):
    poset = Poset.from_relations(5, [(0, 2), (1, 2), (1, 3)])
    calls = []
    counts = linext._counts

    def counted(p, givens):
        calls.append(list(givens))
        return counts(p, givens)

    monkeypatch.setattr(linext, "_counts", counted)
    assert prob(poset, 0, 1) == Fraction(brute_pair_counts(poset)[0][1], brute_count(poset))
    assert calls == [[(), ((0, 1),)]]

