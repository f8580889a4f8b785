"""Lexicographic sums: construction, locality, lifting, gap profiles."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetlex import (
    Poset,
    autonomous_sets,
    chain_substitution_probability,
    check_gpc,
    compose_at,
    count_extensions,
    delta,
    enumerate_extensions,
    gap_profile,
    lex_sum,
    lift_gpc_witness,
    lift_witness,
    locality_table,
    multiset_coefficient,
    prob,
    prob_preservation,
    restrict_to_component,
    verify_divisibility,
    verify_gpc_witness,
)
from posetlex.conjectures import GpcWitness
from posetlex.errors import (
    ArityMismatchError,
    CapExceededError,
    ComponentError,
    InvalidWitnessError,
    PosetError,
    RemarkViolationError,
)
from posetlex import lexsum, linext
from posetlex.generate import poset_classes, random_nonchain_poset, random_poset
from posetlex.linext import LinearExtension

from conftest import (
    brute_count,
    brute_extensions,
    brute_gpc,
    brute_locality_table,
    posets,
    twin_heavy_posets,
)

#: The N shape: w=0 < y=2, x=1 < y=2, x=1 < z=3.
N_POSET = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])
#: r, t < u: one point beside a 2-chain.
R_TU = Poset.from_relations(3, [(1, 2)])


def test_lex_sum_arity():
    with pytest.raises(ArityMismatchError):
        lex_sum(Poset.chain(2), [Poset.chain(1)])


def test_lex_sum_chain_of_chains_is_chain():
    spec = lex_sum(Poset.chain(2), [Poset.chain(2), Poset.chain(3)])
    assert spec.poset.is_chain()
    assert spec.poset.n == 5
    assert not spec.trivial


def test_lex_sum_trivial_flags():
    one = Poset.antichain(1)
    assert lex_sum(one, [Poset.antichain(3)]).trivial
    assert lex_sum(Poset.chain(3), [one, one, one]).trivial


def test_lex_sum_relations(n_poset):
    # replace x (element 1) of the N poset by a 2-antichain
    spec = compose_at(n_poset, 1, Poset.antichain(2))
    p = spec.poset
    block = spec.embed[1]
    assert len(block) == 2
    a, b = block
    assert not p.is_lt(a, b) and not p.is_lt(b, a)
    y = spec.embed[2][0]
    z = spec.embed[3][0]
    for e in block:
        assert p.is_lt(e, y) and p.is_lt(e, z)


def test_component_of(n_poset):
    spec = compose_at(n_poset, 0, Poset.chain(2))
    assert spec.component_of(0) == 0
    assert spec.component_of(2) == 1
    with pytest.raises(ComponentError):
        spec.component_of(99)


def test_restrict_to_component_locality():
    base = Poset.chain(2)
    spec = lex_sum(base, [Poset.antichain(2), Poset.antichain(1)])
    good = LinearExtension.from_order((1, 0, 2))
    assert restrict_to_component(spec, good, 0) == (1, 0)
    # an order interleaving the components violates locality
    bad = LinearExtension.from_order((0, 2, 1))
    with pytest.raises(RemarkViolationError, match="component 1 not above component 0"):
        restrict_to_component(spec, bad, 0)
    # the same from the other side: the component below labeled too high
    spec = lex_sum(base, [Poset.antichain(1), Poset.antichain(2)])
    good = LinearExtension.from_order((0, 2, 1))
    assert restrict_to_component(spec, good, 1) == (1, 0)
    bad = LinearExtension.from_order((1, 0, 2))
    with pytest.raises(RemarkViolationError, match="component 0 not below component 1"):
        restrict_to_component(spec, bad, 1)


def _triples():
    """(base, i, Q) in any labeling, with at most 7 points in the sum; the
    base and Q may each be twin-heavy."""
    shapes = st.one_of(posets(4), twin_heavy_posets(4))
    return st.tuples(shapes, shapes).flatmap(
        lambda bq: st.tuples(st.just(bq[0]), st.integers(0, bq[0].n - 1), st.just(bq[1]))
    )


@settings(max_examples=100, deadline=None)
@given(_triples())
@example((N_POSET, 0, Poset.from_relations(3, [(1, 2)])))
@example((Poset.antichain(5), 0, Poset.antichain(2)))  # large k: 360 per class
@example((N_POSET, 3, Poset.from_relations(3, [(0, 1)])))  # block on the last point
@example((N_POSET, 1, Poset.antichain(1)))  # one column
@example((N_POSET, 2, Poset.chain(3)))  # one column, block of three
def test_locality_table_shape(triple):
    base, i, q = triple
    table = locality_table(base, i, q)
    columns, classes = brute_locality_table(table.spec.poset, table.spec.embed[i], q)
    assert table.columns == tuple(columns)
    assert list(table.classes) == columns
    for column in columns:
        assert [f.order for f in table.classes[column]] == classes[column]
        assert len(table.classes[column]) == table.k
    assert table.k * len(columns) == table.total == brute_count(table.spec.poset)


@pytest.mark.parametrize(
    "base, i, component",
    [
        (N_POSET, 0, R_TU),
        (Poset.antichain(3), 1, Poset.antichain(2)),
        (N_POSET, 2, Poset.chain(3)),
    ],
)
def test_locality_table_classes_unpack_packed_once(base, i, component):
    """``classes`` is ``packed`` unpacked, built on first read and kept."""
    table = locality_table(base, i, component)
    assert list(table.packed) == list(table.columns)
    assert table.classes is table.classes
    n = table.spec.poset.n
    for column, members in table.classes.items():
        assert members == tuple(linext._unpack(table.packed[column], n))


@pytest.mark.parametrize(
    "dropped, side",
    [((2, 3), "component 2 not above component 1"), ((0, 2), "component 0 not below component 1")],
)
def test_locality_table_checks_locality(monkeypatch, dropped, side):
    """A sum missing one relation between the block and another component
    has extensions that break locality: the table names the first."""
    base, component = Poset.chain(3), Poset.antichain(2)  # sum: 0 < {1, 2} < 3
    spec = compose_at(base, 1, component)
    pairs = [pair for pair in spec.poset.relation_pairs() if pair != dropped]
    broken = spec._replace(poset=Poset.from_relations(4, pairs))
    monkeypatch.setattr(lexsum, "compose_at", lambda *args: broken)
    with pytest.raises(RemarkViolationError, match=f"^{side}$"):
        locality_table(base, 1, component)


def test_locality_table_checks_columns(monkeypatch):
    """A sum missing a relation of Q inside the block has a column that is
    not a linear extension of Q."""
    base, component = Poset.chain(2), Poset.chain(2)  # sum: 0 < 1 < 2
    spec = compose_at(base, 1, component)
    broken = spec._replace(poset=Poset.from_relations(3, [(0, 1), (0, 2)]))
    monkeypatch.setattr(lexsum, "compose_at", lambda *args: broken)
    with pytest.raises(PosetError, match=r"^restriction \(1, 0\) is not a linear extension of Q$"):
        locality_table(base, 1, component)


def _dropped(spec, pair):
    """``spec`` with ``pair`` missing from its sum, or None if it stays implied."""
    pairs = [other for other in spec.poset.relation_pairs() if other != pair]
    poset = Poset.from_relations(spec.poset.n, pairs)
    return None if poset.is_lt(*pair) else spec._replace(poset=poset)


def _first_fault(spec, i, component):
    """The error the per-extension checks raise first on L(sum), brute force.

    Extensions come in lexicographic order; the first that breaks locality
    or restricts to an order outside L(Q) decides the message.
    """
    columns = brute_extensions(component)
    for order in brute_extensions(spec.poset):
        try:
            column = restrict_to_component(spec, LinearExtension.from_order(order), i)
        except RemarkViolationError as exc:
            return RemarkViolationError, str(exc)
        if column not in columns:
            return PosetError, f"restriction {column} is not a linear extension of Q"
    return None


@pytest.mark.parametrize(
    "base, i, component, cases",
    [
        # sum: 0 < {1, 2} < 3; the block has no relation inside
        (Poset.chain(3), 1, Poset.antichain(2), 4),
        # sum: {0, 1 < 2} < 4 > 3 < 5; (1, 4) stays implied by 1 < 2 < 4
        (N_POSET, 0, R_TU, 3),
    ],
)
def test_locality_table_step_checks_are_complete(
    monkeypatch, base, i, component, cases
):
    """Drop each relation of the sum that touches the block in turn.  One
    between the block and another component breaks locality, named by
    that component; one inside the block gives a column outside L(Q)."""
    spec = compose_at(base, i, component)
    block = spec.embed[i]
    checked = 0
    for a, b in spec.poset.relation_pairs():
        broken = _dropped(spec, (a, b))
        if broken is None or (a not in block and b not in block):
            continue
        monkeypatch.setattr(lexsum, "compose_at", lambda *args: broken)
        if a in block and b in block:
            error, message = _first_fault(broken, i, component)
            assert error is PosetError
        else:
            other, side = (b, "above") if a in block else (a, "below")
            error = RemarkViolationError
            message = f"component {spec.component_of(other)} not {side} component {i}"
            assert _first_fault(broken, i, component) == (error, message)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            locality_table(base, i, component)
        checked += 1
    assert checked == cases


@settings(max_examples=100, deadline=None)
@given(_triples(), st.data())
def test_locality_table_reports_first_fault(triple, data):
    """With any one relation of the sum dropped, the step checks raise what
    the per-extension checks raise on the first faulty extension."""
    base, i, q = triple
    spec = compose_at(base, i, q)
    pairs = spec.poset.relation_pairs()
    if not pairs:
        return
    broken = _dropped(spec, data.draw(st.sampled_from(pairs)))
    if broken is None:
        return
    expected = _first_fault(broken, i, q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexsum, "compose_at", lambda *args: broken)
        if expected is None:
            table = locality_table(base, i, q)
            assert table.k * len(table.columns) == brute_count(broken.poset)
        else:
            error, message = expected
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                locality_table(base, i, q)


@pytest.mark.parametrize(
    "base, i, component",
    [
        (Poset.chain(3), 1, Poset.antichain(2)),  # e(sum) = e(Q) = 2
        (N_POSET, 0, R_TU),  # 42 = 14 * 3
        (Poset.antichain(3), 0, Poset.antichain(2)),  # 24 = 12 * 2
    ],
)
def test_locality_table_cap_boundary(base, i, component):
    """A cap of e(sum) builds the table; below it the cap binds on the sum,
    and below e(Q) on Q, before the sum is looked at."""
    e_q = count_extensions(component)
    e_sum = count_extensions(compose_at(base, i, component).poset)
    assert locality_table(base, i, component, cap=e_sum).total == e_sum
    for cap, e in ((e_sum - 1, e_sum if e_q < e_sum else e_q), (e_q - 1, e_q)):
        message = f"^e\\(P\\) = {e} exceeds enumeration cap {cap}$"
        with pytest.raises(CapExceededError, match=message):
            locality_table(base, i, component, cap=cap)


def test_divisibility_product():
    base = Poset.from_relations(2, [])
    comps = [Poset.antichain(2), Poset.chain(3)]
    ok, cofactor = verify_divisibility(base, comps)
    assert ok
    total = count_extensions(lex_sum(base, comps).poset)
    assert cofactor * 2 == total


def test_divisibility_random_instances():
    rng = random.Random(20240817)
    for _ in range(25):
        base = random_poset(rng.randint(1, 4), rng)
        comps = [random_poset(rng.randint(1, 3), rng) for _ in range(base.n)]
        ok, _ = verify_divisibility(base, comps)
        assert ok


def test_lift_witness_exact_multiples(n_poset):
    q = Poset.from_relations(3, [(1, 2)])
    w = check_gpc(q)
    lifted = lift_gpc_witness(n_poset, 0, q, w)
    spec = compose_at(n_poset, 0, q)
    k = count_extensions(spec.poset) // count_extensions(q)
    assert lifted.t0 == k * w.t0
    for lb, qb in zip(lifted.branches, w.branches):
        assert lb.t1 == k * qb.t1
        assert lb.t2 == k * qb.t2
    assert lifted.holds()
    assert verify_gpc_witness(spec.poset, lifted)


@pytest.mark.parametrize(
    "relations, vacuous", [([], False), ([(1, 2)], True)], ids=["antichain", "point-and-chain"]
)
def test_lift_witness_counts_once_per_comparison(monkeypatch, n_poset, relations, vacuous):
    """One pass on Q and one on the sum; each comparison in one orientation.

    The point beside a chain has a witness whose first branch is a chain,
    with no second pair, so nothing is counted for it past its t1.
    """
    q = Poset.from_relations(3, relations)
    w = check_gpc(q)
    assert [branch.second is None for branch in w.branches] == [vacuous, False]
    spec = compose_at(n_poset, 0, q)
    calls = []
    builds = []
    counts = lexsum.linext._counts
    lattice = lexsum.linext._lattice

    def counted(poset, givens):
        calls.append((poset, list(givens)))
        return counts(poset, givens)

    def built(poset):
        if poset._lattice is None:
            builds.append(poset)
        return lattice(poset)

    monkeypatch.setattr(lexsum.linext, "_counts", counted)
    monkeypatch.setattr(lexsum.linext, "_lattice", built)
    lifted = lift_witness(spec.poset, spec.embed[0], q, w)
    # re-verification on Q and the lift to the sum count alike, in one pass
    # each: e, the first branch's t1, and one orientation of each second pair
    assert [p for p, _ in calls] == [q, spec.poset]
    for (_, givens), witness in zip(calls, (w, lifted)):
        (r1, s1), (r2, s2) = [(b.result, b.second) for b in witness.branches]
        seconds = [(r2, s2)] if vacuous else [(r1, s1), (r2, s2)]
        assert givens == [(), (r1,), *seconds]
    # every count runs on the lattice of Q or of the sum; Q's came with w
    assert builds == [spec.poset]
    assert lifted.t0 == count_extensions(spec.poset)


def test_strict_lift_mends_vacuous_tie(monkeypatch):
    """Q = A_2 has t0 = 2 and two vacuous branches; lifted into A_3 by
    k = 3 each would tie t0 = t1 + t2 = 6, so each records the first pair
    its result leaves incomparable, counted in the sum's one pass."""
    q, r = Poset.antichain(2), Poset.antichain(3)
    w = check_gpc(q, strict=True)
    assert [b.second for b in w.branches] == [None, None]
    calls = []
    counts = lexsum.linext._counts

    def counted(poset, givens):
        calls.append(poset)
        return counts(poset, givens)

    monkeypatch.setattr(lexsum.linext, "_counts", counted)
    lifted = lift_witness(r, (0, 1), q, w)
    assert calls == [q, r]
    assert lifted.t0 == 6 and [(b.t1, b.second, b.t2) for b in lifted.branches] == [
        (3, (0, 2), 2),
        (3, (0, 2), 2),
    ]
    assert verify_gpc_witness(r, lifted)


@pytest.mark.parametrize("strict, pins", [(False, (1322, 1322, 0)), (True, (1322, 1169, 153))])
def test_theorem_on_every_class_to_six_points(strict, pins):
    """The paper's theorem: a witness of Q lifts to one of P o_i Q.  Every
    class R on at most 6 points with a proper autonomous set M inducing a
    non-chain Q = R|M is such a sum; each of Q's witnesses must lift."""
    instances = lifted = unwitnessed = 0
    for r, _ in poset_classes(6):
        for members in autonomous_sets(r):
            q = r.induced(members.members)
            if q.is_chain():
                continue
            instances += 1
            witness = check_gpc(q, strict=strict)
            if witness is None:
                unwitnessed += 1
                continue
            assert verify_gpc_witness(r, lift_witness(r, members.members, q, witness))
            lifted += 1
    assert (instances, lifted, unwitnessed) == pins


def test_lift_rejects_invalid_witness(n_poset):
    q = Poset.from_relations(3, [(1, 2)])
    w = check_gpc(q)
    forged = GpcWitness(w.first, w.t0 + 1, w.branches, w.strict)
    with pytest.raises(InvalidWitnessError):
        lift_gpc_witness(n_poset, 0, q, forged)


@pytest.mark.parametrize("mapping", [(2, -1), (2, 4), (2, 2)])
def test_lift_rejects_bad_mapping(monkeypatch, mapping):
    r = compose_at(Poset.from_relations(3, [(0, 1)]), 2, Poset.antichain(2)).poset
    q = Poset.antichain(2)
    w = check_gpc(q)
    monkeypatch.setattr(linext, "_counts", None)  # nothing is counted
    with pytest.raises(ValueError):
        lift_witness(r, mapping, q, w)


def test_nonadaptive_witness_need_not_lift():
    """Where the theorem stops: R = B o_0 Q on six points.  Q has a
    nonadaptive witness, R none; its chain outcome 1 < 0 becomes a
    3-extension outcome of R.  The lift of Q's witness is adaptive only."""
    r = Poset.from_relations(
        6,
        [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5)],
    )
    q = Poset.from_relations(3, [(0, 2)])
    b = Poset.from_relations(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
    assert compose_at(b, 0, q).poset == r
    for search in (check_gpc, lambda p, mode: brute_gpc(p, mode, False)):
        witness = search(q, mode="nonadaptive")
        assert witness is not None and witness.branches[1].second is None
        assert search(r, mode="nonadaptive") is None
        assert search(r, mode="adaptive") is not None
    lifted = lift_witness(r, (0, 1, 2), q, check_gpc(q, mode="nonadaptive"))
    assert verify_gpc_witness(r, lifted)
    assert [(x.t1, x.second, x.t2) for x in lifted.branches] == [(6, (1, 2), 3), (3, None, 3)]


def test_prob_preservation(n_poset):
    q = Poset.from_relations(3, [(1, 2)])
    spec = compose_at(n_poset, 0, q)
    x, y = spec.embed[0][0], spec.embed[0][1]
    inside, outside = prob_preservation(spec, 0, x, y)
    assert inside == outside == prob(q, 0, 1)
    with pytest.raises(ComponentError):
        prob_preservation(spec, 0, spec.embed[0][0], spec.embed[1][0])


def test_delta_of_sum_dominates_components():
    rng = random.Random(5)
    for _ in range(10):
        base = random_poset(rng.randint(1, 3), rng)
        comps = [random_poset(rng.randint(1, 3), rng) for _ in range(base.n)]
        spec = lex_sum(base, comps)
        if spec.poset.is_chain():
            continue
        value, _ = delta(spec.poset)
        for q in comps:
            if not q.is_chain():
                qv, _ = delta(q)
                assert value >= qv


def test_multiset_coefficient():
    assert multiset_coefficient(1, 5) == 1
    assert multiset_coefficient(3, 2) == 6
    assert multiset_coefficient(2, 3) == 4


def test_gap_profile_partitions(point_and_chain):
    profile = gap_profile(point_and_chain, 0)
    assert profile.total() == count_extensions(point_and_chain)
    # the isolated point floats across the whole 2-chain: one class, gap 2
    assert list(profile.classes.values()) == [2]


@settings(max_examples=60, deadline=None)
@given(posets(6), st.data())
def test_gap_profile_matches_brute_force(p, data):
    point = data.draw(st.integers(0, p.n - 1))
    expected = {}
    for order in brute_extensions(p):
        label = {e: rank for rank, e in enumerate(order, start=1)}
        c = max([label[s] for s in range(p.n) if p.is_lt(s, point)], default=0)
        b = min([label[r] for r in range(p.n) if p.is_lt(point, r)], default=p.n + 1)
        k = sum(
            1
            for t in range(p.n)
            if t != point and not p.is_lt(t, point) and not p.is_lt(point, t)
            and c < label[t] < b
        )
        reduced = tuple(e for e in order if e != point)
        assert expected.setdefault(reduced, k) == k
    assert gap_profile(p, point).classes == expected


def test_gap_profile_order_is_pinned():
    """gap_profile lists its classes in enumeration order; the order of
    enumerate_extensions is pinned by one sha256 over seeded posets."""
    rng = random.Random(20241019)
    digest = hashlib.sha256()
    for _ in range(40):
        p = random_poset(rng.randint(1, 8), rng)
        for point in range(p.n):
            digest.update(repr(list(gap_profile(p, point).classes.items())).encode())
    assert digest.hexdigest() == (
        "1dbb4936cdc4e2473b639e51e58abd624c291be8f6b31c7546b861b41c456c57"
    )


def test_gap_profile_predicts_substitution(point_and_chain):
    profile = gap_profile(point_and_chain, 0)
    for m in (1, 2, 3):
        grown = compose_at(point_and_chain, 0, Poset.chain(m)).poset
        assert profile.substituted_count(m) == count_extensions(grown)


def test_chain_substitution_probability_matches_brute_force():
    p = Poset.from_permutation([1, 5, 3, 2, 4])
    for m in (1, 2, 3):
        spec = compose_at(p, 2, Poset.chain(m))
        for x, y in ((1, 3), (3, 1), (1, 4), (4, 3)):
            predicted = chain_substitution_probability(p, 2, m, x, y)
            gx, gy = spec.embed[x][0], spec.embed[y][0]
            assert predicted == prob(spec.poset, gx, gy)


def test_chain_substitution_rejects_the_point():
    p = Poset.from_permutation([1, 5, 3, 2, 4])
    with pytest.raises(ValueError):
        chain_substitution_probability(p, 2, 2, 2, 3)


def _gaps_of_point_2():
    return gap_profile(Poset.from_permutation([1, 5, 3, 2, 4]), 2)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: gap_profile(Poset.chain(3), -1), "got [-1]"),
        (lambda: gap_profile(Poset.from_permutation([1, 5, 3, 2, 4]), -1), "got [-1]"),
        (lambda: gap_profile(Poset.from_permutation([1, 5, 3, 2, 4]), 5), "got [5]"),
        (lambda: chain_substitution_probability(Poset.chain(3), 3, 2, 0, 1), "got [3]"),
        (lambda: chain_substitution_probability(Poset.chain(3), 0, 2, 7, -1), "got [7, -1]"),
        (lambda: chain_substitution_probability(Poset.chain(3), 0, 0, 1, 2), "got 0"),
        (lambda: _gaps_of_point_2().substituted_count(0), "got 0"),
        (lambda: _gaps_of_point_2().substituted_count(-1), "got -1"),
    ],
    ids=[
        "chain-point-minus-1",
        "point-minus-1",
        "point-5",
        "point-3",
        "x-7-y-minus-1",
        "m-0",
        "substituted-count-m-0",
        "substituted-count-m-minus-1",
    ],
)
def test_gap_profile_rejects_bad_input(call, named):
    """A point, x or y outside 0..n-1, or m < 1, is a ValueError that names
    the bad value, raised before L(P) is counted or enumerated (for
    ``substituted_count``, before any coefficient)."""
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


def test_composition_search_resolution():
    # substituting a 2-chain at the third point of (1,5,3,2,4) produces
    # the 6-element example with balance value 7/15
    from posetlex import are_isomorphic

    grown = compose_at(Poset.from_permutation([1, 5, 3, 2, 4]), 2, Poset.chain(2))
    target = Poset.from_permutation([1, 6, 3, 4, 2, 5])
    assert are_isomorphic(grown.poset, target)


def test_restrict_round_trip(n_poset):
    q = Poset.from_relations(3, [(1, 2)])
    spec = compose_at(n_poset, 0, q)
    for ext in enumerate_extensions(spec.poset):
        local = restrict_to_component(spec, ext, 0)
        assert q.induced(local)  # the induced order is consistent
        assert sorted(local) == [0, 1, 2]
