"""Acceptance suite: one test per criterion, each printing a verdict line.

Every comparison below is exact (integers and fractions); there are no
float tolerances anywhere.  Golden values were independently recomputed
(brute-force filtering, bipartite matching, factorial identities) before
being frozen here.
"""

import random
import time
from fractions import Fraction

from posetlex import (
    Poset,
    chain_substitution_probability,
    check_gpc,
    compose_at,
    count_extensions,
    delta,
    enumerate_extensions,
    gap_profile,
    gold_bound_holds,
    lex_sum,
    lift_gpc_witness,
    locality_table,
    multiset_coefficient,
    pair_counts,
    prob,
    prob_preservation,
    sort_cost,
    sweep,
    verify_divisibility,
    verify_gpc_witness,
)
from posetlex.conjectures import information_lower_bound
from posetlex.decompose import decompose as split_poset, gpc_via_decomposition
from posetlex.generate import poset_classes, random_poset

# The N-shaped base: w=0 < y=2, x=1 < y=2, x=1 < z=3.
N_POSET = Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])

# One isolated point r=0 beside the chain t=1 < u=2.
Q_POSET = Poset.from_relations(3, [(1, 2)])

# The 19-element width-8 two-dimensional order.
WIDE_PERMUTATION = [1, 15, 13, 17, 18, 16, 12, 10, 14, 8, 11, 9, 6, 7, 0, 5, 2, 3, 4]

# The 42 labelings of the 6-element sum, elements (r, t, u, x, y, z),
# grouped by the induced order on {r, t, u}: r<t<u, then t<r<u, then t<u<r.
TABLE1_ROWS = [
    (1, 2, 3, 4, 5, 6),
    (1, 2, 3, 4, 6, 5),
    (1, 2, 4, 3, 5, 6),
    (1, 2, 4, 3, 6, 5),
    (1, 3, 4, 2, 5, 6),
    (1, 3, 4, 2, 6, 5),
    (2, 3, 4, 1, 5, 6),
    (2, 3, 4, 1, 6, 5),
    (1, 2, 5, 3, 6, 4),
    (1, 3, 5, 2, 6, 4),
    (2, 3, 5, 1, 6, 4),
    (1, 4, 5, 2, 6, 3),
    (2, 4, 5, 1, 6, 3),
    (3, 4, 5, 1, 6, 2),
    (2, 1, 3, 4, 5, 6),
    (2, 1, 3, 4, 6, 5),
    (2, 1, 4, 3, 5, 6),
    (2, 1, 4, 3, 6, 5),
    (3, 1, 4, 2, 5, 6),
    (3, 1, 4, 2, 6, 5),
    (3, 2, 4, 1, 5, 6),
    (3, 2, 4, 1, 6, 5),
    (2, 1, 5, 3, 6, 4),
    (3, 1, 5, 2, 6, 4),
    (3, 2, 5, 1, 6, 4),
    (4, 1, 5, 2, 6, 3),
    (4, 2, 5, 1, 6, 3),
    (4, 3, 5, 1, 6, 2),
    (3, 1, 2, 4, 5, 6),
    (3, 1, 2, 4, 6, 5),
    (4, 1, 2, 3, 5, 6),
    (4, 1, 2, 3, 6, 5),
    (4, 1, 3, 2, 5, 6),
    (4, 1, 3, 2, 6, 5),
    (4, 2, 3, 1, 5, 6),
    (4, 2, 3, 1, 6, 5),
    (5, 1, 2, 3, 6, 4),
    (5, 1, 3, 2, 6, 4),
    (5, 2, 3, 1, 6, 4),
    (5, 1, 4, 2, 6, 3),
    (5, 2, 4, 1, 6, 3),
    (5, 3, 4, 1, 6, 2),
]


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _random_instances(count, seed=46341):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = random_poset(rng.randint(1, 5), rng)
        i = rng.randrange(base.n)
        q = random_poset(rng.randint(1, 4), rng)
        out.append((base, i, q, rng.getrandbits(32)))
    return out


def test_criterion_1_table1_reproduction():
    started = time.perf_counter()
    table = locality_table(N_POSET, 0, Q_POSET)
    ok = count_extensions(table.spec.poset) == 42
    ok = ok and set(table.columns) == {(0, 1, 2), (1, 0, 2), (1, 2, 0)}
    ok = ok and table.k == 14
    ok = ok and all(len(table.classes[c]) == 14 for c in table.columns)
    rows = {ext.labels for ext in enumerate_extensions(table.spec.poset)}
    ok = ok and rows == set(TABLE1_ROWS) and len(TABLE1_ROWS) == 42
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"e=42, 3 columns x 14 rows, frozen 42-row table equal, {elapsed:.3f}s")


def test_criterion_2_balanced_pair_orientations():
    spec = compose_at(N_POSET, 0, Q_POSET)
    r, t = spec.embed[0][0], 1
    pair = {prob(spec.poset, r, t), prob(spec.poset, t, r)}
    ok = pair == {Fraction(1, 3), Fraction(2, 3)}
    _verdict(2, ok, f"P(r,t) orientations = {{1/3, 2/3}}, got {sorted(pair)}")


def test_criterion_3_delta_values():
    v1, _ = delta(Poset.from_permutation([1, 6, 3, 4, 2, 5]))
    v2, _ = delta(Poset.from_permutation([1, 5, 3, 2, 4]))
    ok = v1 == Fraction(7, 15) and v2 == Fraction(1, 2)
    _verdict(3, ok, f"delta values {v1} and {v2}")


def test_criterion_4_wide_example():
    started = time.perf_counter()
    p = Poset.from_permutation(WIDE_PERMUTATION)
    ok = p.width() == 8
    witness = p.find_forbidden_subposet()
    ok = ok and not p.is_semiorder()
    ok = ok and witness is not None and witness[0] == "3+1"
    split = split_poset(p)
    factor_ok = split is not None and split.factor.canonical_key() == (
        Poset.from_permutation([3, 1, 2]).canonical_key()
    )
    ok = ok and factor_ok
    lifted = gpc_via_decomposition(p)
    ok = ok and lifted is not None and verify_gpc_witness(p, lifted)
    inner = check_gpc(split.factor)
    k = count_extensions(p) // count_extensions(split.factor)
    multiples = lifted.t0 == k * inner.t0 and all(
        lb.t1 == k * qb.t1 and lb.t2 == k * qb.t2
        for lb, qb in zip(lifted.branches, inner.branches)
    )
    ok = ok and multiples
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(4, ok, f"width 8, 3+1 at {witness[1]}, factor + lift, {elapsed:.1f}s")


def test_criterion_5_class_table_properties():
    violations = 0
    for base, i, q, salt in _random_instances(200):
        table = locality_table(base, i, q)
        if table.k * count_extensions(q) != table.total:
            violations += 1
        rng = random.Random(salt)
        comps = [random_poset(rng.randint(1, 3), rng) for _ in range(base.n)]
        divisible, _ = verify_divisibility(base, comps)
        if not divisible:
            violations += 1
    _verdict(5, violations == 0, f"{violations} violations over 200 instances")


def test_criterion_6_witness_lifting():
    lifted_count = 0
    violations = 0
    for base, i, q, _ in _random_instances(200):
        if q.is_chain():
            continue
        w = check_gpc(q)
        if w is None:
            violations += 1
            continue
        lifted = lift_gpc_witness(base, i, q, w)
        spec = compose_at(base, i, q)
        k = count_extensions(spec.poset) // count_extensions(q)
        good = lifted.t0 == k * w.t0 and verify_gpc_witness(spec.poset, lifted)
        good = good and all(
            lb.t1 == k * qb.t1 and lb.t2 == k * qb.t2
            for lb, qb in zip(lifted.branches, w.branches)
        )
        if not good:
            violations += 1
        lifted_count += 1
    ok = violations == 0 and lifted_count > 0
    _verdict(6, ok, f"{lifted_count} lifts, {violations} violations")


def test_criterion_7_probability_preservation():
    violations = 0
    for base, i, q, _ in _random_instances(200):
        spec = compose_at(base, i, q)
        block = spec.embed[i]
        for a in range(q.n):
            for b in range(a + 1, q.n):
                inside, outside = prob_preservation(spec, i, block[a], block[b])
                if inside != outside:
                    violations += 1
        if not q.is_chain() and not spec.poset.is_chain():
            sum_delta, _ = delta(spec.poset)
            q_delta, _ = delta(q)
            if sum_delta < q_delta:
                violations += 1
    rng = random.Random(97)
    for _ in range(100):
        p = random_poset(rng.randint(2, 4), rng)
        q = random_poset(rng.randint(2, 4), rng)
        if p.is_chain() and q.is_chain():
            continue
        ordinal = lex_sum(Poset.chain(2), [p, q]).poset
        got, _ = delta(ordinal)
        parts = [delta(x)[0] for x in (p, q) if not x.is_chain()]
        if got != max(parts):
            violations += 1
    _verdict(7, violations == 0, f"{violations} violations")


def test_criterion_8_exhaustive_sweep():
    started = time.perf_counter()
    summary = sweep(6)
    ok = (
        summary.total == 134496
        and not summary.gpc_failures
        and not summary.one_third_failures
        and not summary.unbalanced_witnesses
    )
    elapsed = time.perf_counter() - started
    _verdict(
        8,
        ok,
        f"{summary.total} labeled posets on <=6 elements, "
        f"0 GPC / 0 balance failures, witnesses balanced, {elapsed:.1f}s",
    )


def test_criterion_9_chain_substitution_formula():
    violations = 0
    checked = 0
    for p, _ in poset_classes(5):
        for point in range(p.n):
            profile = gap_profile(p, point)
            for m in (1, 2, 3):
                grown = compose_at(p, point, Poset.chain(m))
                total = count_extensions(grown.poset)
                if profile.substituted_count(m) != total:
                    violations += 1
                matrix = pair_counts(grown.poset)
                for x in range(p.n):
                    for y in range(p.n):
                        if x == y or x == point or y == point:
                            continue
                        predicted = chain_substitution_probability(p, point, m, x, y)
                        gx, gy = grown.embed[x][0], grown.embed[y][0]
                        actual = Fraction(matrix.counts[gx][gy], matrix.total)
                        checked += 1
                        if predicted != actual:
                            violations += 1
    ok = violations == 0 and checked > 0
    _verdict(9, ok, f"{checked} pair probabilities compared, {violations} violations")


def test_criterion_10_golden_ratio_bound():
    violations = 0
    checked = 0
    for p, _ in poset_classes(6):
        if p.is_chain():
            continue
        checked += 1
        if not gold_bound_holds(p):
            violations += 1
        if sort_cost(p) < information_lower_bound(p):
            violations += 1
    ok = violations == 0 and checked > 0
    _verdict(10, ok, f"{checked} isomorphism classes, {violations} violations")
