"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the package's own algorithms: extensions
come from filtering all n! permutations, width from bipartite matching on
the comparability relation, isomorphism and automorphisms from trying
every bijection, labeled posets from one-point extension by all
closed subsets, and autonomous sets from testing all C(n, k) subsets.
Pair counts, delta, balanced pairs, gold-partition witnesses and the
class table of a lexicographic sum are derived from those filtered
extensions; the sorting cost is the plain minimax over every comparison.
The reference canonical form scores every relabeling that keeps the
classes of iterated degree refinement.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from posetlex import GpcBranch, GpcWitness, Poset, lex_sum

POSETS_DIR = Path(__file__).resolve().parent.parent / "posets"


def brute_extensions(poset):
    """Every linear extension as an element order, by n! filtering."""
    rels = poset.relation_pairs()
    out = []
    for order in itertools.permutations(range(poset.n)):
        pos = {e: i for i, e in enumerate(order)}
        if all(pos[a] < pos[b] for a, b in rels):
            out.append(order)
    return out


def brute_count(poset):
    return len(brute_extensions(poset))


def brute_locality_table(sum_poset, block, component):
    """(columns, classes) of the class table, from the two filtered lists.

    ``block[q]`` is the sum element carrying local element q of the
    component.  The columns are the component's extensions; each class
    lists, in filtering order, the sum's extensions that order the block
    as its column does.
    """
    columns = brute_extensions(component)
    classes = {column: [] for column in columns}
    for order in brute_extensions(sum_poset):
        classes[tuple(block.index(e) for e in order if e in block)].append(order)
    return columns, classes


def brute_pair_counts(poset, orders=None):
    """counts[x][y] = number of ``orders`` placing x before y.

    ``orders`` defaults to every linear extension of the poset.
    """
    n = poset.n
    counts = [[0] * n for _ in range(n)]
    for order in brute_extensions(poset) if orders is None else orders:
        for i, x in enumerate(order):
            for y in order[i + 1:]:
                counts[x][y] += 1
    return counts


def brute_delta(poset):
    """(max-min P(x<y), first pair reaching it) over incomparable pairs."""
    counts = brute_pair_counts(poset)
    total = brute_count(poset)
    best = None
    for x, y in poset.incomparable_pairs():
        value = Fraction(min(counts[x][y], counts[y][x]), total)
        if best is None or value > best[0]:
            best = (value, (x, y))
    return best


def brute_balanced_pair(poset):
    """((x, y), P(x<y)) for the first pair with P(x<y) in [1/3, 2/3], or None."""
    counts = brute_pair_counts(poset)
    total = brute_count(poset)
    for x, y in poset.incomparable_pairs():
        p = Fraction(counts[x][y], total)
        if Fraction(1, 3) <= p <= Fraction(2, 3):
            return (x, y), p
    return None


def brute_gpc(poset, mode, strict, counts=None):
    """Gold-partition witness by the documented search order, or None.

    First pairs are taken in ascending ``incomparable_pairs()`` order.  A
    chain outcome takes the vacuous t2 = 1 (0 when strict).  Adaptive: each
    non-chain outcome takes its first pair (c, d), ascending, with
    t0 >= t1 + t2 (> when strict).  Nonadaptive: the first pair (c, d) of P
    other than the first pair that is incomparable in, and admissible for,
    every non-chain outcome.  Every t is the brute count of a
    ``with_relation`` poset.  The counts are kept in ``counts``, a dict from
    poset to count, for this call only unless the caller passes one dict to
    share between its calls.
    """
    counts = {} if counts is None else counts

    def count(p):
        if p not in counts:
            counts[p] = brute_count(p)
        return counts[p]

    vacuous = 0 if strict else 1
    t0 = count(poset)

    def t2_of(outcome, t1, second):
        """t2 that ``second`` leaves in ``outcome``, or None if inadmissible."""
        if outcome.is_chain():
            t2 = vacuous
        else:
            c, d = second
            if outcome.is_lt(c, d) or outcome.is_lt(d, c):
                return None
            t2 = max(count(outcome.with_relation(c, d)), count(outcome.with_relation(d, c)))
        return t2 if (t0 > t1 + t2 if strict else t0 >= t1 + t2) else None

    def branch(result, outcome, seconds):
        """The branch for the first admissible pair of ``seconds``, or None."""
        t1 = count(outcome)
        for second in [None] if outcome.is_chain() else seconds:
            t2 = t2_of(outcome, t1, second)
            if t2 is not None:
                return GpcBranch(result, t1, second, t2)
        return None

    for a, b in poset.incomparable_pairs():
        outcomes = [
            ((a, b), poset.with_relation(a, b)),
            ((b, a), poset.with_relation(b, a)),
        ]
        if mode == "adaptive":
            plans = [[outcome.incomparable_pairs() for _, outcome in outcomes]]
        else:
            shared = [cd for cd in poset.incomparable_pairs() if cd != (a, b)] or [None]
            plans = [[[cd], [cd]] for cd in shared]
        for plan in plans:
            branches = tuple(
                branch(result, outcome, seconds)
                for (result, outcome), seconds in zip(outcomes, plan)
            )
            if None not in branches:
                return GpcWitness((a, b), t0, branches, strict)
    return None


def brute_sort_cost(poset, memo=None):
    """Minimum worst-case comparisons to sort ``poset``: the unbounded minimax.

    Every incomparable pair is tried at every node, both outcomes solved in
    full, memoized by canonical key.  The memo lives for this call only,
    unless the caller passes one dict to share between its calls.
    """
    memo = {} if memo is None else memo

    def cost(p):
        if p.is_chain():
            return 0
        key = p.canonical_key()
        if key not in memo:
            memo[key] = min(
                1 + max(cost(p.with_relation(a, b)), cost(p.with_relation(b, a)))
                for a, b in p.incomparable_pairs()
            )
        return memo[key]

    return cost(poset)


def closed_subsets(n, masks):
    """Every subset of 0..n-1 that contains masks[e] along with each e."""
    return [
        subset
        for subset in range(1 << n)
        if all(not masks[e] & ~subset for e in range(n) if subset >> e & 1)
    ]


def labeled_posets(n):
    """Every labeled poset on 0..n-1 exactly once, by one-point extension.

    A poset on k+1 points restricts uniquely to 0..k-1, so extending every
    poset on k points by every admissible (down-set, up-set) pair for the
    new point enumerates without repeats.  Down-sets and up-sets come from
    filtering all 2^k subsets; a pair is admissible when every chosen
    predecessor lies below every chosen successor.
    """
    if n == 1:
        yield Poset.antichain(1)
        return
    for small in labeled_posets(n - 1):
        k = small.n
        full = (1 << k) - 1
        ups = closed_subsets(k, [small.above_mask(e) for e in range(k)])
        for down in closed_subsets(k, [small.below_mask(e) for e in range(k)]):
            allowed = full
            for a in range(k):
                if down >> a & 1:
                    allowed &= small.above_mask(a)
            for up in ups:
                if up & ~allowed:
                    continue
                rows = [small.lt[a] | (1 << k if down >> a & 1 else 0) for a in range(k)]
                rows.append(up)
                yield Poset(k + 1, rows, _trusted=True)


def brute_automorphisms(poset):
    """|Aut(P)|: the permutations that map every relation to a relation."""
    pairs = poset.relation_pairs()
    return sum(
        all(poset.is_lt(perm[a], perm[b]) for a, b in pairs)
        for perm in itertools.permutations(range(poset.n))
    )


def _elements(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def reference_canonical_form(poset):
    """((n, key), |Aut(P)|) by refinement and a product of permutations.

    Iterated degree refinement splits the elements into ordered classes,
    then every class-respecting relabeling is scored; the key is the
    minimum relation encoding.  The relabelings that reach it are one of
    them composed with each automorphism (automorphisms keep every class),
    so their number is |Aut(P)|.  Its keys are not those of
    ``Poset.canonical_form``; compare key equality, not key values.
    """
    n = poset.n
    color = [
        (poset.below_mask(v).bit_count(), poset.above_mask(v).bit_count())
        for v in range(n)
    ]
    while True:
        sig = [
            (
                color[v],
                tuple(sorted(color[u] for u in _elements(poset.below_mask(v)))),
                tuple(sorted(color[u] for u in _elements(poset.above_mask(v)))),
            )
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [(palette[sig[v]],) for v in range(n)]
        if len(set(new)) == len(set(color)):
            break
        color = new
    classes = {}
    for v in range(n):
        classes.setdefault(new[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    best, hits = None, 0
    for pieces in itertools.product(*(itertools.permutations(g) for g in ordered)):
        pos = [0] * n
        for new_idx, old in enumerate(v for piece in pieces for v in piece):
            pos[old] = new_idx
        code = 0
        for old in range(n):
            for u in _elements(poset.above_mask(old)):
                code |= 1 << (pos[old] * n + pos[u])
        if best is None or code < best:
            best, hits = code, 1
        elif code == best:
            hits += 1
    return (n, best), hits


def _ranked_poset(rank, raw):
    """Poset generated by the pairs in ``raw``, each oriented by ``rank``."""
    pairs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in raw if a != b]
    return Poset.from_relations(len(rank), pairs)


def posets(max_n):
    """Hypothesis strategy: posets on 1..max_n points in any labeling.

    Antichains and chains are drawn on their own as well as arising from
    random relations.
    """
    sizes = st.integers(1, max_n)
    random = sizes.flatmap(
        lambda n: st.builds(
            _ranked_poset,
            st.permutations(range(n)),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
        )
    )
    return st.one_of(
        st.builds(Poset.antichain, sizes), st.builds(Poset.chain, sizes), random
    )


@st.composite
def twin_heavy_posets(draw, max_n):
    """Hypothesis strategy: lexicographic sums of a base on at most four
    points with antichain components, on at most max_n points, relabeled.

    Each component is a set of twins, so these posets have large twin
    classes and many automorphisms.
    """
    base = draw(posets(min(4, max_n)))
    sizes = []
    for i in range(base.n):
        room = max_n - sum(sizes) - (base.n - i - 1)
        sizes.append(draw(st.integers(1, min(3, room))))
    poset = lex_sum(base, [Poset.antichain(size) for size in sizes]).poset
    return poset.relabel(draw(st.permutations(range(poset.n))))


def brute_is_autonomous(poset, members):
    """Each outside z is below all members, above all, or incomparable to all."""
    return all(
        len({(poset.is_lt(z, m), poset.is_lt(m, z)) for m in members}) == 1
        for z in range(poset.n)
        if z not in members
    )


def brute_autonomous_sets(poset):
    """Every autonomous set of 2..n-1 elements, ascending by size then bitmask."""
    out = []
    for size in range(2, poset.n):
        found = [
            (sum(1 << v for v in members), members)
            for members in itertools.combinations(range(poset.n), size)
            if brute_is_autonomous(poset, members)
        ]
        out.extend(members for _, members in sorted(found))
    return out


def brute_covered(poset):
    """Whether some autonomous set of 2..n-1 elements induces a non-chain."""
    return any(
        brute_is_autonomous(poset, members)
        for size in range(2, poset.n)
        for members in itertools.combinations(range(poset.n), size)
        if any(
            not (poset.is_lt(a, b) or poset.is_lt(b, a))
            for a, b in itertools.combinations(members, 2)
        )
    )


def brute_width(poset):
    """Dilworth: n minus a maximum matching of the comparability DAG."""
    n = poset.n
    match_right = [-1] * n

    def augment(a, seen):
        for b in range(n):
            if poset.is_lt(a, b) and not seen[b]:
                seen[b] = True
                if match_right[b] < 0 or augment(match_right[b], seen):
                    match_right[b] = a
                    return True
        return False

    matching = sum(augment(a, [False] * n) for a in range(n))
    return n - matching


def brute_isomorphic(p, q):
    """Isomorphism by trying every relabeling bijection."""
    if p.n != q.n:
        return False
    for perm in itertools.permutations(range(p.n)):
        if all(
            p.is_lt(a, b) == q.is_lt(perm[a], perm[b])
            for a in range(p.n)
            for b in range(p.n)
            if a != b
        ):
            return True
    return False


@pytest.fixture
def n_poset():
    """The N shape: w=0 < y=2, x=1 < y=2, x=1 < z=3."""
    return Poset.from_relations(4, [(0, 2), (1, 2), (1, 3)])


@pytest.fixture
def point_and_chain():
    """An isolated point 0 beside the chain 1 < 2."""
    return Poset.from_relations(3, [(1, 2)])
