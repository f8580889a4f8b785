"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the package's own algorithms: extensions
come from filtering all n! permutations, width from bipartite matching on
the comparability relation, and isomorphism from trying every bijection.
Pair counts, delta, balanced pairs and gold-partition witnesses are
derived from those filtered extensions.
"""

import functools
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from posetlex import GpcBranch, GpcWitness, Poset

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


def brute_pair_counts(poset):
    """counts[x][y] = number of extensions placing x before y."""
    n = poset.n
    counts = [[0] * n for _ in range(n)]
    for order in brute_extensions(poset):
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


def brute_gpc(poset, mode, strict):
    """Gold-partition witness by the documented search order, or None.

    First pairs are taken in ascending ``incomparable_pairs()`` order.  A
    chain outcome takes the vacuous t2 = 1 (0 when strict).  Adaptive: each
    non-chain outcome takes its first pair (c, d), ascending, with
    t0 >= t1 + t2 (> when strict).  Nonadaptive: the first pair (c, d) of P
    other than the first pair that is incomparable in, and admissible for,
    every non-chain outcome.  Every t is the brute count of a
    ``with_relation`` poset.
    """
    count = functools.lru_cache(maxsize=None)(brute_count)
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
