"""Generation of posets: one per isomorphism class, and random sampling."""

from __future__ import annotations

import random

from .linext import _lattice
from .poset import Poset


def poset_classes(max_n):
    """Yield (poset, |Aut(poset)|) once per isomorphism class on 1..max_n points.

    Nothing is yielded when max_n < 1.

    Classes come level by level, in a fixed order.  Every poset has a
    maximal point, and removing it leaves a poset on one point fewer, so
    the classes on n+1 points are reached by putting one new maximal point
    above each down-set of each class representative on n points (read
    off the representative's lattice of ideals, level by level); the
    children are deduplicated by canonical key (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998; Brinkmann & McKay,
    "Posets on up to 16 points", Order 19, 2002).  A class of size n has
    n!/|Aut| labelings.

    One child is built per orbit of down-sets under the swaps of twins
    (``Poset.twin_classes``): a down-set that holds a later twin of a class
    but not an earlier one is skipped.  Swapping twins s < t is an
    automorphism, so the child of such a down-set D is isomorphic to the
    child of D - t + s.  That down-set comes first in lattice order, by
    induction over the levels: if D is first reached by adding t to E,
    then E + s is reached earlier, from the same E; if by adding some other
    x, then E - t + s comes before E, and adds x to reach D - t + s.
    Hence a skipped child is never the first of its class, and the
    representatives, their order and their automorphism counts are those
    of the unskipped build.

    What callers cache on the posets does not pile up: the pair-count
    matrices and incomparable pairs kept on a level are dropped before its
    children are built, and the last level is dropped class by class as it
    is handed over.
    """
    level = [(Poset.antichain(1), 1)] if max_n >= 1 else []
    for n in range(1, max_n):
        yield from level
        top = 1 << n
        seen = set()
        children = []
        for small, _ in level:
            # The class has been handed over: drop the pair-count matrices
            # and pairs kept on it, which nothing here reads.
            small._pair_counts = small._pairs = None
            # (later twin, the twin just before it) of every twin class
            twins = [
                (1 << later, 1 << earlier)
                for members in small.twin_classes()
                for earlier, later in zip(members, members[1:])
            ]
            for down in _lattice(small)[0]:
                if twins and any(down & later and not down & earlier for later, earlier in twins):
                    continue  # a swap of twins gives an earlier down-set
                rows = [
                    row | top if down >> a & 1 else row
                    for a, row in enumerate(small.lt)
                ]
                rows.append(0)
                # The new point is maximal: the old down-sets stay as they are.
                child = Poset(n + 1, rows, _trusted=True, _gt=small._gt + (down,))
                key, automorphisms = child.canonical_form()
                if key not in seen:
                    seen.add(key)
                    children.append((child, automorphisms))
        level = children
    level.reverse()
    while level:
        yield level.pop()


def random_poset(n, rng=None, edge_probability=0.35):
    """A random poset: closure of a random index-ordered DAG, relabeled."""
    rng = rng or random.Random()
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    poset = Poset.from_relations(n, pairs)
    perm = list(range(n))
    rng.shuffle(perm)
    return poset.relabel(perm)


def random_nonchain_poset(n, rng=None, edge_probability=0.35):
    """A random poset guaranteed not to be a chain (n must be at least 2)."""
    rng = rng or random.Random()
    while True:
        poset = random_poset(n, rng, edge_probability)
        if not poset.is_chain():
            return poset
