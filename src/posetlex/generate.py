"""Generation of posets: one per isomorphism class, and random sampling."""

from __future__ import annotations

import random

from .linext import _forward
from .poset import Poset


def poset_classes(max_n):
    """Yield (poset, |Aut(poset)|) once per isomorphism class on 1..max_n points.

    Classes come level by level, in a fixed order.  Every poset has a
    maximal point, and removing it leaves a poset on one point fewer, so
    the classes on n+1 points are reached by putting one new maximal point
    above each down-set of each class representative on n points; the
    children are deduplicated by canonical key (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998; Brinkmann & McKay,
    "Posets on up to 16 points", Order 19, 2002).  A class of size n has
    n!/|Aut| labelings.
    """
    level = [(Poset.antichain(1), 1)]
    for n in range(1, max_n + 1):
        yield from level
        if n == max_n:
            return
        top = 1 << n
        children = {}
        for small, _ in level:
            for ideals in _forward(small):
                for down in ideals:
                    rows = [
                        row | top if down >> a & 1 else row
                        for a, row in enumerate(small.lt)
                    ]
                    rows.append(0)
                    child = Poset(n + 1, rows, _trusted=True)
                    key, automorphisms = child.canonical_form()
                    children.setdefault(key, (child, automorphisms))
        level = list(children.values())


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
