"""Generation of posets: one per isomorphism class, and random sampling."""

import math

from .linext import _lattice
from .poset import Poset, _orbit


def poset_classes(max_n):
    """Yield (poset, |Aut(poset)|) once per isomorphism class on 1..max_n points.

    Nothing is yielded when max_n < 1.

    Classes come level by level, in a fixed order, by canonical
    augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998; Brinkmann & McKay, "Posets on up to 16
    points", Order 19, 2002).  Every poset C on n+1 points has a maximal
    point, and removing it leaves a poset on n points, so C is a class
    representative P on n points plus a new maximal point p above a
    down-set D of P.  The canonical points of C are fixed by its
    isomorphism class: of its maximal points, those with the largest
    down-set; if these are not all twins (``Poset.twin_classes``), only
    the orbit under Aut(C) of the one whose twin class comes last in C's
    canonical order.  A child is kept only when p is canonical.  The ties
    are the maximal points of P outside D whose down-set is as large as
    D; the child is
      - rejected before it is built when such a point has a larger
        down-set than D;
      - kept with no search when every tie has down-set D, since a tie is
        then a twin of p;
      - otherwise kept when one canonical search of C puts p's twin class
        in the orbit of the tied class that comes last in C's canonical
        order, under the search's automorphism generators.

    Each class comes exactly once.  Removing a canonical point from C
    leaves one class P, and the down-sets D of P whose child is C with p
    canonical form one orbit of Aut(P).  One down-set per orbit is tried.
    Swapping twins is an automorphism, so a down-set holding a later twin
    of a class but not an earlier one is skipped.  When |Aut(P)| exceeds
    the twin group, prod(t!) over its twin classes, the down-sets left are
    merged further by their count profiles (how many twins of each class
    they hold), under the generators of one canonical search of P.

    A child kept with no search has, by orbit-stabilizer,
    |Aut(C)| = |Aut(P)| / |orbit of D| * (1 + ties): p's orbit in C is p
    and its twins, and the automorphisms fixing p are those of P fixing D.
    The orbit of D has (the orbit of its profile) * prod(comb(t, k))
    members, for k twins held of each class of t.  A class on n points
    has n!/|Aut| labelings.

    Each level's children are built before the level is handed over, class
    by class; the generator never reads or changes a class it has yielded.
    """
    level = [(Poset.antichain(1), 1)]
    for n in range(1, max_n + 1):
        children = []
        if n < max_n:
            for small, automorphisms in level:
                children += _children(small, automorphisms)
        level.reverse()
        while level:
            yield level.pop()
        level = children


def _children(small, automorphisms):
    """(child, |Aut(child)|) for each child of a class whose new point is canonical."""
    n = small.n
    top = 1 << n
    lt, gt = small.lt, small._gt
    classes = small.twin_classes()
    # (later twin, the twin just before it) of every twin class
    twins = [
        (1 << later, 1 << earlier)
        for members in classes
        for earlier, later in zip(members, members[1:])
    ]
    laters = sum(later for later, _ in twins)
    # (mask, size) of every twin class of two or more
    multiple = [
        (sum(1 << v for v in members), len(members))
        for members in classes
        if len(members) > 1
    ]
    generators = None
    if automorphisms > math.prod(math.factorial(t) for _, t in multiple):
        # Aut(P) is more than the swaps of twins
        *_, generators = small._quotient_search()
        masks = [sum(1 << v for v in members) for members in classes]
        merged = set()  # count profiles of the down-set orbits tried
    # The maximal points by descending down-set size; the sentinel ends
    # every scan.
    tops = sorted(
        ((gt[v].bit_count(), gt[v], 1 << v) for v in range(n) if not lt[v]),
        reverse=True,
    ) + [(-1, 0, 0)]
    children = []
    for down in _lattice(small)[0]:
        if down & laters and any(
            down & later and not down & earlier for later, earlier in twins
        ):
            continue  # a swap of twins gives an earlier down-set
        size = down.bit_count()
        tied = top  # the new point and its ties, as points of the child
        plain = True  # every tie is a twin of the new point
        for height, below, bit in tops:
            if height < size:
                break
            if not down & bit:
                if height > size:
                    break
                tied |= bit
                plain = plain and below == down
        if height > size:
            continue  # a maximal point outside D has a larger down-set
        orbit = 1  # the size of D's orbit under Aut(P), once complete
        if generators:
            profile = tuple((down & mask).bit_count() for mask in masks)
            if profile in merged:
                continue  # an automorphism of P gives a down-set tried
            profiles = _profile_orbit(profile, generators)
            merged |= profiles
            orbit = len(profiles)
        rows = [row | top if down >> a & 1 else row for a, row in enumerate(lt)]
        rows.append(0)
        # The new point is maximal: the old down-sets stay as they are.
        child = Poset(n + 1, rows, _trusted=True, _gt=gt + (down,))
        if plain:
            for mask, t in multiple:
                orbit *= math.comb(t, (down & mask).bit_count())
            children.append((child, automorphisms // orbit * tied.bit_count()))
            continue
        classes_c, _, automorphisms_c, order, generators_c = child._quotient_search()
        last = max(
            (i for i, members in enumerate(classes_c) if tied >> members[0] & 1),
            key=order.index,
        )
        new = next(i for i, members in enumerate(classes_c) if members[-1] == n)
        if _orbit(last, generators_c) >> new & 1:
            children.append((child, automorphisms_c))
    return children


def _profile_orbit(profile, generators):
    """The orbit of a count profile under permutations of its places."""
    orbit = {profile}
    frontier = [profile]
    while frontier:
        counts = frontier.pop()
        for g in generators:
            image = [0] * len(counts)
            for i, k in enumerate(counts):
                image[g[i]] = k
            image = tuple(image)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def random_poset(n, rng=None, edge_probability=0.35):
    """A random poset: closure of a random index-ordered DAG, relabeled."""
    if not rng:
        import random  # here, not at module load: nothing else samples

        rng = random.Random()
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
    if n < 2:
        raise ValueError(f"every poset on n={n} points is a chain")
    while True:
        poset = random_poset(n, rng, edge_probability)
        if not poset.is_chain():
            return poset
