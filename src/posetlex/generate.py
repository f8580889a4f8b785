"""Generation of posets: one per isomorphism class, and random sampling."""

import math

from .poset import Poset, _orbit


def poset_classes(max_n):
    """Yield (poset, |Aut(poset)|) once per isomorphism class on 1..max_n points.

    Classes come by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998; Brinkmann & McKay,
    "Posets on up to 16 points", Order 19, 2002).  Up to isomorphism, a
    poset C on n+1 points is a class representative P on n points plus a
    new maximal point p above a down-set D of P.  C's down-sets are P's,
    then I + p for each down-set I of P holding D: each class reads its
    down-sets off its parent's, and generation builds no ideal lattice.
    The canonical points of C are fixed by its isomorphism class: of its
    maximal points, those with the largest down-set; if these are not all
    twins (``Poset.twin_classes``), only the orbit under Aut(C) of the one
    whose twin class comes last in C's canonical order.  A child is kept
    only when p is canonical.  The ties are the maximal points of P outside
    D whose down-set is as large as D; the child is
      - rejected before it is built when such a point has a larger
        down-set than D;
      - kept with no search when every tie has down-set D, since a tie is
        then a twin of p;
      - otherwise kept when one canonical search of C puts p's twin class
        in the orbit of the tied class that comes last in C's canonical
        order, under the search's automorphism generators.

    Each class comes exactly once.  Removing a canonical point from C
    leaves one class P, and the down-sets D of P whose child is C with p
    canonical form one orbit of Aut(P), of which one down-set is tried.
    Swapping twins is an automorphism, so a down-set holding a later twin
    of a class but not an earlier one is skipped; when |Aut(P)| exceeds
    the twin group, prod(t!) over its twin classes, the rest are merged by
    their count profiles (how many twins of each class they hold), under
    the generators of one canonical search of P.

    A child kept with no search has, by orbit-stabilizer,
    |Aut(C)| = |Aut(P)| / |orbit of D| * (1 + ties): p's orbit in C is p
    and its twins, and the automorphisms fixing p are those of P fixing D.
    The orbit of D has (the orbit of its profile) * prod(comb(t, k))
    members, for k twins held of each class of t.  A class on n points
    has n!/|Aut| labelings.

    Classes come level by level, parent by parent, each parent's children
    in the order of its down-sets.  A level is built before it is handed
    over; the generator never reads or changes a class it has yielded.
    Nothing is yielded when max_n < 1.
    """
    level = [(Poset.antichain(1), 1, [0])]  # [0]: the empty parent's down-sets
    for n in range(1, max_n + 1):
        children = []
        if n < max_n:
            for small, automorphisms, inherited in level:
                down = small._gt[-1]  # below point n - 1, the one added last
                downs = inherited + [d | 1 << n - 1 for d in inherited if d & down == down]
                children += _children(small, automorphisms, downs)
        level.reverse()
        while level:
            yield level.pop()[:2]
        level = children


def _children(small, automorphisms, downs):
    """(child, |Aut(child)|, downs) per canonical child of small, whose down-sets are downs."""
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
    for down in downs:
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
            children.append((child, automorphisms // orbit * tied.bit_count(), downs))
            continue
        classes_c, _, automorphisms_c, order, generators_c = child._quotient_search()
        last = max(
            (i for i, members in enumerate(classes_c) if tied >> members[0] & 1),
            key=order.index,
        )
        new = next(i for i, members in enumerate(classes_c) if members[-1] == n)
        if _orbit(last, generators_c) >> new & 1:
            children.append((child, automorphisms_c, downs))
    return children


def _profile_orbit(profile, generators):
    """The orbit of a count profile under permutations of its places."""
    orbit = {profile}
    frontier = [profile]
    while frontier:
        counts = frontier.pop()
        for g in generators:
            image = tuple([counts[i] for i in g])  # g's inverse: the same orbit
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def random_poset(n, rng=None, edge_probability=0.35):
    """A random poset: closure of a random index-ordered DAG, relabeled."""
    if not 0 <= edge_probability <= 1:
        raise ValueError(f"edge_probability {edge_probability} is outside [0, 1]")
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
    """A random poset that is not a chain: n >= 2, and edge_probability < 1."""
    if n < 2 or not 0 <= edge_probability < 1:  # else every draw is a chain
        raise ValueError(f"only chains on n={n} at edge_probability {edge_probability}")
    while True:
        poset = random_poset(n, rng, edge_probability)
        if not poset.is_chain():
            return poset
