"""Order-autonomous sets and the decomposition fast path for the GPC.

An autonomous set relates uniformly to every outside element, so it can be
contracted to a single point: the poset is then the lexicographic sum of
the contracted base with the induced factor.  A gold-partition witness
found on a (smaller) factor lifts to the whole poset at exact k-multiples,
which is much cheaper than searching the full comparison grid.
"""

import itertools
from collections import namedtuple

from . import conjectures, lexsum
from .errors import InvalidWitnessError, SizeCapError
from .poset import MAX_ELEMENTS, _bits, _check_points

#: Largest poset whose autonomous sets are listed: an antichain on n points
#: has 2^n - n - 2 of them.
AUTONOMY_CAP = 20


def _span(poset, mask, limit=MAX_ELEMENTS):
    """Smallest autonomous set containing ``mask``.

    Adds every splitter, an outside element that relates to some members
    but not to all, until none is left.  Each splitter lies in every
    autonomous set containing ``mask``, so the result is the smallest one.
    An outside element lies below some member but not all exactly when it
    is in the union of the members' down-sets but not in their
    intersection, and likewise above, so each round's splitters are read
    off four masks, which take in each round's new members.  A set grown
    past ``limit`` elements is returned as it stands: its span is at least
    as large, and only its size is read.
    """
    above, below = poset.lt, poset._gt
    some_up = some_down = 0
    every_up = every_down = -1  # no members yet: every bit
    new = mask
    while new:
        for v in _bits(new):
            up, down = above[v], below[v]
            some_up |= up
            every_up &= up
            some_down |= down
            every_down &= down
        new = (some_up ^ every_up | some_down ^ every_down) & ~mask
        mask |= new
        if mask.bit_count() > limit:
            return mask
    return mask


def _covered(poset):
    """Whether P has an autonomous set of 2..n-1 points inducing a non-chain.

    A twin class of 2 or more points, but not all of them, is one (twins
    are incomparable).  Otherwise any such set holds an incomparable pair,
    and so the pair's span, which is then smaller than P; the spans are
    tried pair by pair, each stopped once it fills P.
    """
    n = poset.n
    if 1 < len(set(zip(poset.lt, poset._gt))) < n:
        return True
    return any(
        _span(poset, 1 << a | 1 << b, n - 1).bit_count() < n for a, b in poset._kept_pairs()
    )


def _size_then_mask(mask):
    return mask.bit_count(), mask


def _smallest(poset, nonchain):
    """Bitmask of the smallest non-trivial autonomous set, ties by bitmask, or None.

    Each autonomous set holding x and y holds their span, so the smallest
    one is the span of a pair (McConnell & Spinrad, Discrete Math. 201,
    1999).  With ``nonchain`` only sets inducing a non-chain factor count:
    they hold an incomparable pair, so only those pairs are spanned.  A
    span stops growing once it is larger than the smallest found so far
    (at first n - 1 elements, leaving out the whole poset).
    """
    if nonchain:
        pairs = poset.incomparable_pairs()
    else:
        pairs = itertools.combinations(range(poset.n), 2)
    best, limit = None, poset.n - 1
    for x, y in pairs:
        span = _span(poset, 1 << x | 1 << y, limit)
        size = span.bit_count()
        if size < limit or size == limit and (best is None or span < best):
            best, limit = span, size
    return best


def is_autonomous(poset, members):
    """True when every outside element relates uniformly to ``members``.

    ``members`` must be points of P, in 0..n-1; ValueError otherwise.
    """
    members = list(members)
    _check_points("is_autonomous", poset, *members)
    mask = 0
    for v in members:
        mask |= 1 << v
    return _span(poset, mask) == mask


def autonomous_sets(poset):
    """All non-trivial autonomous sets, ascending by size then by bitmask.

    Non-trivial means more than one element but not the whole poset.  Every
    such set M is reached from a pair inside it by adding one element of M
    at a time and closing again, so the search grows each set found by each
    outside element.
    """
    if poset.n > AUTONOMY_CAP:
        raise SizeCapError(f"autonomous-set sweep capped at {AUTONOMY_CAP}")
    full = (1 << poset.n) - 1
    pending = [1 << x | 1 << y for x, y in itertools.combinations(range(poset.n), 2)]
    seen, found = set(), []
    while pending:
        mask = pending.pop()
        if mask in seen:
            continue
        seen.add(mask)
        closed = _span(poset, mask)
        if closed == mask != full:
            found.append(mask)
            pending.extend(mask | 1 << z for z in _bits(full & ~mask))
        else:
            pending.append(closed)
    return [AutonomousSet(tuple(_bits(m))) for m in sorted(found, key=_size_then_mask)]


class AutonomousSet(namedtuple("AutonomousSet", "members")):
    """An autonomous set of P: its ``members``, ascending."""

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", "base index factor members base_elements")):
    """P written as base o_index factor, with maps back into P.

    ``members`` are the P-elements contracted into the factor (ascending);
    ``base_elements[j]`` is the P-element that base point j stands for,
    the contracted point being represented by min(members).  The field
    ``index`` hides the tuple method of that name.
    """

    __slots__ = ()


def decompose(poset):
    """One non-trivial split of the poset, or None when indecomposable.

    Prefers the smallest autonomous set inducing a non-chain factor (the
    interesting direction for witness lifting); when every factor is a
    chain, falls back to the smallest autonomous set overall.  Ties break
    by bitmask.  The round trip is checked exactly: the rebuilt sum must
    equal the poset relabeled by ``base_elements`` and ``members``.
    """
    chosen = _smallest(poset, True) or _smallest(poset, False)
    if chosen is None:
        return None
    members = tuple(_bits(chosen))
    representative = members[0]
    base_elements = tuple(
        v for v in range(poset.n) if v == representative or v not in members
    )
    base = poset.induced(base_elements)
    index = base_elements.index(representative)
    factor = poset.induced(members)
    order = base_elements[:index] + members + base_elements[index + 1:]
    if lexsum.compose_at(base, index, factor).poset != poset.induced(order):
        raise AssertionError("decomposition round trip failed")
    return Decomposition(base, index, factor, members, base_elements)


def gpc_via_decomposition(poset, strict=False):
    """Gold-partition witness for P, lifted from its smallest non-chain factor.

    That factor holds no smaller one, so it is searched directly.  The
    direct search on P answers when there is no such factor, the factor
    has no witness, or the lift breaks the inequality (a guard only: under
    ``strict`` too, ``lift_witness`` mends the one tie a factor's witness
    can lift to), so the result is None exactly when ``check_gpc`` is.
    """
    chosen = _smallest(poset, True)
    if chosen is not None:
        members = tuple(_bits(chosen))
        factor = poset.induced(members)
        witness = conjectures.check_gpc(factor, strict=strict)
        if witness is not None:
            try:
                return lexsum.lift_witness(poset, members, factor, witness)
            except InvalidWitnessError:
                pass
    return conjectures.check_gpc(poset, strict=strict)
