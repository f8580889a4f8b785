"""Linear extensions: exact counting, enumeration, order probabilities.

Counting walks the lattice of down-sets (order ideals): the number of
linear extensions equals the number of maximal chains from the empty ideal
to the full ground set, which a level-by-level dynamic program over ideal
bitmasks computes exactly in arbitrary precision.  Pair probabilities come
from a single pass over the same lattice: a forward pass counts
down(I) = e(P|I), a backward pass up(I) = e(P|rest), and #(x before y) is
the sum of down(I)*up(I+x) over the ideals I that x extends with y outside
(De Loof, De Meyer & De Baets, "Exploiting the lattice of ideals
representation of a poset", Fundam. Inform. 71, 2006).  All probabilities
are `fractions.Fraction`; floats never enter a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ChainError
from .poset import Poset

#: Default ceiling on e(P) for explicit enumeration of L(P), sized from
#: memory: ``enumerate_extensions`` holds about 193 bytes per extension and
#: ``locality_table`` peaks at about 250 per extension of the sum
#: (tracemalloc, 40,320 extensions of an 8-point antichain), so a call at
#: the cap needs about 200-250 MB.
DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class LinearExtension:
    """A bijective order-preserving labeling of a poset into 1..n.

    ``labels[e]`` is the rank of element e.  ``order`` lists the elements
    by increasing rank.
    """

    labels: tuple

    @classmethod
    def from_order(cls, order):
        labels = [0] * len(order)
        for rank, e in enumerate(order, start=1):
            labels[e] = rank
        return cls(tuple(labels))

    @property
    def order(self):
        return tuple(sorted(range(len(self.labels)), key=self.labels.__getitem__))

    def respects(self, poset):
        return all(
            self.labels[a] < self.labels[b] for a, b in poset.relation_pairs()
        )


@dataclass(frozen=True)
class PairCountMatrix:
    """counts[x][y] = number of extensions placing x before y; total = e(P)."""

    counts: tuple
    total: int


def _forward(poset):
    """The forward pass: for k = 0..n, the level {ideal of size k: e(P|ideal)}."""
    n = poset.n
    preds = [poset.below_mask(e) for e in range(n)]
    full = (1 << n) - 1
    level = {0: 1}
    yield level
    for _ in range(n):
        nxt = {}
        for ideal, ways in level.items():
            free = full & ~ideal
            while free:
                low = free & -free
                free ^= low
                if preds[low.bit_length() - 1] & ~ideal:
                    continue
                grown = ideal | low
                nxt[grown] = nxt.get(grown, 0) + ways
        level = nxt
        yield level


def count_extensions(poset):
    """Exact e(P): the forward pass's count at the full ideal."""
    for level in _forward(poset):
        pass
    return level[(1 << poset.n) - 1]


def enumerate_extensions(poset, cap=DEFAULT_ENUM_CAP):
    """All of L(P) as LinearExtension values, in deterministic order.

    At every step the currently minimal elements are taken in ascending
    index order, so the output order is reproducible.  Raises
    CapExceededError when e(P) exceeds ``cap``.
    """
    total = count_extensions(poset)
    if total > cap:
        raise CapExceededError(f"e(P) = {total} exceeds enumeration cap {cap}")
    n = poset.n
    preds = [poset.below_mask(e) for e in range(n)]
    addable = {}  # ideal -> its minimal outside elements, ascending
    labels = [0] * n
    out = []

    def rec(ideal, rank):
        free = addable.get(ideal)
        if free is None:
            free = addable[ideal] = tuple(
                e for e in range(n) if not ideal >> e & 1 and not preds[e] & ~ideal
            )
        if rank == n:  # one element is left: the leaf
            labels[free[0]] = n
            out.append(LinearExtension(tuple(labels)))
            return
        for e in free:
            labels[e] = rank
            rec(ideal | 1 << e, rank + 1)

    rec(0, 1)
    return out


def pair_counts(poset):
    """Exact before/after counts for every ordered pair, in one pass.

    The forward pass gives down(I) = e(P|I) for every ideal I; a backward
    pass over the same ideals gives up(I) = e(P|rest).  The extensions that
    place x right after exactly the ideal I number down(I)*up(I+x), and they
    put x before every y outside I+x.  Only incomparable y need the sum:
    every extension puts x before the elements above it.

    The matrix is computed once per Poset instance: the first call keeps
    it on the poset and later calls return that same (immutable) value.
    """
    if poset._pair_counts is not None:
        return poset._pair_counts
    n = poset.n
    preds = [poset.below_mask(e) for e in range(n)]
    incomparable = [poset.incomparable_mask(e) for e in range(n)]
    full = (1 << n) - 1
    down = {}
    for level in _forward(poset):
        down.update(level)
    total = down[full]
    up = {full: 1}
    counts = [[total if poset.is_lt(x, y) else 0 for y in range(n)] for x in range(n)]
    for ideal, ways in reversed(down.items()):
        rest = full & ~ideal
        free = rest
        after = 0
        while free:
            low = free & -free
            free ^= low
            x = low.bit_length() - 1
            if preds[x] & ~ideal:
                continue
            tail = up[ideal | low]
            after += tail
            weight = ways * tail
            row = counts[x]
            later = rest & incomparable[x]
            while later:
                bit = later & -later
                later ^= bit
                row[bit.bit_length() - 1] += weight
        if rest:
            up[ideal] = after
    poset._pair_counts = PairCountMatrix(tuple(tuple(row) for row in counts), total)
    return poset._pair_counts


def prob(poset, x, y):
    """P(x before y) over uniformly random linear extensions, exactly."""
    if x == y:
        raise ValueError("prob needs two distinct elements")
    if poset.is_lt(x, y):
        return Fraction(1)
    if poset.is_lt(y, x):
        return Fraction(0)
    total = count_extensions(poset)
    before = count_extensions(poset.with_relation(x, y))
    return Fraction(before, total)


def delta(poset):
    """max over pairs of min{P(x<y), P(y<x)} with its achieving pair.

    Ties break to the lexicographically smallest (x, y).  Chains have no
    incomparable pair, so the max is empty and ChainError is raised.
    """
    if poset.is_chain():
        raise ChainError("delta is undefined on chains")
    matrix = pair_counts(poset)
    total = matrix.total
    best = None
    best_pair = None
    for x, y in poset.incomparable_pairs():
        value = Fraction(min(matrix.counts[x][y], matrix.counts[y][x]), total)
        if best is None or value > best:
            best, best_pair = value, (x, y)
    return best, best_pair


def balanced_pair(poset):
    """First incomparable pair with P(x<y) in [1/3, 2/3], or None.

    None would be a counterexample to the 1/3-2/3 conjecture; callers are
    expected to surface it loudly.
    """
    if poset.is_chain():
        raise ChainError("balanced_pair is undefined on chains")
    matrix = pair_counts(poset)
    low, high = Fraction(1, 3), Fraction(2, 3)
    for x, y in poset.incomparable_pairs():
        p = Fraction(matrix.counts[x][y], matrix.total)
        if low <= p <= high:
            return (x, y), p
    return None
