"""Linear extensions: exact counting, enumeration, order probabilities.

Counting walks the lattice of down-sets (order ideals): the number of
linear extensions equals the number of maximal chains from the empty ideal
to the full ground set, which a level-by-level dynamic program over ideal
bitmasks computes exactly in arbitrary precision.  Pair probabilities come
from a single pass over the same lattice: a forward pass counts
down(I) = e(P|I), a backward pass up(I) = e(P|rest), and #(x before y) is
the sum of down(I)*up(I+x) over the ideals I that x extends with y outside
(De Loof, De Meyer & De Baets, "Exploiting the lattice of ideals
representation of a poset", Fundam. Inform. 71, 2006).  The sum is taken
for half the pairs, x < y by index; every extension puts x before y or y
before x, so #(y before x) is the rest of e(P).  All probabilities are
`fractions.Fraction`; floats never enter a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ChainError
from .poset import Poset

#: Default ceiling on e(P) for explicit enumeration of L(P), sized from
#: memory: ``enumerate_extensions`` holds about 153 bytes per extension of
#: an 8-point antichain, and ``locality_table`` peaks at 161-182 bytes per
#: extension of the sums A_7 o_0 A_2 and A_2 o_0 A_7 (tracemalloc, 40,320
#: extensions each, A_m the m-point antichain), so a call at the cap needs
#: about 150-180 MB.
DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True, slots=True)
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

    def __sub__(self, part):
        """The matrix of P + b<a, from this one of P and ``part`` of P + a<b.

        Every extension of P puts a before b or b before a, so each count
        of P, e(P) included, is the sum of the two outcomes' counts.
        """
        return PairCountMatrix(
            tuple(
                tuple(whole - some for whole, some in zip(row, part_row))
                for row, part_row in zip(self.counts, part.counts)
            ),
            self.total - part.total,
        )


def _forward(poset):
    """The forward pass: for k = 0..n, the level {ideal of size k: e(P|ideal)}.

    x extends an ideal exactly when the ideal holds the elements below x
    but not x: one mask test against below(x) | x.  Each level lists its
    ideals in a fixed order, elements tried in ascending index.
    """
    steps = [(poset.below_mask(x), poset.below_mask(x) | 1 << x) for x in range(poset.n)]
    level = {0: 1}
    yield level
    for _ in range(poset.n):
        nxt = {}
        get = nxt.get
        for ideal, ways in level.items():
            for below, mask in steps:
                if ideal & mask == below:
                    grown = ideal | mask
                    nxt[grown] = get(grown, 0) + ways
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
    out = []
    _walk(poset, cap, lambda column, labels: out)
    return out


def _walk(poset, cap, pick, block=range(0), below=0, above=0):
    """The depth-first walk over the ideals of P behind enumerate_extensions.

    The walk records the order in which it places the elements of ``block``
    (a range of elements), as local indices: the block's column.  When the
    column is complete, ``pick(column, labels)`` returns the list that takes
    every extension below, ``labels`` holding the ranks given so far; with
    an empty block ``pick((), labels)`` takes all of L(P).  Placing a block
    element before all of ``below`` (a mask), or an element of ``above``
    before the whole block, breaks locality: ``pick(None, labels)`` then
    takes the extensions below.  Returns e(P), counted before anything is
    placed; raises CapExceededError then when it exceeds ``cap``.
    """
    total = count_extensions(poset)
    if total > cap:
        raise CapExceededError(f"e(P) = {total} exceeds enumeration cap {cap}")
    n = poset.n
    preds = [poset.below_mask(e) for e in range(n)]
    addable = {}  # ideal -> its minimal outside elements, ascending
    labels = [0] * n
    column = []

    def key(e, ideal):
        """The list for extensions through e, placed while the block is open."""
        if e not in block:
            return pick(None, labels) if above >> e & 1 else None
        column.append(e - block.start)
        if below & ~ideal:
            return pick(None, labels)
        return pick(tuple(column), labels) if len(column) == len(block) else None

    def rec(ideal, rank, members):
        free = addable.get(ideal)
        if free is None:
            free = addable[ideal] = tuple(
                e for e in range(n) if not ideal >> e & 1 and not preds[e] & ~ideal
            )
        if rank == n:  # one element is left: the leaf
            e = free[0]
            labels[e] = n
            if members is None:  # e closes the block
                members = key(e, ideal)
                column.pop()
            members.append(LinearExtension(tuple(labels)))
            return
        for e in free:
            labels[e] = rank
            if members is not None:
                rec(ideal | 1 << e, rank + 1, members)
            else:
                rec(ideal | 1 << e, rank + 1, key(e, ideal))
                if e in block:
                    column.pop()

    rec(0, 1, None if block else pick((), labels))
    return total


def pair_counts(poset):
    """Exact before/after counts for every ordered pair, in one pass.

    The forward pass gives down(I) = e(P|I) for every ideal I; a backward
    pass over the same ideals gives up(I) = e(P|rest).  The extensions that
    place x right after exactly the ideal I number down(I)*up(I+x), and they
    put x before every y outside I+x.  The sum runs only over incomparable
    y > x: every extension puts x before the elements above it, and
    #(y before x) is e(P) - #(x before y).

    The matrix is computed once per Poset instance: the first call keeps
    it on the poset and later calls return that same (immutable) value.
    """
    if poset._pair_counts is not None:
        return poset._pair_counts
    n = poset.n
    full = (1 << n) - 1
    down = {}
    for level in _forward(poset):
        down.update(level)
    total = down[full]
    counts = [[total if row >> y & 1 else 0 for y in range(n)] for row in poset.lt]
    steps = [
        (
            poset.below_mask(x),
            poset.below_mask(x) | 1 << x,
            counts[x],
            poset.incomparable_mask(x) >> (x + 1) << (x + 1),
        )
        for x in range(n)
    ]
    up = {full: 1}
    ideals = reversed(down.items())
    next(ideals)  # the full ideal: nothing is left to place
    for ideal, ways in ideals:
        rest = full ^ ideal
        after = 0
        for below, mask, row, later in steps:
            if ideal & mask != below:
                continue
            tail = up[ideal | mask]
            after += tail
            later &= rest
            weight = ways * tail
            while later:
                bit = later & -later
                later ^= bit
                row[bit.bit_length() - 1] += weight
        up[ideal] = after
    for x in range(n):
        for y in range(x + 1, n):
            counts[y][x] = total - counts[x][y]
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
