"""Linear extensions: exact counting, enumeration, order probabilities.

Everything runs on the lattice of down-sets (order ideals): a linear
extension is a maximal chain from the empty ideal to the full ground set
(De Loof, De Meyer & De Baets, "Exploiting the lattice of ideals
representation of a poset", Fundam. Inform. 71, 2006).
``count_extensions`` reads e(P) off P's kept pair-count matrix when
``pair_counts`` (and so ``check_gpc``, ``delta``, ``balanced_pair`` or
``sort_cost``) has kept one; otherwise it counts the chains in its own
level-by-level pass over ideal bitmasks and keeps nothing.  Witness
recounts (``_counts``) never read a kept matrix.  Everything else runs on
P's lattice, built once per Poset and kept on it (``_lattice``) as flat
step arrays: one entry per step, its source ideal, target ideal and added
element, in three packed arrays.  Every counting pass is one loop over the
three zipped, forward or reversed.  Enumeration is one top-down pass over
the lattice: each ideal's completions are its successors' completions
with the element added, packed one label per byte of an int.  Counts of
outcomes need no outcome poset: the ideals of P + a<b are the ideals of
P that hold a whenever they hold b, so any outcome of comparisons is P's
lattice with the steps it forbids dropped.  ``_matrix`` counts one outcome
with its own forward loop; ``_down`` packs several outcomes into one pass
for ``_counts``, which is how witnesses are recounted: each ideal holds
one integer with a field per outcome, and a step masks out the fields of
the outcomes that forbid it.  Pair probabilities come from a single pass: the
forward pass counts down(I) = e(P|I), a backward pass up(I) = e(P|rest),
and #(y before x) is the sum of down(I)*up(I+x) over the ideals I that x
extends and y lies in; the sums for every y are carried in one integer per
x, a field per y.  A ``PairCountMatrix`` keeps those packed columns as they
are: callers read single fields in place, and the unpacked ``counts`` are
built only when read.  The matrices of P and of the outcomes ``check_gpc``
reads are kept on the Poset too (``_kept_matrix``).  ``LinearExtension``
and ``PairCountMatrix`` are immutable named tuples.  All probabilities are
`fractions.Fraction`; floats never enter a comparison.
"""

import functools
import math
from array import array
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

from .errors import CapExceededError, ChainError
from .poset import MAX_ELEMENTS, _check_points

#: Default ceiling on e(P) for explicit enumeration of L(P), sized from
#: memory: ``enumerate_extensions`` peaks at about 182 bytes per extension
#: of an 8-point antichain, and ``locality_table`` at 89-178 bytes per
#: extension of the sums A_7 o_0 A_2 and A_2 o_0 A_7 (tracemalloc, 40,320
#: extensions each, A_m the m-point antichain), so a call at the cap needs
#: about 90-180 MB.  Reading a table's ``classes`` adds the unpacked
#: extensions to the packed ones: 218-245 bytes per extension in all.
DEFAULT_ENUM_CAP = 10**6

#: _WIDTH[n] bits hold n!, which bounds every count on n points.
_WIDTH = [math.factorial(n).bit_length() for n in range(MAX_ELEMENTS + 1)]


class LinearExtension(namedtuple("LinearExtension", "labels")):
    """A bijective order-preserving labeling of a poset into 1..n.

    ``labels[e]`` is the rank of element e.  ``order`` lists the elements
    by increasing rank.
    """

    __slots__ = ()

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


class PairCountMatrix(namedtuple("PairCountMatrix", "columns width total")):
    """The number of extensions placing x before y, for every pair; total = e(P).

    Kept packed as ``_matrix`` builds it: ``columns[y]`` holds
    #(x before y) in field x, ``width`` bits wide.  ``before`` reads one
    field in place; ``counts`` unpacks the whole matrix on first read and
    keeps it in the instance dict, ``counts[x][y]`` = #(x before y).
    """

    def before(self, x, y):
        """#(x before y): field x of column y."""
        return self.columns[y] >> self.width * x & (1 << self.width) - 1

    @functools.cached_property
    def counts(self):
        """The tuple of rows, ``counts[x][y]`` = #(x before y)."""
        width, field = self.width, (1 << self.width) - 1
        return tuple(
            tuple(column >> width * x & field for column in self.columns)
            for x in range(len(self.columns))
        )


def _forward(poset):
    """The forward pass: for k = 0..n, the level {ideal of size k: e(P|ideal)}.

    x extends an ideal exactly when the ideal holds the elements below x
    but not x: one mask test against below(x) | x.  Each level lists its
    ideals in a fixed order, elements tried in ascending index.
    """
    steps = [(below, below | 1 << x) for x, below in enumerate(poset._gt)]
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
    """Exact e(P): the total of P's kept pair-count matrix, when one is kept.

    Otherwise the forward pass's count at the full ideal: a count-only call
    keeps nothing and builds no lattice.
    """
    kept = poset._pair_counts
    if kept and () in kept:
        return kept[()].total
    for level in _forward(poset):
        pass
    return level[(1 << poset.n) - 1]


def enumerate_extensions(poset, cap=DEFAULT_ENUM_CAP):
    """All of L(P) as LinearExtension values, in lexicographic order of
    ``order``.  Raises CapExceededError, before building any, when e(P)
    exceeds ``cap``.
    """
    _check_cap(poset, cap)
    out = []
    for _, head, tails in _descend(poset):
        out += _unpack(tails, poset.n, head)
    return out


def _check_cap(poset, cap):
    """e(P) by ``count_extensions``; CapExceededError when above ``cap``."""
    total = count_extensions(poset)
    if total > cap:
        raise CapExceededError(f"e(P) = {total} exceeds enumeration cap {cap}")
    return total


def _unpack(packed, n, head=0):
    """The LinearExtension of each ``head + f``, f packed by ``_descend``."""
    return [LinearExtension(tuple((head + f).to_bytes(n, "little"))) for f in packed]


def _descend(poset, mark=None):
    """The extensions of P by one top-down pass over P's lattice, grouped.

    An extension is packed into an int, rank r of element x as ``r << 8*x``
    (ranks <= 24 < 256).  From the full ideal down, each ideal keeps its
    completions, the labels of the elements outside it: over its steps
    I + x in ascending x, those of I + x plus x at rank |I| + 1.  Taking
    the least x first lists them in lexicographic order of the elements'
    sequence.  An ideal's steps are the run of its index in the sorted
    ``sources`` array, found by ``bisect``.  Two levels are held at a time.
    The completions are grouped by a key: ``mark(ideal, x)``, called once
    per step, gives a tuple to prepend to the keys through it, or None to
    make them None; without ``mark`` every key is ().  The last level is
    yielded, not kept: one ``(key, head, tails)`` per step from the empty
    ideal, ``head`` being x's field with rank 1 and ``head + tail`` the
    extensions.
    """
    ideals, sources, targets, elements = _lattice(poset)
    size = poset.n
    level = {len(ideals) - 1: {(): [0]}}
    stop = len(sources)
    for i in range(len(ideals) - 2, -1, -1):
        ideal = ideals[i]
        if ideal.bit_count() < size:
            upper, level, size = level, {}, size - 1
        groups = level[i] = {}
        start = bisect_left(sources, i, 0, stop)
        for s in range(start, stop):
            j = targets[s]
            x = elements[s]
            head = size + 1 << 8 * x
            mine = mark(ideal, x) if mark else ()
            for key, tails in (upper[j] if i else upper.pop(j)).items():
                if mine is None or key is None:
                    key = None
                elif mine:
                    key = mine + key
                if not i:
                    yield key, head, tails
                    continue
                grown = [head + tail for tail in tails]
                known = groups.get(key)
                if known is None:
                    groups[key] = grown
                else:
                    known += grown
        stop = start


def _lattice(poset):
    """P's lattice of ideals as flat step arrays, built once per Poset.

    Returns ``(ideals, sources, targets, elements)``.  ``ideals`` lists the
    ideal bitmasks level by level, each level in the order the forward pass
    of ``count_extensions`` first reaches them.  Step s adds element
    ``elements[s]`` to ideal ``sources[s]`` and gives ideal ``targets[s]``;
    the steps are grouped by source, ascending, and by ascending element
    within a source.  Every counting pass is one loop over the three arrays
    zipped; enumeration finds an ideal's run by ``bisect``.  They are
    packed arrays, since a wide poset has millions of steps.  The
    lattice is kept on the instance; it holds no count.
    """
    if poset._lattice is not None:
        return poset._lattice
    grow = [(x, below, below | 1 << x) for x, below in enumerate(poset._gt)]
    ideals = array("I", [0])
    sources = array("I")
    targets = array("I")
    elements = array("B")
    add_ideal, add_source = ideals.append, sources.append
    add_target, add_element = targets.append, elements.append
    index = {}
    find = index.get
    start = 0
    while start < len(ideals):
        # One level; the index of the next one is cleared after it, so the
        # build never holds more than one level's dict.
        stop = len(ideals)
        for i in range(start, stop):
            ideal = ideals[i]
            for x, below, mask in grow:
                if ideal & mask == below:
                    grown = ideal | mask
                    j = find(grown)
                    if j is None:
                        j = index[grown] = len(ideals)
                        add_ideal(grown)
                    add_source(i)
                    add_target(j)
                    add_element(x)
        index.clear()
        start = stop
    poset._lattice = (ideals, sources, targets, elements)
    return poset._lattice


def _down(poset, givens):
    """down[i] packs e(P + given | ideal i) for each given, on P's lattice.

    ``givens`` lists outcomes, each a tuple of comparisons (a, b), a below
    b.  The ideals of P + given are the ideals of P that hold a whenever
    they hold b, so the step adding x is dropped unless the ideal holds
    every a the given puts below x.  All the givens share one forward pass,
    a single loop over the zipped step arrays: each ideal holds one int
    with a field per given, and a step's gate masks out the fields of the
    givens whose need the ideal misses.  The gates are built per x once per
    call, and most steps have none.  A field is as wide as n!, which bounds
    every count, so no field carries into the next.  Ideals of P that no
    given reaches keep 0.
    """
    ideals, sources, targets, elements = _lattice(poset)
    width = _WIDTH[poset.n]
    ones = (1 << width) - 1
    every = (1 << width * len(givens)) - 1
    gates = [()] * poset.n  # x -> ((need, keep the other fields), ...)
    for f, given in enumerate(givens):
        needs = {}
        for a, b in given:
            needs[b] = needs.get(b, 0) | 1 << a
        for x, need in needs.items():
            gates[x] += ((need, every ^ ones << width * f),)
    down = [0] * len(ideals)
    down[0] = every // ones  # a 1 in every field
    for i, j, x in zip(sources, targets, elements):
        ways = down[i]
        gate = gates[x]
        if gate and ways:
            ideal = ideals[i]
            for need, keep in gate:
                if ideal & need != need:
                    ways &= keep
        down[j] += ways
    return down


def _counts(poset, givens):
    """[e(P + given) for given in givens]: the fields of ``_down`` at the full ideal."""
    width = _WIDTH[poset.n]
    full = _down(poset, givens)[-1]
    return [full >> width * f & (1 << width) - 1 for f in range(len(givens))]


def _matrix(poset, given=()):
    """The PairCountMatrix of P + given, from P's lattice, left packed.

    A forward loop over the zipped step arrays gives down(I) = e(Q|I) for
    every ideal I of Q = P + given: it skips a step adding x from an ideal
    that lacks one of ``needs[x]``, the points ``given`` puts below x.  A
    backward pass, the same loop reversed, gives up(I) = e(Q|rest); an
    ideal of P that is not one of Q keeps 0 in both.  The extensions that
    place x right after exactly the ideal I number down(I)*up(I+x), and
    they put every y of I before x, so #(y before x) sums them over the
    steps from ideals that hold y; pairs that P or ``given`` order come
    out as e(Q) or 0.  The sums for every y are taken at once: column x is
    one integer holding #(y before x) in field y, and a step adds
    down(I)*up(I+x) times I's spread, the integer with a 1 in the field of
    each y in I.  The reversed loop meets an ideal's steps after all of
    its successors', so I's spread is I + x's less x's field, taken at I's
    last step.  No count exceeds e(Q), so fields as wide as e(Q) never
    carry into each other, and the columns are returned packed.
    """
    ideals, sources, targets, elements = _lattice(poset)
    n = poset.n
    needs = [0] * n
    for a, b in given:
        needs[b] |= 1 << a
    down = [0] * len(ideals)
    down[0] = 1
    for i, j, x in zip(sources, targets, elements):
        need = needs[x]
        if not need or ideals[i] & need == need:
            down[j] += down[i]
    total = down[-1]
    width = total.bit_length()
    units = [1 << width * y for y in range(n)]
    columns = [0] * n
    up = [0] * len(ideals)
    up[-1] = 1
    spreads = [0] * len(ideals)
    spreads[-1] = sum(units)
    last = -1
    for i, j, x in zip(reversed(sources), reversed(targets), reversed(elements)):
        if i != last:
            last = i
            spreads[i] = spread = spreads[j] - units[x]
            ways = down[i]
            weighted = spread * ways
        tail = up[j]
        if tail and ways:
            up[i] += tail
            columns[x] += tail * weighted
    return PairCountMatrix(tuple(columns), width, total)


def _kept_matrix(poset, given=()):
    """``_matrix(P, given)``, computed once per Poset instance and ``given``.

    The matrices are kept on the poset in a dict keyed by ``given``, () for
    P's own; later calls return the same (immutable) value.
    """
    kept = poset._pair_counts
    if kept is None:
        kept = poset._pair_counts = {}
    matrix = kept.get(given)
    if matrix is None:
        matrix = kept[given] = _matrix(poset, given)
    return matrix


def pair_counts(poset):
    """Exact before/after counts for every ordered pair: ``_matrix(P)``.

    The matrix is computed once per Poset instance and kept on it, beside
    the outcome matrices ``check_gpc`` reads (``_kept_matrix``).
    """
    return _kept_matrix(poset)


def prob(poset, x, y):
    """P(x before y) over uniformly random linear extensions, exactly.

    x and y must be two distinct points of P, in 0..n-1; ValueError
    otherwise.
    """
    _check_points("prob", poset, x, y)
    if x == y:
        raise ValueError("prob needs two distinct elements")
    if poset.is_lt(x, y):
        return Fraction(1)
    if poset.is_lt(y, x):
        return Fraction(0)
    total, before = _counts(poset, [(), ((x, y),)])
    return Fraction(before, total)


def delta(poset):
    """max over pairs of min{P(x<y), P(y<x)} with its achieving pair.

    Ties break to the lexicographically smallest (x, y).  Chains have no
    incomparable pair, so the max is empty and ChainError is raised.  The
    counts share the denominator e(P), so they are compared as integers.
    """
    if poset.is_chain():
        raise ChainError("delta is undefined on chains")
    matrix = pair_counts(poset)
    best = -1
    best_pair = None
    for x, y in poset.incomparable_pairs():
        before = matrix.before(x, y)
        value = min(before, matrix.total - before)
        if value > best:
            best, best_pair = value, (x, y)
    return Fraction(best, matrix.total), best_pair


def _balanced(before, total):
    """Whether before/total lies in [1/3, 2/3]: total <= 3*before <= 2*total."""
    return total <= 3 * before <= 2 * total


def balanced_pair(poset):
    """First incomparable pair with P(x<y) in [1/3, 2/3], or None.

    With c = #(x before y) and t = e(P), the test is ``_balanced(c, t)``.
    None would be a counterexample to the 1/3-2/3 conjecture; callers are
    expected to surface it loudly.
    """
    if poset.is_chain():
        raise ChainError("balanced_pair is undefined on chains")
    matrix = pair_counts(poset)
    total = matrix.total
    for x, y in poset.incomparable_pairs():
        before = matrix.before(x, y)
        if _balanced(before, total):
            return (x, y), Fraction(before, total)
    return None
