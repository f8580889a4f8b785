"""Lexicographic sums and what they preserve.

Builds P(Q_1,...,Q_n) by replacing each point of a base poset with a
component poset, inheriting the order between components from the base.
On top of the construction sit the facts this package mechanically
verifies: locality of component labels, the equal-class table whose shape
proves e(Q) | e(P o_i Q), exact lifting of gold-partition witnesses with
t' = k*t, preservation of order probabilities inside a component, and the
closed-form probability after substituting a chain at one point.  The
results (``LexSumSpec``, ``LocalityTable``, ``GapProfile``) are immutable
named tuples, copied with ``_replace``.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction

from . import linext
from .errors import (
    ArityMismatchError,
    CapExceededError,
    ComponentError,
    InvalidWitnessError,
    PosetError,
    RemarkViolationError,
)
from .conjectures import (
    GpcBranch,
    GpcWitness,
    _partition_ok,
    _recount,
    _stays_incomparable,
    verify_gpc_witness,
)
from .poset import Poset, _bits, _check_points


class LexSumSpec(namedtuple("LexSumSpec", "base components embed poset trivial")):
    """A lexicographic sum together with its embedding bookkeeping.

    ``embed[i][q]`` is the sum element representing local element q of
    component i; components are laid out consecutively in base order.
    """

    __slots__ = ()

    def component_of(self, element):
        for i, block in enumerate(self.embed):
            if element in block:
                return i
        raise ComponentError(f"element {element} outside the sum")


def lex_sum(base, components):
    """The lexicographic sum of ``base`` with one component per point.

    Each row of component i is Q_i's row shifted into i's block of
    elements, with the blocks of every point above i in the base."""
    components = tuple(components)
    if len(components) != base.n:
        raise ArityMismatchError(
            f"{base.n} base points but {len(components)} components"
        )
    blocks, total = [], 0
    for q in components:
        blocks.append(((1 << q.n) - 1) << total)
        total += q.n
    embed = tuple(tuple(_bits(block)) for block in blocks)
    rows = []
    for q, members, up in zip(components, embed, base.lt):
        above = 0
        for j in _bits(up):
            above |= blocks[j]
        rows += [row << members[0] | above for row in q.lt]
    poset = Poset(total, rows, _trusted=True)
    trivial = base.n == 1 or all(q.n == 1 for q in components)
    return LexSumSpec(base, components, embed, poset, trivial)


def compose_at(base, i, component):
    """Substitute ``component`` at point i only (all other points stay).

    An i outside 0..n-1 is a ValueError.
    """
    _check_points("compose_at", base, i)
    one = Poset.antichain(1)
    return lex_sum(base, [component if j == i else one for j in range(base.n)])


def restrict_to_component(spec, extension, i):
    """The linear order the extension induces on component i.

    Returns the local elements of Q_i sorted by label.  Also checks
    locality: every component above (below) i in the base must be labeled
    entirely above (below) Q_i.  A violation means the extension does not
    belong to the sum and is reported as RemarkViolationError, naming the
    component of the least element at fault.
    """
    labels = extension.labels
    values = [labels[e] for e in spec.embed[i]]
    lo, hi = min(values), max(values)
    above, below = [], []
    for j in range(spec.base.n):
        if spec.base.is_lt(i, j):
            above += [e for e in spec.embed[j] if labels[e] <= hi]
        elif spec.base.is_lt(j, i):
            below += [e for e in spec.embed[j] if labels[e] >= lo]
    if above or below:
        e = min(above + below)
        side = "above" if e in above else "below"
        raise RemarkViolationError(
            f"component {spec.component_of(e)} not {side} component {i}"
        )
    return tuple(sorted(range(len(values)), key=values.__getitem__))


class LocalityTable(namedtuple("LocalityTable", "spec columns packed k total")):
    """L(P o_i Q) organized as equal-size classes, one per order of Q.

    ``columns`` lists the local orders of Q in enumeration order, ``k`` is
    the common class size and ``total`` e of the sum.  The classes are
    kept packed as ``_descend`` yields them, ``packed`` mapping a column to
    its extensions of the sum, rank r of element x as ``r << 8*x``;
    ``classes`` unpacks them on first read and keeps them in the instance
    dict.
    """

    @functools.cached_property
    def classes(self):
        """column -> tuple of LinearExtension values of the sum."""
        n = self.spec.poset.n
        return {g: tuple(linext._unpack(fs, n)) for g, fs in self.packed.items()}


def locality_table(base, i, component, cap=linext.DEFAULT_ENUM_CAP):
    """Build the class table of the sum and verify its shape.

    A pass over Q's own lattice lists the columns, L(Q): keyed by every
    element it places, each key at the empty ideal is one whole order, in
    lexicographic order.  A pass over the sum's lattice groups the
    completions of each ideal by the order in which they place the block
    of Q; at the empty ideal the groups are the classes, keyed by their
    columns.  Locality is checked once per step of the lattice, each step
    lying on some extension: no block element while an element below the
    block is missing, no element above it while the block is incomplete.
    Every column must be one of L(Q), the classes equal with k * e(Q) =
    e(sum), counted on its own, and the row/column reconstruction exact.
    The classes are returned packed, as the pass built them.
    """
    spec = compose_at(base, i, component)
    linext._check_cap(component, cap)
    orders = linext._descend(component, lambda ideal, x: (x,))
    columns = tuple(key for key, _, _ in orders)
    total = linext._check_cap(spec.poset, cap)
    n = spec.poset.n
    block = range(spec.embed[i][0], spec.embed[i][-1] + 1)
    first, stop = block.start, block.stop
    whole = (1 << stop) - (1 << first)
    points = range(base.n)
    below = sum(1 << spec.embed[j][0] for j in points if base.is_lt(j, i))
    above = sum(1 << spec.embed[j][0] for j in points if base.is_lt(i, j))

    def mark(ideal, x):
        if x in block:
            return None if below & ~ideal else (x - first,)
        return None if above >> x & 1 and whole & ~ideal else ()

    groups = {}
    for key, head, tails in linext._descend(spec.poset, mark):
        groups.setdefault(key, []).extend([head + tail for tail in tails])
    classes = {g: groups.pop(g, []) for g in columns}
    if groups:
        # An extension that breaks locality (key None) or whose column is
        # not one of L(Q); the first in enumeration order is reported.
        firsts = linext._unpack([fs[0] for fs in groups.values()], n)
        column = restrict_to_component(spec, min(firsts, key=lambda f: f.order), i)
        raise PosetError(f"restriction {column} is not a linear extension of Q")
    sizes = {g: len(fs) for g, fs in classes.items()}
    if len(set(sizes.values())) != 1:
        raise PosetError(f"unequal class sizes {sizes} falsify the class table")
    k = sizes[columns[0]]
    if k * len(columns) != total:
        raise PosetError("class sizes do not tile L(sum)")
    # Giving f's block labels the reference column's order yields a row of
    # the reference class exactly when f's labels outside the block equal
    # those of a reference member.  The pass lists every class in one order
    # of those labels: where two members of a class first part, it takes a
    # block element before an outside one exactly when the outside one
    # follows the block in index order, whichever block element it is.  So
    # f's partner can only be the reference member at f's own position.
    # The back-map, giving the block's labels out along f's column, returns
    # f by construction: the column is the order the pass placed the block
    # in.
    outside = (1 << 8 * n) - (1 << 8 * stop) + (1 << 8 * first) - 1
    reference = list(map(outside.__and__, classes[columns[0]]))
    for column in columns:
        if list(map(outside.__and__, classes[column])) != reference:
            raise PosetError("reconstruction left the reference class")
    return LocalityTable(spec, columns, classes, k, total)


def verify_divisibility(base, components):
    """Check prod e(Q_i) | e(P(Q_1,...,Q_n)); returns (divides, cofactor).

    A False here would falsify the class-table argument and deserves loud
    treatment by the caller.
    """
    spec = lex_sum(base, components)
    product = math.prod(linext.count_extensions(q) for q in spec.components)
    total = linext.count_extensions(spec.poset)
    return total % product == 0, total // product


def lift_witness(sum_poset, mapping, component, witness):
    """Lift a gold-partition witness of a component into the enclosing sum.

    ``mapping[q]`` names the sum element carrying local element q.  The
    witness is first re-verified on the component, which checks that t0 is
    e(component) and that the two branches orient one pair both ways.  Then
    every t-value is independently recounted on the sum by the recount
    ``verify_gpc_witness`` uses, one packed pass over the sum's lattice of
    ideals (``conjectures._recount``), and checked to be exactly k times
    the component value, k = e(sum) / t0; a chain outcome's vacuous t2
    lifts to t1 once k > 1.  Under ``strict`` that ties t0 = t1 + t2 when
    t0 = 2k, so such a branch records instead the first pair of the sum
    that its result leaves incomparable, counted in the same pass.  A
    lifted witness that breaks the inequality raises InvalidWitnessError.
    A nonadaptive witness need not lift to one: Q = {0 < 2, 1} has one,
    R = {0 < 1 < 3, 0 < 2} o_0 Q has none.  ``mapping`` must name
    component.n distinct points of the sum; ValueError otherwise, before
    anything is counted.
    """
    if len(mapping) != component.n or len(set(mapping)) != component.n:
        raise ValueError(f"lift_witness needs {component.n} distinct points, got {mapping}")
    _check_points("lift_witness", sum_poset, *mapping)
    if not verify_gpc_witness(component, witness):
        raise InvalidWitnessError("witness fails re-verification on the component")

    def lift(pair):
        return mapping[pair[0]], mapping[pair[1]]

    results = [lift(branch.result) for branch in witness.branches]
    seconds = [branch.second and lift(branch.second) for branch in witness.branches]
    if witness.strict:
        # A spare second pair for each vacuous branch, in case its lifted t2
        # ties the strict inequality: the first pair of the sum left
        # incomparable by the branch's result, None when there is none.
        pairs = sum_poset._kept_pairs()
        seconds = [
            second or next((p for p in pairs if _stays_incomparable(sum_poset, *r, *p)), None)
            for r, second in zip(results, seconds)
        ]
    e_sum, counts = _recount(sum_poset, results, seconds)
    if e_sum % witness.t0:
        raise PosetError("e(component) does not divide e(sum)")
    k = e_sum // witness.t0
    branches = []
    for result, second, branch, (t1, t2) in zip(results, seconds, witness.branches, counts):
        if t1 != k * branch.t1:
            raise PosetError("lifted t1 is not k * t1")
        if branch.second is None:
            # A chain outcome of the component (t1 = 1) lifts to k extensions:
            # while k > 1 some comparison is left, leaving at most t1 of them,
            # so its vacuous t2, 0 under the strict reading, does not scale.
            # Where t2 = t1 breaks the inequality, the spare pair is taken:
            # it splits the k extensions, so its t2 is at most k - 1.
            vacuous = t1 if branch.t1 == 1 < t1 else k * branch.t2
            if second is None or _partition_ok(e_sum, t1, vacuous, witness.strict):
                second, t2 = None, vacuous
        elif t2 != k * branch.t2:
            raise PosetError("lifted t2 is not k * t2")
        branches.append(GpcBranch(result, t1, second, t2))
    lifted = GpcWitness(lift(witness.first), e_sum, tuple(branches), witness.strict)
    if not lifted.holds():
        raise InvalidWitnessError("lifted witness violates the partition inequality")
    return lifted


def lift_gpc_witness(base, i, component, witness):
    """Witness for P o_i Q obtained from a witness for Q (exact k-multiples)."""
    spec = compose_at(base, i, component)
    return lift_witness(spec.poset, spec.embed[i], component, witness)


def prob_preservation(spec, i, x, y):
    """Order probability of a component pair, inside Q_i and inside the sum.

    x and y are sum elements that must both lie in component i.  The two
    exact probabilities are returned and checked equal.
    """
    block = spec.embed[i]
    if x not in block or y not in block:
        raise ComponentError(f"({x},{y}) does not lie inside component {i}")
    lx, ly = block.index(x), block.index(y)
    in_component = linext.prob(spec.components[i], lx, ly)
    in_sum = linext.prob(spec.poset, x, y)
    if in_component != in_sum:
        raise PosetError(
            f"probability not preserved: {in_component} vs {in_sum}"
        )
    return in_component, in_sum


def multiset_coefficient(y, x):
    """Number of multisets of size x from y symbols: C(y+x-1, x)."""
    return math.comb(y + x - 1, x)


class GapProfile(namedtuple("GapProfile", "poset point classes")):
    """L(P) partitioned by the reinsertion gap around a distinguished point.

    Each class collects the extensions that agree away from the point;
    ``classes`` maps the reduced order (elements minus the point, by label)
    to its gap count k, so the class holds exactly k + 1 extensions.
    """

    __slots__ = ()

    def total(self):
        return sum(k + 1 for k in self.classes.values())

    def substituted_count(self, m):
        """Predicted e(P o_point <m>) from the class sizes alone; m >= 1."""
        if m < 1:
            raise ValueError(f"substituted_count needs m >= 1, got {m}")
        return sum(multiset_coefficient(k + 1, m) for k in self.classes.values())


def gap_profile(poset, point):
    """Classify L(P) by the free gap of ``point`` between its neighbors.

    An extension's class is its reduced order, the other elements by
    label: one pass over P's lattice groups L(P) by it, keyed by every
    element placed but the point.  In a reduced order, c is the position
    of the point's last strict predecessor (0 when none) and b that of its
    first strict successor (n when none); the k = b - c - 1 elements
    between are incomparable to it, and the class holds one extension per
    slot, k + 1.  The classes must cover e(P), counted on its own.  A point
    outside 0..n-1 is a ValueError, raised before any count; the pass is
    capped at ``linext.DEFAULT_ENUM_CAP`` extensions (CapExceededError).
    """
    _check_points("gap_profile", poset, point)
    total = linext._check_cap(poset, linext.DEFAULT_ENUM_CAP)
    below = tuple(_bits(poset._gt[point]))
    above = tuple(_bits(poset.lt[point]))
    sizes = {}
    for reduced, _, tails in linext._descend(
        poset, lambda ideal, x: () if x == point else (x,)
    ):
        sizes[reduced] = sizes.get(reduced, 0) + len(tails)
    classes = {}
    for reduced, size in sizes.items():
        c = max([reduced.index(s) + 1 for s in below], default=0)
        b = min([reduced.index(r) + 1 for r in above], default=poset.n)
        k = classes[reduced] = b - c - 1
        if size != k + 1:
            raise PosetError(f"class of size {size} does not match gap {k} + 1")
    profile = GapProfile(poset, point, classes)
    if profile.total() != total:
        raise PosetError("gap classes do not partition L(P)")
    return profile


def chain_substitution_probability(poset, point, m, x, y):
    """Exact P(x < y) in P o_point <m>, from the gap profile of P alone.

    Sums multiset coefficients over the classes split by the orientation
    of (x, y): sum c_k * C(k+m, m) / sum (c_k + d_k) * C(k+m, m).  A
    point, x or y outside 0..n-1, m < 1, x = y, or x or y equal to
    ``point`` is a ValueError, raised before any count; the profile is
    capped at ``linext.DEFAULT_ENUM_CAP`` extensions.
    """
    _check_points("chain_substitution_probability", poset, point, x, y)
    if m < 1:
        raise ValueError(f"chain_substitution_probability needs m >= 1, got {m}")
    if x == point or y == point or x == y:
        raise ValueError("monitored pair must avoid the substituted point")
    profile = gap_profile(poset, point)
    num = 0
    den = 0
    for reduced, k in profile.classes.items():
        weight = multiset_coefficient(k + 1, m)
        den += weight
        if reduced.index(x) < reduced.index(y):
            num += weight
    return Fraction(num, den)
