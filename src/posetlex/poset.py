"""Finite strict posets stored as transitively closed bitmask relations.

Elements are always the dense indices 0..n-1; callers keep their own label
tables if they need names.  The strict relation is a tuple of integers,
``lt[a]`` having bit ``b`` set exactly when ``a < b``.  Every constructor
returns a relation that is irreflexive, antisymmetric and transitively
closed, and posets are immutable afterwards, so instances are safe to
share, hash and use as dictionary keys.  Three derived values are cached
on the instance, and equality and hashing ignore all of them:
``incomparable_pairs`` keeps P's incomparable pairs in ``_pairs``, which
``is_chain`` reads too; ``linext._lattice`` keeps P's lattice of ideals
in ``_lattice`` (structure only, never a count); and
``linext._kept_matrix`` keeps in ``_pair_counts`` a dict from ``given``,
a tuple of comparisons, to the pair-count matrix of P + given, its counts
packed in one integer column per point: ``()`` for P's own, which
``pair_counts`` reads and whose total ``count_extensions`` returns as
e(P), and one entry per outcome P + a<b that ``check_gpc`` reads.  A
poset derived from another, such as an outcome of ``with_relation``,
starts with none of them.

``Poset.canonical_form`` gives every poset up to ``MAX_ELEMENTS`` points a
key that is equal exactly across isomorphic posets, with |Aut(P)|.  It
works on the quotient by twin classes (``Poset.twin_classes``) and
canonizes that by individualization-refinement over bitmask partitions.
"""

import itertools
import math

from .errors import (
    AlreadyComparableError,
    CycleError,
    DuplicateValueError,
    SizeCapError,
    ZeroSizeError,
)

#: Largest poset the package accepts (exhaustive kernels are tuned for this).
MAX_ELEMENTS = 24


def _check_size(n):
    """Reject a size outside 1..MAX_ELEMENTS before any work on n points."""
    if n <= 0:
        raise ZeroSizeError("poset needs at least one element")
    if n > MAX_ELEMENTS:
        raise SizeCapError(f"poset size {n} exceeds cap {MAX_ELEMENTS}")


def _check_points(name, poset, *points):
    """ValueError naming every one of ``points`` outside 0..n-1."""
    outside = [v for v in points if not 0 <= v < poset.n]
    if outside:
        raise ValueError(f"{name} needs points in 0..{poset.n - 1}, got {outside}")


def _close(n, rows):
    """Warshall transitive closure of integer bitmask rows, in place."""
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        for a in range(n):
            if rows[a] & bit:
                rows[a] |= rk
    return rows


class Poset:
    """An immutable strict partial order on ``0..n-1``."""

    __slots__ = ("n", "lt", "_gt", "_pairs", "_lattice", "_pair_counts")

    def __init__(self, n, lt, _trusted=False, _gt=None):
        """``_gt``, when given, is the transpose of ``lt``, already known."""
        _check_size(n)
        lt = tuple(lt)
        if not _trusted:
            _validate(n, lt)
        self.n = n
        self.lt = lt
        if _gt is None:
            _gt = [0] * n
            for a in range(n):
                row = lt[a]
                while row:
                    low = row & -row
                    _gt[low.bit_length() - 1] |= 1 << a
                    row ^= low
        self._gt = tuple(_gt)
        self._pairs = None
        self._lattice = None
        self._pair_counts = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_relations(cls, n, pairs):
        """Poset generated by the given ``a < b`` pairs (transitive closure)."""
        _check_size(n)
        rows = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"relation ({a},{b}) out of range for n={n}")
            rows[a] |= 1 << b
        _close(n, rows)
        for a in range(n):
            if rows[a] >> a & 1:
                raise CycleError("relations close to a cycle")
        # Closed, in range and irreflexive, hence antisymmetric: valid.
        return cls(n, rows, _trusted=True)

    @classmethod
    def from_permutation(cls, values):
        """Two-dimensional order of the points ``(position, value)``.

        Element i lies below element j exactly when i precedes j in the
        sequence and ``values[i] < values[j]``.  Any distinct integers are
        accepted; only their relative order matters.
        """
        values = list(values)
        n = len(values)
        _check_size(n)
        if len(set(values)) != n:
            raise DuplicateValueError("permutation values must be distinct")
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if values[i] < values[j]:
                    rows[i] |= 1 << j
        return cls(n, rows, _trusted=True)

    @classmethod
    def chain(cls, n):
        """The total order 0 < 1 < ... < n-1."""
        _check_size(n)
        full = (1 << n) - 1
        return cls(n, [full ^ ((1 << (a + 1)) - 1) for a in range(n)])

    @classmethod
    def antichain(cls, n):
        """n mutually incomparable points."""
        _check_size(n)
        return cls(n, [0] * n)

    # -- basic queries ----------------------------------------------------

    def is_lt(self, a, b):
        """Whether a < b; ValueError for a point outside 0..n-1."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"is_lt needs points in 0..{self.n - 1}, got ({a}, {b})")
        return bool(self.lt[a] >> b & 1)

    def above_mask(self, a):
        """Bitmask of elements strictly above a; ValueError for a point outside 0..n-1."""
        _check_points("above_mask", self, a)
        return self.lt[a]

    def below_mask(self, a):
        """Bitmask of elements strictly below a; ValueError for a point outside 0..n-1."""
        _check_points("below_mask", self, a)
        return self._gt[a]

    def incomparable_mask(self, a):
        """Bitmask of elements incomparable to a; ValueError for a point outside 0..n-1."""
        _check_points("incomparable_mask", self, a)
        full = (1 << self.n) - 1
        return full & ~self.lt[a] & ~self._gt[a] & ~(1 << a)

    def relation_pairs(self):
        """All (a, b) with a < b, in lexicographic order."""
        return [
            (a, b)
            for a in range(self.n)
            for b in range(self.n)
            if self.lt[a] >> b & 1
        ]

    def incomparable_pairs(self):
        """Each unordered incomparable pair once, as (a, b) with a < b.

        The pairs come in lexicographic order, computed once and kept on the
        instance (``_pairs``); every call returns a new list of them.
        """
        return list(self._kept_pairs())

    def is_chain(self):
        """Whether P is a total order: it has no incomparable pair."""
        return not self._kept_pairs()

    def _kept_pairs(self):
        """The tuple of incomparable pairs, built on the first call."""
        pairs = self._pairs
        if pairs is None:
            out = []
            full = (1 << self.n) - 1
            lt, gt = self.lt, self._gt
            for a in range(self.n - 1):
                m = full >> a + 1 << a + 1 & ~(lt[a] | gt[a])
                while m:
                    low = m & -m
                    out.append((a, low.bit_length() - 1))
                    m ^= low
            pairs = self._pairs = tuple(out)
        return pairs

    def with_relation(self, a, b):
        """Smallest poset extending this one with ``a < b``.

        The new relations are c < d for every c <= a and d >= b, so the
        rows of {a} and below(a) gain {b} and above(b), and the down-sets
        of those gain {a} and below(a): no closure is needed.
        """
        if a == b or self.is_lt(a, b) or self.is_lt(b, a):
            raise AlreadyComparableError(f"{a} and {b} are already comparable")
        low = self._gt[a] | 1 << a
        high = self.lt[b] | 1 << b
        rows = list(self.lt)
        for c in _bits(low):
            rows[c] |= high
        gt = list(self._gt)
        for d in _bits(high):
            gt[d] |= low
        return Poset(self.n, rows, _trusted=True, _gt=gt)

    def dual(self):
        """The order with every relation reversed."""
        return Poset(self.n, self._gt, _trusted=True, _gt=self.lt)

    def induced(self, elements):
        """Subposet on the given elements, relabeled in the order given.

        An element outside 0..n-1 or given twice is a ValueError.
        """
        elements = list(elements)
        _check_points("induced", self, *elements)
        places = {a: j for j, a in enumerate(elements)}
        if len(places) < len(elements):
            repeated = [a for a in places if elements.count(a) > 1]
            raise ValueError(f"induced needs distinct points, got {repeated} repeated")
        inside = sum(1 << a for a in places)
        rows = [_image(self.lt[a] & inside, places) for a in elements]
        return Poset(len(elements), rows, _trusted=True)

    def relabel(self, perm):
        """Image under the bijection old -> perm[old].

        A ``perm`` that is not a permutation of 0..n-1 is a ValueError.
        """
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}, got {list(perm)}")
        rows = [0] * self.n
        for a, row in enumerate(self.lt):
            rows[perm[a]] = _image(row, perm)
        return Poset(self.n, rows, _trusted=True)

    # -- covers and output ------------------------------------------------

    def covers(self):
        """Immediate-successor pairs (a, b): a < b with nothing in between."""
        return [
            (a, b)
            for a, row in enumerate(self.lt)
            for b in _bits(row)
            if not row & self._gt[b]
        ]

    def to_dot(self, labels=None):
        """DOT digraph whose edges are exactly the cover relation."""
        name = labels if labels is not None else [str(v) for v in range(self.n)]
        lines = ["digraph {", "  rankdir=BT;"]
        for v in range(self.n):
            lines.append(f'  "{name[v]}";')
        for a, b in self.covers():
            lines.append(f'  "{name[a]}" -> "{name[b]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- structural invariants --------------------------------------------

    def width(self):
        """Size of a maximum antichain (exhaustive search with pruning)."""
        return len(self.max_antichain())

    def max_antichain(self):
        """One maximum antichain, as a sorted list of elements."""
        full = (1 << self.n) - 1
        incomp = [full & ~(self.lt[v] | self._gt[v] | 1 << v) for v in range(self.n)]
        best = [0, 0]  # size, mask

        def grow(allowed, chosen, size):
            if size + allowed.bit_count() <= best[0]:
                return
            if not allowed:
                if size > best[0]:
                    best[0], best[1] = size, chosen
                return
            low = allowed & -allowed
            v = low.bit_length() - 1
            grow((allowed ^ low) & incomp[v], chosen | low, size + 1)
            grow(allowed ^ low, chosen, size)

        grow((1 << self.n) - 1, 0, 0)
        return [v for v in range(self.n) if best[1] >> v & 1]

    def find_forbidden_subposet(self):
        """An induced 2+2 or 3+1 witness, or None.

        Returns ("2+2", elems) or ("3+1", elems); the semiorders are exactly
        the posets in which neither pattern occurs.
        """
        for quad in itertools.combinations(range(self.n), 4):
            sub = self.induced(quad)
            rels = sub.relation_pairs()
            if len(rels) == 2:
                (a, b), (c, d) = rels
                if len({a, b, c, d}) == 4:
                    return ("2+2", quad)
            elif len(rels) == 3:
                touched = {v for pair in rels for v in pair}
                if len(touched) == 3:
                    return ("3+1", quad)
        return None

    def is_semiorder(self):
        return self.find_forbidden_subposet() is None

    # -- canonical form ---------------------------------------------------

    def twin_classes(self):
        """The classes of twins, each a tuple of elements in index order.

        Twins are elements with the same down-set and the same up-set; they
        are incomparable, every permutation of one class is an automorphism,
        and each class is an antichain module.  Classes are listed by their
        smallest element.
        """
        classes = {}
        for v, sets in enumerate(zip(self._gt, self.lt)):
            classes.setdefault(sets, []).append(v)
        return [tuple(members) for members in classes.values()]

    def canonical_form(self):
        """The canonical key and the number of automorphisms, |Aut(P)|.

        The order is taken modulo its twin classes: the quotient has one
        point per class, coloured by the class size t, and
        |Aut(P)| = prod(t!) * |Aut(coloured quotient)|.  The quotient is
        canonized by individualization-refinement with automorphism pruning
        (McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
        Comput. 60, 2014); see ``_canonical_code``.  The key is the
        quotient's canonical relation code with the sorted class sizes: the
        canonical order lists the quotient's points by ascending colour, so
        the sizes give each canonical point its colour, and two posets
        share a key exactly when they are isomorphic.
        """
        classes, code, automorphisms, _, _ = self._quotient_search()
        sizes = tuple(sorted(len(members) for members in classes))
        return (self.n, (code, sizes)), automorphisms

    def _quotient_search(self):
        """(classes, code, |Aut(P)|, order, generators) from one search.

        ``classes`` are the twin classes; the quotient's point i is the
        class ``classes[i]``, coloured by its size.  The code, the canonical
        order and the generators are ``_canonical_code``'s on the quotient.
        """
        classes = self.twin_classes()
        if len(classes) == self.n:
            down, up = self._gt, self.lt
        else:
            index = [0] * self.n
            for i, members in enumerate(classes):
                for v in members:
                    index[v] = i
            down = [_image(self._gt[members[0]], index) for members in classes]
            up = [_image(self.lt[members[0]], index) for members in classes]
        sizes = [len(members) for members in classes]
        code, automorphisms, order, generators = _canonical_code(down, up, sizes)
        for size in sizes:
            automorphisms *= math.factorial(size)
        return classes, code, automorphisms, order, generators

    def canonical_key(self):
        """A value equal across posets exactly when they are isomorphic.

        The key part of ``canonical_form``, for any poset up to
        ``MAX_ELEMENTS`` points.
        """
        return self.canonical_form()[0]

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poset) and self.n == other.n and self.lt == other.lt
        )

    def __hash__(self):
        return hash((self.n, self.lt))

    def __repr__(self):
        return f"Poset({self.n}, {self.relation_pairs()!r})"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(mask, pos):
    """The bitmask of pos[v] over the elements v of ``mask``."""
    image = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        image |= 1 << pos[bit.bit_length() - 1]
    return image


def _refine(cells, queue, down, up):
    """Split the ordered partition ``cells`` (bitmasks) until it is equitable.

    Each splitter S from ``queue`` splits every cell by how many points of
    S lie below and above each of its points.  The parts keep the cell's
    place, ordered by those counts, and join the queue.  Every choice
    depends on the partition and the order alone, so relabeling the input
    relabels the result.
    """
    m = len(down)
    count = len(cells)
    for splitter in queue:  # the queue grows as cells split
        if count == m:
            break
        refined = []
        for cell in cells:
            if cell & (cell - 1):
                parts = {}
                rest = cell
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    v = bit.bit_length() - 1
                    key = (down[v] & splitter).bit_count() << 5 | (up[v] & splitter).bit_count()
                    parts[key] = parts.get(key, 0) | bit
                if len(parts) > 1:
                    split = [parts[key] for key in sorted(parts)]
                    refined += split
                    count += len(split) - 1
                    queue += split
                    continue
            refined.append(cell)
        cells = refined
    return cells


def _orbit(v, generators):
    """The orbit of v, as a bitmask, under the group the permutations generate."""
    orbit = 1 << v
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for g in generators:
            w = g[u]
            if not orbit >> w & 1:
                orbit |= 1 << w
                frontier.append(w)
    return orbit


def _canonical_code(down, up, colours):
    """(code, |Aut|, order, generators) of a coloured poset, from one search.

    ``down`` and ``up`` are the strict down- and up-set bitmasks of points
    0..m-1.  The root of the search tree is the equitable refinement of the
    points grouped by ascending colour.  A node individualizes each point of
    its first cell of two or more points in turn and refines again; the
    leaves are the discrete partitions, each an order of the points listed
    by ascending colour, since every split keeps its cell's place.  A
    leaf's relation code chains the up-sets of its points in its order,
    each in leaf positions, and the least one is returned.  Two leaves with
    equal codes give an automorphism; the search then backs up to where
    their paths part, and a node skips each child that a known automorphism
    fixing the node's path maps to a child already explored.  The
    automorphisms found generate, along the first path v_1, v_2, ..., each
    stabilizer of v_1..v_(i-1), so |Aut| is the product of the orbit sizes
    of v_i under them, and they generate Aut.  Returned with the least code
    are the order of its leaf and the generators, each a list mapping a
    point to its image.
    """
    m = len(down)

    def code_of(order):
        pos = [0] * m
        for p, v in enumerate(order):
            pos[v] = p
        code = 0
        for v in order:
            code = code << m | _image(up[v], pos)
        return code

    groups = {}
    for v, colour in enumerate(colours):
        groups[colour] = groups.get(colour, 0) | 1 << v
    cells = [groups[colour] for colour in sorted(groups)]
    cells = _refine(cells, list(cells), down, up)
    if len(cells) == m:
        order = [cell.bit_length() - 1 for cell in cells]
        return code_of(order), 1, order, []
    generators = []
    first = best = None  # (code, path, order) of the first and the least leaf

    def visit(cells, path):
        """Search below one node; return the depth to resume at."""
        nonlocal first, best
        depth = len(path)
        for k, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [cell.bit_length() - 1 for cell in cells]
            code = code_of(order)
            if first is None:
                first = best = (code, path, order)
                return depth
            for known, known_path, known_order in (first, best):
                if code == known:
                    image = [0] * m
                    for a, b in zip(known_order, order):
                        image[a] = b
                    generators.append(image)
                    parted = 0
                    while path[parted] == known_path[parted]:
                        parted += 1
                    return parted
            if code < best[0]:
                best = (code, path, order)
            return depth
        explored = 0
        for v in _bits(cell):
            bit = 1 << v
            if explored and generators:
                fixing = [g for g in generators if all(g[u] == u for u in path)]
                if _orbit(v, fixing) & explored:
                    continue
            explored |= bit
            child = _refine(cells[:k] + [bit, cell ^ bit] + cells[k + 1:], [bit], down, up)
            resume = visit(child, path + [v])
            if resume < depth:
                return resume
        return depth

    visit(cells, [])
    path = first[1]
    automorphisms = 1
    for i, v in enumerate(path):
        fixing = [g for g in generators if all(g[u] == u for u in path[:i])]
        automorphisms *= _orbit(v, fixing).bit_count()
    return best[0], automorphisms, best[2], generators


def _validate(n, lt):
    if len(lt) != n:
        raise ValueError("relation table size mismatch")
    for a in range(n):
        if lt[a] >> a & 1:
            raise CycleError(f"element {a} below itself")
        if lt[a] >> n:
            raise ValueError("relation bits out of range")
    for a in range(n):
        row = lt[a]
        m = row
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            if lt[b] >> a & 1:
                raise CycleError(f"antisymmetry broken on ({a},{b})")
            if lt[b] & ~row:
                raise ValueError(f"relation not transitively closed at ({a},{b})")


def are_isomorphic(p, q):
    """Exact isomorphism test by canonical form."""
    if p.n != q.n:
        return False
    return p.canonical_key() == q.canonical_key()
