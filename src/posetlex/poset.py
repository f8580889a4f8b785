"""Finite strict posets stored as transitively closed bitmask relations.

Elements are always the dense indices 0..n-1; callers keep their own label
tables if they need names.  The strict relation is a tuple of integers,
``lt[a]`` having bit ``b`` set exactly when ``a < b``.  Every constructor
returns a relation that is irreflexive, antisymmetric and transitively
closed, and posets are immutable afterwards, so instances are safe to
share, hash and use as dictionary keys.  One derived value is cached on
the instance: ``linext.pair_counts`` keeps the pair-count matrix it
computes in ``_pair_counts``, which equality and hashing ignore.
"""

from __future__ import annotations

import itertools

from .errors import (
    AlreadyComparableError,
    CycleError,
    DuplicateValueError,
    SizeCapError,
    ZeroSizeError,
)

#: Largest poset the package accepts (exhaustive kernels are tuned for this).
MAX_ELEMENTS = 24

#: Largest poset for which the canonical form is available.
ISO_CAP = 10


def _check_size(n):
    """Reject a size outside 1..MAX_ELEMENTS before any work on n points."""
    if n <= 0:
        raise ZeroSizeError("poset needs at least one element")
    if n > MAX_ELEMENTS:
        raise SizeCapError(f"poset size {n} exceeds cap {MAX_ELEMENTS}")


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

    __slots__ = ("n", "lt", "_hash", "_gt", "_pair_counts")

    def __init__(self, n, lt, _trusted=False):
        _check_size(n)
        lt = tuple(lt)
        if not _trusted:
            _validate(n, lt)
        self.n = n
        self.lt = lt
        self._hash = hash((n, lt))
        gt = [0] * n
        for a in range(n):
            row = lt[a]
            while row:
                low = row & -row
                gt[low.bit_length() - 1] |= 1 << a
                row ^= low
        self._gt = tuple(gt)
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
        return cls(n, rows)

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
        return bool(self.lt[a] >> b & 1)

    def above_mask(self, a):
        """Bitmask of elements strictly above a."""
        return self.lt[a]

    def below_mask(self, a):
        """Bitmask of elements strictly below a."""
        return self._gt[a]

    def incomparable_mask(self, a):
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
        """Each unordered incomparable pair once, as (a, b) with a < b."""
        out = []
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if not (self.lt[a] >> b & 1 or self.lt[b] >> a & 1):
                    out.append((a, b))
        return out

    def is_chain(self):
        n = self.n
        return sum(m.bit_count() for m in self.lt) == n * (n - 1) // 2

    def with_relation(self, a, b):
        """Smallest poset extending this one with ``a < b``."""
        if a == b or self.is_lt(a, b) or self.is_lt(b, a):
            raise AlreadyComparableError(f"{a} and {b} are already comparable")
        rows = list(self.lt)
        rows[a] |= 1 << b
        _close(self.n, rows)
        return Poset(self.n, rows, _trusted=True)

    def dual(self):
        """The order with every relation reversed."""
        return Poset(self.n, self._gt, _trusted=True)

    def induced(self, elements):
        """Subposet on the given elements, relabeled in the order given."""
        elements = list(elements)
        rows = []
        for a in elements:
            row = 0
            for j, b in enumerate(elements):
                if a != b and self.lt[a] >> b & 1:
                    row |= 1 << j
            rows.append(row)
        return Poset(len(elements), rows, _trusted=True)

    def relabel(self, perm):
        """Image under the bijection old -> perm[old]."""
        rows = [0] * self.n
        for a in range(self.n):
            row = self.lt[a]
            new = 0
            while row:
                low = row & -row
                new |= 1 << perm[low.bit_length() - 1]
                row ^= low
            rows[perm[a]] = new
        return Poset(self.n, rows, _trusted=True)

    # -- covers and output ------------------------------------------------

    def covers(self):
        """Immediate-successor pairs (a, b): a < b with nothing in between."""
        out = []
        for a in range(self.n):
            row = self.lt[a]
            m = row
            while m:
                low = m & -m
                b = low.bit_length() - 1
                m ^= low
                if not (row & self._gt[b]):
                    out.append((a, b))
        return out

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
        incomp = [self.incomparable_mask(v) for v in range(self.n)]
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

    def canonical_form(self):
        """The canonical key and the number of automorphisms, |Aut(P)|.

        Iterated degree refinement splits the elements into ordered classes,
        then every class-respecting relabeling is scored; the key is the
        minimum relation encoding.  The relabelings that reach it are one
        of them composed with each automorphism (automorphisms keep every
        class), so their number is |Aut(P)|.  Capped at ISO_CAP elements.
        """
        n = self.n
        if n > ISO_CAP:
            raise SizeCapError(f"canonical form capped at {ISO_CAP} elements")
        color = [
            (self.below_mask(v).bit_count(), self.above_mask(v).bit_count())
            for v in range(n)
        ]
        while True:
            sig = [
                (
                    color[v],
                    tuple(sorted(color[u] for u in _bits(self.below_mask(v)))),
                    tuple(sorted(color[u] for u in _bits(self.above_mask(v)))),
                )
                for v in range(n)
            ]
            palette = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = [(palette[sig[v]],) for v in range(n)]
            if len(set(new)) == len(set(color)):
                color = new
                break
            color = new
        classes = {}
        for v in range(n):
            classes.setdefault(color[v], []).append(v)
        ordered = [classes[c] for c in sorted(classes)]
        best, hits = None, 0
        for pieces in itertools.product(*(itertools.permutations(g) for g in ordered)):
            old_order = [v for piece in pieces for v in piece]
            pos = [0] * n
            for new_idx, old in enumerate(old_order):
                pos[old] = new_idx
            code = 0
            for old in range(n):
                row = self.lt[old]
                base = pos[old] * n
                while row:
                    low = row & -row
                    code |= 1 << (base + pos[low.bit_length() - 1])
                    row ^= low
            if best is None or code < best:
                best, hits = code, 1
            elif code == best:
                hits += 1
        return (n, best), hits

    def canonical_key(self):
        """A value equal across posets exactly when they are isomorphic.

        The key part of ``canonical_form``; intended for memoization on
        small posets only.
        """
        return self.canonical_form()[0]

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poset) and self.n == other.n and self.lt == other.lt
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset({self.n}, {self.relation_pairs()!r})"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    """Exact isomorphism test by canonical form (small posets only)."""
    if p.n != q.n:
        return False
    return p.canonical_key() == q.canonical_key()
