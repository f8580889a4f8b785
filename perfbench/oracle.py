"""Independent reference computations for checking posetlex outputs.

Nothing here imports posetlex.  An order is held as ``below[v]``, the
bitmask of elements strictly below v, built by depth-first reachability
rather than by Warshall closure.  Extensions are counted by a memoised
recursion over the set of elements still to be placed, which shares no
code or method with the ideal-level dynamic program of ``linext``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class Order:
    """A strict partial order on 0..n-1 given by generating pairs a < b."""

    def __init__(self, n, pairs):
        self.n = n
        succ = [set() for _ in range(n)]
        for a, b in pairs:
            succ[a].add(b)
        above = [0] * n
        for v in range(n):
            seen, stack = set(), list(succ[v])
            while stack:
                w = stack.pop()
                if w not in seen:
                    seen.add(w)
                    stack.extend(succ[w])
            if v in seen:
                raise ValueError(f"relations close to a cycle through {v}")
            above[v] = sum(1 << w for w in seen)
        self.above = tuple(above)
        self.below = tuple(
            sum(1 << u for u in range(n) if above[u] >> v & 1) for v in range(n)
        )

    def lt(self, a, b):
        return bool(self.above[a] >> b & 1)

    def comparable(self, a, b):
        return a == b or self.lt(a, b) or self.lt(b, a)

    def pairs(self):
        return [(a, b) for a in range(self.n) for b in range(self.n) if self.lt(a, b)]

    def plus(self, a, b):
        """The order generated by this one and a < b."""
        return Order(self.n, self.pairs() + [(a, b)])

    def is_chain(self):
        return all(
            self.comparable(a, b) for a in range(self.n) for b in range(a + 1, self.n)
        )

    def relation(self):
        """The strict relation as a frozenset of pairs."""
        return frozenset(self.pairs())


def compose(base, i, component):
    """base with point i replaced by component, laid out like compose_at.

    Base points before i keep their index, the component takes i..i+m-1
    and later base points shift up by m - 1.
    """
    m = component.n
    block = range(i, i + m)

    def image(v):
        if v == i:
            return block
        return [v if v < i else v + m - 1]

    pairs = [(x, y) for a, b in base.pairs() for x in image(a) for y in image(b)]
    pairs += [(i + a, i + b) for a, b in component.pairs()]
    return Order(base.n + m - 1, pairs)


def count(order):
    """e(P): number of linear extensions."""
    below = order.below

    @lru_cache(maxsize=None)
    def ways(remaining):
        if not remaining:
            return 1
        total, rest = 0, remaining
        while rest:
            low = rest & -rest
            rest ^= low
            if below[low.bit_length() - 1] & remaining == 0:
                total += ways(remaining ^ low)
        return total

    return ways((1 << order.n) - 1)


def pair_counts(order):
    """{(x, y): number of extensions placing x before y} for x != y.

    Every extension places x right after some prefix I (a down-set with
    x minimal outside it).  With down(I) ways to order I and up(R) ways to
    order the rest R, #(x before y) sums down(I) * up(R - x) over those I
    that do not contain y.
    """
    n = order.n
    below, above = order.below, order.above
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def up(remaining):
        if not remaining:
            return 1
        total, rest = 0, remaining
        while rest:
            low = rest & -rest
            rest ^= low
            if below[low.bit_length() - 1] & remaining == 0:
                total += up(remaining ^ low)
        return total

    @lru_cache(maxsize=None)
    def down(ideal):
        if not ideal:
            return 1
        total, rest = 0, ideal
        while rest:
            low = rest & -rest
            rest ^= low
            if above[low.bit_length() - 1] & ideal == 0:
                total += down(ideal ^ low)
        return total

    ideals, frontier = {0}, [0]
    while frontier:
        ideal = frontier.pop()
        for x in range(n):
            if not ideal >> x & 1 and below[x] & ~ideal == 0:
                grown = ideal | 1 << x
                if grown not in ideals:
                    ideals.add(grown)
                    frontier.append(grown)
    counts = {(x, y): 0 for x in range(n) for y in range(n) if x != y}
    for ideal in ideals:
        for x in range(n):
            if ideal >> x & 1 or below[x] & ~ideal:
                continue
            ways = down(ideal) * up(full & ~ideal & ~(1 << x))
            for y in range(n):
                if y != x and not ideal >> y & 1:
                    counts[x, y] += ways
    return counts


def delta(order, counts, total):
    """max over incomparable pairs of min(P(x<y), P(y<x))."""
    return max(
        Fraction(min(counts[x, y], counts[y, x]), total)
        for x in range(order.n)
        for y in range(x + 1, order.n)
        if not order.comparable(x, y)
    )


def witness_problem(order, witness, total=None):
    """Recount a gold-partition witness (its JSON form); None when it holds.

    Every t-value is recounted and must equal the recorded one, the pairs
    must be incomparable where the search could compare them, and each
    branch must satisfy t0 >= t1 + t2.  A branch without a second pair
    must record t2 = t1: on a chain outcome both are 1, and a branch lifted
    from a chain outcome of a factor has both equal to e(P) / e(factor).
    Returns a one-line description of the first problem found.
    """
    t0 = count(order) if total is None else total
    if witness["t0"] != t0:
        return f"t0 {witness['t0']} != e(P) {t0}"
    first = set(witness["first"])
    for branch in witness["branches"]:
        a, b = branch["result"]
        if {a, b} != first or order.comparable(a, b):
            return f"first pair {branch['result']} is not the witness's open pair"
        outcome = order.plus(a, b)
        t1 = count(outcome)
        if branch["second"] is None:
            t2 = t1
        else:
            c, d = branch["second"]
            if outcome.comparable(c, d):
                return f"second pair {branch['second']} already comparable"
            t2 = max(count(outcome.plus(c, d)), count(outcome.plus(d, c)))
        if (branch["t1"], branch["t2"]) != (t1, t2):
            return f"branch {branch['result']} records {branch['t1']},{branch['t2']}, recount {t1},{t2}"
        if t0 < t1 + t2:
            return f"branch {branch['result']}: {t0} < {t1} + {t2}"
    return None


def witness_exists(order, mode):
    """Exhaustive search: does any gold-partition witness exist?

    ``mode`` is "adaptive" (each outcome may pick its own second pair) or
    "nonadaptive" (one second pair, other than the first, for every
    outcome that is not a chain).  A chain outcome needs no second pair
    and counts t2 = 1.
    """
    t0 = count(order)
    n = order.n
    open_pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if not order.comparable(a, b)]

    def fits(outcome, t1, c, d):
        """Does second pair (c, d) keep t0 >= t1 + t2 in this outcome?"""
        if outcome.is_chain():
            return t0 >= t1 + 1
        if outcome.comparable(c, d):
            return False
        return t0 >= t1 + max(count(outcome.plus(c, d)), count(outcome.plus(d, c)))

    for a, b in open_pairs:
        outcomes = [(o, count(o)) for o in (order.plus(a, b), order.plus(b, a))]
        if mode == "adaptive":
            found = all(any(fits(o, t1, c, d) for c, d in open_pairs) for o, t1 in outcomes)
        else:
            # With no other open pair both outcomes are chains, and fits()
            # ignores the second pair.
            seconds = [p for p in open_pairs if p != (a, b)] or [(a, b)]
            found = any(all(fits(o, t1, c, d) for o, t1 in outcomes) for c, d in seconds)
        if found:
            return True
    return False


def fib_power_at_most(cost, e):
    """Exact test of phi**cost <= e, by comparing with Fibonacci bounds.

    phi**c = F(c) * phi + F(c-1), so the test is e - F(c-1) >= F(c) * phi,
    that is 2 * (e - F(c-1)) - F(c) >= F(c) * sqrt(5), squared when both
    sides are nonnegative.
    """
    f_prev, f = 1, 0  # F(-1), F(0)
    for _ in range(cost):
        f_prev, f = f, f_prev + f
    lhs = 2 * (e - f_prev) - f
    return lhs >= 0 and lhs * lhs >= 5 * f * f


def parse(text):
    """Parse the one-poset-per-file text format into an Order."""
    n, pairs, perm = None, [], None
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "n":
            n = int(fields[1])
        elif fields[0] == "rel":
            pairs.append((int(fields[1]), int(fields[2])))
        elif fields[0] == "perm":
            perm = [int(v) for v in fields[1:]]
        else:
            raise ValueError(f"unknown line {raw!r}")
    if perm is not None:
        pairs = [
            (i, j)
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] < perm[j]
        ]
    return Order(n, pairs)


def read(path):
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read())


def write(order, path):
    """Write an order as ``rel`` lines (all relations, not just covers)."""
    lines = [f"n {order.n}"] + [f"rel {a} {b}" for a, b in order.pairs()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
