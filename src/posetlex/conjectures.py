"""Decision procedures: balanced pairs, gold partition, sorting cost.

The gold partition check looks for two consecutive comparisons whose
remaining-extension counts split like the golden identity phi^2 = phi + 1:
for every outcome of the first comparison, t0 >= t1 + t2, where t1 counts
the extensions surviving that outcome and t2 the worst result of a second
comparison chosen inside it.  When the first comparison already leaves a
chain, the second comparison is vacuous and t2 = 1 (the one extension).
Witnesses in this form always have a balanced first pair: a non-chain
branch has t2 >= ceil(t1/2), forcing t1 <= 2*t0/3, and a chain branch
forces t0 <= 3.

Two readings of "consecutive" are implemented: adaptive (the second pair
may depend on the first result, the default) and nonadaptive (one second
pair serves both results).  A strict variant (t0 > t1 + t2, vacuous t2
counted as 0) is kept behind ``strict``; note that under it no poset with
exactly three extensions can pass, so it is not the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linext
from .errors import ChainError, SizeCapError

#: Game-tree size cap for exact sorting cost.
SORT_COST_CAP = 8

_sort_cost_memo = {}


@dataclass(frozen=True)
class GpcBranch:
    """One outcome of the first comparison."""

    result: tuple  # oriented first pair (smaller, larger) for this outcome
    t1: int
    second: tuple | None  # oriented second pair, None when vacuous
    t2: int


@dataclass(frozen=True)
class GpcWitness:
    first: tuple
    t0: int
    branches: tuple  # two GpcBranch values, one per outcome
    strict: bool = False

    def holds(self):
        if self.strict:
            return all(self.t0 > b.t1 + b.t2 for b in self.branches)
        return all(self.t0 >= b.t1 + b.t2 for b in self.branches)

    def to_json_dict(self):
        return {
            "first": list(self.first),
            "t0": self.t0,
            "strict": self.strict,
            "branches": [
                {
                    "result": list(b.result),
                    "t1": b.t1,
                    "second": list(b.second) if b.second else None,
                    "t2": b.t2,
                }
                for b in self.branches
            ],
        }


def _partition_ok(t0, t1, t2, strict):
    return t0 > t1 + t2 if strict else t0 >= t1 + t2


def worst_count(poset, c, d):
    """e of the larger outcome of comparing c with d: the t2 that pair leaves."""
    return max(
        linext.count_extensions(poset.with_relation(c, d)),
        linext.count_extensions(poset.with_relation(d, c)),
    )


def _least_t2(t1, strict):
    """A lower bound on t2 over every second comparison in a t1 outcome.

    A second pair splits the t1 extensions into two nonempty counts, so the
    larger is at least ceil(t1/2).  A chain outcome (t1 = 1) has only the
    vacuous count: 1, or 0 under the strict reading.
    """
    if t1 == 1:
        return 0 if strict else 1
    return (t1 + 1) // 2


def _admissible_seconds(outcome, t0, t1, strict):
    """{second: t2} for every second comparison satisfying the inequality.

    Pairs come in ascending index order.  For chains the second comparison
    is vacuous, keyed None: it leaves the one surviving extension, so
    t2 = 1 (0 under the strict reading, which shifts every vacuous count
    down by one).
    """
    if outcome.is_chain():
        t2 = _least_t2(t1, strict)
        return {None: t2} if _partition_ok(t0, t1, t2, strict) else {}
    counts = linext.pair_counts(outcome).counts
    seconds = {}
    for c, d in outcome.incomparable_pairs():
        t2 = max(counts[c][d], counts[d][c])
        if _partition_ok(t0, t1, t2, strict):
            seconds[(c, d)] = t2
    return seconds


def check_gpc(poset, mode="adaptive", strict=False):
    """Search for a gold-partition witness; None means the poset fails.

    First pairs are tried in ascending index order and the first full
    witness is returned, so the result is deterministic.  Adaptive mode
    takes the first admissible second pair of each outcome.  In nonadaptive
    mode a single second pair, the first in ascending order, must be
    incomparable in, and work for, every non-chain outcome.  Every t-value
    is read off the pair-count matrices of P and of its outcome posets.
    A first pair one of whose outcomes has t0 < t1 + ceil(t1/2) cannot
    pass, since every second pair leaves t2 >= ceil(t1/2), so it is
    skipped without a pass over that outcome.
    """
    if mode not in ("adaptive", "nonadaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    if poset.is_chain():
        raise ChainError("the gold partition conjecture concerns non-chains")
    matrix = linext.pair_counts(poset)
    t0 = matrix.total
    for a, b in poset.incomparable_pairs():
        # t1 + _least_t2(t1) grows with t1, so the larger outcome decides.
        t1 = max(matrix.counts[a][b], matrix.counts[b][a])
        if not _partition_ok(t0, t1, _least_t2(t1, strict), strict):
            continue  # no second pair can satisfy the inequality
        options = []
        for x, y in ((a, b), (b, a)):
            t1 = matrix.counts[x][y]
            seconds = _admissible_seconds(poset.with_relation(x, y), t0, t1, strict)
            if not seconds:
                break
            options.append(((x, y), t1, seconds))
        if len(options) < 2:
            continue
        if mode == "adaptive":
            picks = [next(iter(seconds)) for _, _, seconds in options]
        else:
            shared = [
                pair
                for pair in poset.incomparable_pairs()
                if all(pair in seconds or None in seconds for _, _, seconds in options)
            ]
            if not shared:
                continue
            picks = [None if None in seconds else shared[0] for _, _, seconds in options]
        branches = tuple(
            GpcBranch(result, t1, pick, seconds[pick])
            for (result, t1, seconds), pick in zip(options, picks)
        )
        return GpcWitness((a, b), t0, branches, strict)
    return None


def verify_gpc_witness(poset, witness):
    """Recount every t-value of a witness from scratch and recheck it.

    The recounts run the extension count on each outcome poset, not the
    pair-count pass the search reads, so they check it independently.

    A branch with no second pair is accepted when the outcome is a chain
    (the vacuous count), or when some actual second comparison achieves at
    most the recorded t2 -- the form lifted witnesses take on branches
    whose component part is already sorted.
    """
    if linext.count_extensions(poset) != witness.t0:
        return False
    seen = set()
    for branch in witness.branches:
        a, b = branch.result
        seen.add(frozenset(branch.result))
        if poset.is_lt(a, b) or poset.is_lt(b, a):
            return False
        outcome = poset.with_relation(a, b)
        if linext.count_extensions(outcome) != branch.t1:
            return False
        if branch.second is None:
            if outcome.is_chain():
                if branch.t2 != (0 if witness.strict else 1):
                    return False
            elif not _second_achievable(outcome, branch.t2):
                return False
            t2 = branch.t2
        else:
            c, d = branch.second
            if outcome.is_lt(c, d) or outcome.is_lt(d, c):
                return False
            t2 = worst_count(outcome, c, d)
            if t2 != branch.t2:
                return False
        if not _partition_ok(witness.t0, branch.t1, t2, witness.strict):
            return False
    return len(seen) == 1 and frozenset(witness.first) in seen


def _second_achievable(outcome, budget):
    """Does some comparison in ``outcome`` leave at most ``budget`` either way?"""
    return any(
        worst_count(outcome, c, d) <= budget for c, d in outcome.incomparable_pairs()
    )


def sort_cost(poset):
    """Minimum worst-case comparisons to sort the poset to a chain.

    Exact minimax over comparison game trees, memoized up to isomorphism.
    """
    if poset.n > SORT_COST_CAP:
        raise SizeCapError(f"sort_cost capped at {SORT_COST_CAP} elements")
    return _sort_cost(poset)


def _sort_cost(poset):
    if poset.is_chain():
        return 0
    key = poset.canonical_key()
    hit = _sort_cost_memo.get(key)
    if hit is not None:
        return hit
    best = None
    for a, b in poset.incomparable_pairs():
        worst = 1 + max(
            _sort_cost(poset.with_relation(a, b)),
            _sort_cost(poset.with_relation(b, a)),
        )
        if best is None or worst < best:
            best = worst
    _sort_cost_memo[key] = best
    return best


def _fib(k):
    """Fibonacci with F(1) = F(2) = 1, extended so that F(-1) = 1, F(0) = 0."""
    if k == -1:
        return 1
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def gold_bound_holds(poset):
    """Exact integer test of e(P) >= phi**C(P).

    Writing phi**C = F(C)*phi + F(C-1), the inequality holds iff
    A = 2e - 2F(C-1) - F(C) is nonnegative and A**2 >= 5*F(C)**2.
    """
    cost = sort_cost(poset)
    e = linext.count_extensions(poset)
    fc, fc1 = _fib(cost), _fib(cost - 1)
    a = 2 * e - 2 * fc1 - fc
    return a >= 0 and a * a >= 5 * fc * fc


def information_lower_bound(poset):
    """ceil(log2 e(P)): comparisons needed by any sorting strategy."""
    e = linext.count_extensions(poset)
    return (e - 1).bit_length()
