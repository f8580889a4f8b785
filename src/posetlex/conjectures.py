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
counted as 0) is kept behind ``strict``, False or True; under it no poset
with exactly three extensions can pass, so it is not the default.
"""

from collections import namedtuple

from . import linext
from .errors import ChainError, SizeCapError

#: Game-tree size cap for exact sorting cost.
SORT_COST_CAP = 8


class GpcBranch(namedtuple("GpcBranch", "result t1 second t2")):
    """One outcome of the first comparison.

    ``result`` is the first pair oriented (smaller, larger) for this
    outcome, ``second`` the oriented second pair, None when vacuous.
    """

    __slots__ = ()


class GpcWitness(namedtuple("GpcWitness", "first t0 branches strict", defaults=(False,))):
    """A gold partition witness: the first pair, e(P) and one GpcBranch per outcome."""

    __slots__ = ()

    def holds(self):
        return all(_partition_ok(self.t0, b.t1, b.t2, self.strict) for b in self.branches)

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


def _incomparable(poset, c, d):
    """Whether c and d are two points of P, incomparable in it."""
    if not (0 <= c < poset.n and 0 <= d < poset.n):
        return False
    return not (poset.lt[c] | poset._gt[c] | 1 << c) >> d & 1


def _is_pair(pair):
    """Whether ``pair`` is two integers, in a tuple or a list."""
    return (
        isinstance(pair, (tuple, list))
        and len(pair) == 2
        and isinstance(pair[0], int)
        and isinstance(pair[1], int)
    )


def _stays_incomparable(poset, x, y, c, d):
    """Whether c and d, incomparable in P, are still incomparable in P + x<y.

    c < d holds in P + x<y exactly when it holds in P, or c <= x and
    y <= d, so P's rows decide it without building the outcome.
    """
    low = poset._gt[x] | 1 << x
    high = poset.lt[y] | 1 << y
    return not (low >> c & 1 and high >> d & 1 or low >> d & 1 and high >> c & 1)


def _window(t0, t1, strict):
    """(lo, hi): the counts of a second pair that pass in a t1 outcome.

    A pair ordered c<d in ``before`` of the t1 extensions leaves
    t2 = max(before, t1 - before), so with room = t0 - t1 (less one when
    strict) it passes exactly when t1 - room <= before <= room, and
    0 < before < t1 keeps it incomparable in the outcome.  For t1 >= 2 the
    window is empty (lo > hi) exactly when room < ceil(t1/2), the least t2
    any second pair leaves.  A chain outcome (t1 = 1) takes the vacuous t2,
    which passes for every non-chain P (t0 >= 2): it accepts every pair.
    """
    if t1 == 1:
        return 0, 1
    room = t0 - t1 - strict
    return max(1, t1 - room), min(t1 - 1, room)


def _branch(result, t1, second, before, strict):
    """The GpcBranch for ``second``, which the outcome orders in ``before``."""
    if t1 == 1:
        return GpcBranch(result, 1, None, 0 if strict else 1)
    return GpcBranch(result, t1, second, max(before, t1 - before))


def _check_options(mode, strict):
    """Reject a mode other than the two readings, or a non-bool ``strict``."""
    if mode not in ("adaptive", "nonadaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    if strict is not False and strict is not True:
        raise ValueError(f"strict must be False or True, got {strict!r}")


def check_gpc(poset, mode="adaptive", strict=False):
    """Search for a gold-partition witness; None means the poset fails.

    First pairs are tried in ascending index order and the first full
    witness is returned, so the result is deterministic.  Adaptive mode
    takes the first admissible second pair of each outcome; nonadaptive
    mode one second pair, the first in ascending order, incomparable in and
    working for every non-chain outcome.  The scan is ``_search``, whose
    counts ``survey.sweep`` reads with no witness built.
    """
    _check_options(mode, strict)
    if poset.is_chain():
        raise ChainError("the gold partition conjecture concerns non-chains")
    found = _search(poset, mode == "adaptive", strict)
    if found is None:
        return None
    a, b, t0, t1, pick, before, pick2, before2 = found
    branches = (
        _branch((a, b), t1, pick, before, strict),
        _branch((b, a), t0 - t1, pick2, before2, strict),
    )
    return GpcWitness((a, b), t0, branches, strict)


def _search(poset, adaptive, strict):
    """``check_gpc``'s scan: (a, b, t0, t1, pick, before, pick2, before2).

    (a, b) is the first pair, t0 = e(P), t1 = e(P + a<b); the outcomes a<b
    and b<a order their second pairs ``pick`` and ``pick2`` in ``before``
    and ``before2`` extensions; None when no first pair passes.  Counts
    are fields of the kept matrices of P and P + a<b (``_kept_matrix``);
    P + b<a's are P's less P + a<b's.  A first pair with an empty window
    (``_window``) is skipped before its outcome's matrix is read.
    """
    matrix = linext.pair_counts(poset)
    whole, t0, width, field = matrix.columns, matrix.total, matrix.width, (1 << matrix.width) - 1
    pairs = poset._kept_pairs()
    for a, b in pairs:
        t1 = whole[b] >> width * a & field
        (lo, hi), (lo2, hi2) = _window(t0, t1, strict), _window(t0, t0 - t1, strict)
        if lo > hi or lo2 > hi2:
            continue  # no second pair can satisfy the inequality
        part = linext._kept_matrix(poset, ((a, b),))
        columns, step, mask = part.columns, part.width, (1 << part.width) - 1
        pick = pick2 = None
        if adaptive:
            for c, d in pairs:
                before = columns[d] >> step * c & mask
                if lo <= before <= hi:
                    pick = c, d
                    break
            for c, d in pairs if pick else ():
                before2 = (whole[d] >> width * c & field) - (columns[d] >> step * c & mask)
                if lo2 <= before2 <= hi2:
                    pick2 = c, d
                    break
        else:
            for c, d in pairs:
                before = columns[d] >> step * c & mask
                before2 = (whole[d] >> width * c & field) - before
                if lo <= before <= hi and lo2 <= before2 <= hi2:
                    pick = pick2 = c, d
                    break
        if pick2 is not None:
            return a, b, t0, t1, pick, before, pick2, before2
    return None


def _recount(poset, results, seconds):
    """e(P) and each branch's (t1, t2), from one packed pass over P's lattice.

    ``results`` orients the first pair once each way; ``seconds[i]`` is
    branch i's second pair, or None, which gets t2 = None.  The pass
    (``linext._counts``) counts e(P), the first branch's t1 and one
    orientation of each second pair; each comparison's other outcome is
    the rest (e(P) less t1, or t1 less the one counted).
    """
    givens = [(), (results[0],)]
    givens += [(r, s) for r, s in zip(results, seconds) if s is not None]
    found = linext._counts(poset, givens)
    total, k = found[0], 2
    counts = []
    for t1, second in zip((found[1], total - found[1]), seconds):
        if second is None:
            counts.append((t1, None))
        else:
            before = found[k]
            counts.append((t1, max(before, t1 - before)))
            k += 1
    return total, counts


def verify_gpc_witness(poset, witness):
    """Recount every t-value of a witness from scratch and recheck it.

    The first pair must be two incomparable points of P, the two branches
    must orient it one each way, and a recorded second pair must be two
    points incomparable in the outcome, read off P's rows; every pair must
    be two integers, in a tuple or a list (as ``to_json_dict`` writes it).
    The recounts are not the matrices the search reads, so they check it
    independently: e(P) and every branch's (t1, t2) come from one packed
    pass over P's lattice (``_recount``).  A branch with no second pair is
    accepted when its outcome is a chain (t1 = 1, the vacuous t2) or,
    counting the outcome's pairs, when one achieves at most the recorded
    t2: the form lifted witnesses take on branches whose component part is
    already sorted.
    """
    results = [branch.result for branch in witness.branches]
    seconds = [branch.second for branch in witness.branches]
    if not (
        _is_pair(witness.first)
        and all(map(_is_pair, results))
        and all(_is_pair(s) for s in seconds if s is not None)
    ):
        return False
    a, b = witness.first
    if sorted(map(tuple, results)) != sorted([(a, b), (b, a)]) or not _incomparable(poset, a, b):
        return False
    for result, second in zip(results, seconds):
        if second is not None and not (
            _incomparable(poset, *second) and _stays_incomparable(poset, *result, *second)
        ):
            return False
    total, counts = _recount(poset, results, seconds)
    if total != witness.t0:
        return False
    for branch, (t1, t2) in zip(witness.branches, counts):
        if t1 != branch.t1:
            return False
        if t2 is not None:
            ok = t2 == branch.t2
        elif t1 == 1:
            ok = branch.t2 == (0 if witness.strict else 1)
        else:
            # max(before, t1 - before) <= t2 for one of the outcome's pairs
            ok = any(
                t1 - branch.t2
                <= linext._counts(poset, [(branch.result, (c, d))])[0]
                <= branch.t2
                for c, d in poset.incomparable_pairs()
                if _stays_incomparable(poset, *branch.result, c, d)
            )
        if not (ok and _partition_ok(witness.t0, t1, branch.t2, witness.strict)):
            return False
    return True


def sort_cost(poset):
    """Minimum worst-case comparisons to sort the poset to a chain.

    Exact minimax over comparison game trees, searched branch-and-bound
    (Peczarski, "New results in minimum-comparison sorting", Algorithmica
    40, 2004).  A node reads e and, for every pair, the larger outcome t
    off its pair-count matrix, and tries pairs by ascending t: a pair costs
    at least 1 + ceil(log2 t), so the scan stops once that reaches the best
    cost found, or once the best meets the node's own bound ceil(log2 e).
    The larger outcome is solved first, and the smaller only when the pair
    can still win.  Two closed forms end the search: e <= 3 costs e - 1,
    and a most balanced pair with t <= 3 gives exactly t.  Every other
    non-root node's cost is memoized up to isomorphism, for this call only;
    from e = 7 on every pair leaves t >= ceil(e/2) >= 4, past the closed
    forms, so such a node reads the memo before its pair-count pass.
    """
    if poset.n > SORT_COST_CAP:
        raise SizeCapError(f"sort_cost capped at {SORT_COST_CAP} elements")
    memo = {}

    def outcome(node, a, b, e):
        """The cost of ``node`` + a<b, which has e extensions."""
        return e - 1 if e <= 3 else search(node.with_relation(a, b), e, False)

    def search(node, e, root):
        key = None if root or e < 7 else node.canonical_key()
        if key in memo:
            return memo[key]
        columns, width, _ = linext.pair_counts(node)
        field = (1 << width) - 1
        pairs = []
        for a, b in node._kept_pairs():
            before = columns[b] >> width * a & field
            pairs.append((max(before, e - before), a, b, before))
        pairs.sort()
        if pairs[0][0] <= 3:
            return pairs[0][0]
        if key is None and not root:
            key = node.canonical_key()
            if key in memo:
                return memo[key]
        floor = (e - 1).bit_length()
        best = e  # each comparison removes an extension, so e - 1 suffice
        for t, a, b, before in pairs:
            if 1 + (t - 1).bit_length() >= best:
                break
            big, small = ((a, b), (b, a)) if before == t else ((b, a), (a, b))
            worst = 1 + outcome(node, *big, t)
            if worst < best:
                best = min(best, max(worst, 1 + outcome(node, *small, e - t)))
                if best == floor:
                    break
        if not root:
            memo[key] = best
        return best

    total = linext.pair_counts(poset).total
    return total - 1 if total <= 3 else search(poset, total, True)


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
    return _gold_bound(linext.count_extensions(poset), cost)


def _gold_bound(e, cost):
    """``gold_bound_holds`` for a poset with e extensions and sort cost C."""
    fc, fc1 = _fib(cost), _fib(cost - 1)
    a = 2 * e - 2 * fc1 - fc
    return a >= 0 and a * a >= 5 * fc * fc


def information_lower_bound(poset):
    """ceil(log2 e(P)): comparisons needed by any sorting strategy."""
    e = linext.count_extensions(poset)
    return (e - 1).bit_length()
