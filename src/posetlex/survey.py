"""Exhaustive desk-scale sweeps over all small posets, one per isomorphism class.

In the default adaptive non-strict mode the paper's theorem settles most
classes: if Q satisfies the gold partition conjecture, so does P o_i Q.  A
class with a proper autonomous set inducing a non-chain is such a sum,
whose factor was checked earlier in the sweep, so ``sweep`` searches only
the classes with no such set until some class fails.
"""

import math
from collections import namedtuple

from . import conjectures, linext
from .decompose import _covered
from .errors import PosetError, SizeCapError, ZeroSizeError
from .generate import poset_classes

#: The largest sweep, in points.  With the cap lifted, generation to 9
#: points takes 3.0-4.1 s and ``sweep(9)`` 14-16 s, both at 118 MB peak RSS
#: (CPU time, Python 3.11, one core of a shared 2-vCPU VM).
SWEEP_CAP = 8

#: Posets on n = 1..10 points, up to isomorphism (OEIS A000112) and labeled
#: (OEIS A001035): every sweep checks the classes it met against both.
CLASSES = (1, 2, 5, 16, 63, 318, 2045, 16999, 183231, 2567284)
LABELED = (1, 3, 19, 219, 4231, 130023, 6129859, 431723379, 44511042511, 6611065248783)


class SweepSummary(
    namedtuple(
        "SweepSummary",
        "max_n mode total chains checked gpc_failures one_third_failures unbalanced_witnesses",
    )
):
    """What ``sweep`` found: ``total``, ``chains`` and ``checked`` count
    labeled posets, and each failure list holds one poset per failing class."""

    __slots__ = ()

    @property
    def clean(self):
        return not (self.gpc_failures or self.one_third_failures or self.unbalanced_witnesses)

    def to_json_dict(self):
        return {
            "max_n": self.max_n,
            "mode": self.mode,
            "total_posets": self.total,
            "chains": self.chains,
            "non_chains_checked": self.checked,
            "gpc_failures": len(self.gpc_failures),
            "one_third_failures": len(self.one_third_failures),
            "unbalanced_witness_first_pairs": len(self.unbalanced_witnesses),
        }


def sweep(max_n, mode="adaptive", strict=False):
    """Run the GPC and 1/3-2/3 checks over every labeled poset on <= max_n.

    Both checks are isomorphism invariant, so each isomorphism class is
    checked once, on its representative, and counted n!/|Aut| times, once
    per labeling.  A class is checked by ``check_gpc``'s search, whose
    counts t0 and t1 tell whether the first pair is balanced, and no
    witness is built.  Each failure list holds one representative per
    failing class.

    In adaptive non-strict mode, while every failure list is empty, a
    class R with an autonomous set M of 2..n-1 points inducing a non-chain
    (``decompose._covered``) is not searched, since it cannot fail.  R is
    B o_i Q with Q = R|M on fewer points, and ``poset_classes`` yields the
    classes by size, so Q's class came earlier and passed; by the paper's
    theorem Q's witness lifts to R.  Every witness has a balanced first
    pair (``conjectures``), so R fails neither check.  Once a class fails,
    every later class is searched, since it might have that class as a
    factor.  Nonadaptive and strict sweeps search every class: a
    nonadaptive witness need not lift, and the strict lift is checked on
    instances but not proven.

    Adaptive non-strict sweeps have found no failure in reach; on <= 7
    points adaptive strict fails on 60 classes, nonadaptive on 29 and
    nonadaptive strict on 78.  A sweep needs max_n >= 1: posets have at
    least one point.  The number of classes and of labelings on each size
    are checked against ``CLASSES`` and ``LABELED``; a mismatch, which
    would mean the generator lost or repeated a class, raises PosetError.
    """
    conjectures._check_options(mode, strict)
    if max_n < 1:
        raise ZeroSizeError(f"sweep needs at least 1 element, got {max_n}")
    if max_n > SWEEP_CAP:
        raise SizeCapError(f"sweep capped at {SWEEP_CAP} elements")
    adaptive = mode == "adaptive"
    covers = adaptive and not strict
    total = chains = checked = 0
    gpc_failures, one_third_failures, unbalanced = [], [], []
    classes, labeled = [0] * max_n, [0] * max_n
    for poset, automorphisms in poset_classes(max_n):
        labelings = math.factorial(poset.n) // automorphisms
        total += labelings
        classes[poset.n - 1] += 1
        labeled[poset.n - 1] += labelings
        if poset.is_chain():
            chains += labelings
            continue
        checked += labelings
        if covers and _covered(poset):
            continue  # passes both checks by the paper's theorem
        found = conjectures._search(poset, adaptive, strict)
        balanced = False
        if found is None:
            gpc_failures.append(poset)
        else:
            # P(first pair) is t1/t0, with found = (a, b, t0, t1, ...).
            balanced = linext._balanced(found[3], found[2])
            if not balanced:
                unbalanced.append(poset)
        # A balanced first pair is a balanced pair; search only without one.
        # Without one the class fails a check, and covered classes are
        # searched from here on.
        if not balanced:
            covers = False
            if linext.balanced_pair(poset) is None:
                one_third_failures.append(poset)
    for n in range(max_n):
        if (classes[n], labeled[n]) != (CLASSES[n], LABELED[n]):
            raise PosetError(
                f"sweep met {classes[n]} classes and {labeled[n]} labeled posets on"
                f" {n + 1} points; OEIS A000112 and A001035 give {CLASSES[n]} and {LABELED[n]}"
            )
    return SweepSummary(
        max_n, mode, total, chains, checked, gpc_failures, one_third_failures, unbalanced
    )
