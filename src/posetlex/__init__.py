"""Exact linear-extension analytics on finite posets.

Balanced pairs, the gold partition inequality, lexicographic sums and
their locality/lifting properties, order-autonomous decomposition, and
exact sorting cost, all in arbitrary-precision integer arithmetic.
"""

from .conjectures import (
    GpcBranch,
    GpcWitness,
    check_gpc,
    gold_bound_holds,
    sort_cost,
    verify_gpc_witness,
)
from .decompose import (
    AutonomousSet,
    Decomposition,
    autonomous_sets,
    decompose,
    gpc_via_decomposition,
    is_autonomous,
)
from .errors import (
    AlreadyComparableError,
    ArityMismatchError,
    CapExceededError,
    ChainError,
    ComponentError,
    CycleError,
    DuplicateValueError,
    InvalidWitnessError,
    PosetError,
    RemarkViolationError,
    SizeCapError,
    ZeroSizeError,
)
from .lexsum import (
    GapProfile,
    LexSumSpec,
    LocalityTable,
    chain_substitution_probability,
    compose_at,
    gap_profile,
    lex_sum,
    lift_gpc_witness,
    lift_witness,
    locality_table,
    multiset_coefficient,
    prob_preservation,
    restrict_to_component,
    verify_divisibility,
)
from .linext import (
    LinearExtension,
    PairCountMatrix,
    balanced_pair,
    count_extensions,
    delta,
    enumerate_extensions,
    pair_counts,
    prob,
)
from .poset import Poset, are_isomorphic
from .survey import SweepSummary, sweep

__all__ = [name for name in dir() if not name.startswith("_")]
