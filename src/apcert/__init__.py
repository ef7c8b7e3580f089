"""Arithmetic progressions in k-fold sumsets and subset sums, with witnesses.

Every constructed progression comes with a queryable witness: term index in,
certified decomposition into base-set elements out. Certificates are checked
by an independent verifier; randomness only ever affects running time.
"""

from .core import (
    ApcertError,
    ArithProgression,
    CapExceeded,
    CompactSolution,
    EmptySet,
    Exhausted,
    InternalContract,
    MultiplicityExceeded,
    NegativeInput,
    OutOfRange,
    OutOfRegion,
    OverflowRisk,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    TooSmall,
    check_solution,
    density,
    gcd_all,
    normalize,
    shift_scale_normalize,
    solve_residue_coefficient,
    verify_solution,
)
from .dense import build_rpg, dense_decide, dense_search
from .profiles import PAPER, TUNED, ConstantsProfile, profile_by_name
from .subsetsum_ap import SubsetSumApResult, ap_in_subset_sums
from .sumset_ap import KfoldApResult, ap_in_kfold_sumset
from .unbounded import UnboundedSolver, solve_unbounded

__all__ = [
    "ApcertError",
    "ArithProgression",
    "CapExceeded",
    "CompactSolution",
    "ConstantsProfile",
    "EmptySet",
    "Exhausted",
    "InternalContract",
    "KfoldApResult",
    "MultiplicityExceeded",
    "NegativeInput",
    "OutOfRange",
    "OutOfRegion",
    "OverflowRisk",
    "PAPER",
    "PreconditionViolated",
    "RandomSource",
    "SortedIntSet",
    "SubsetSumApResult",
    "TooSmall",
    "TUNED",
    "UnboundedSolver",
    "ap_in_kfold_sumset",
    "ap_in_subset_sums",
    "build_rpg",
    "check_solution",
    "dense_decide",
    "dense_search",
    "density",
    "gcd_all",
    "normalize",
    "profile_by_name",
    "shift_scale_normalize",
    "solve_residue_coefficient",
    "solve_unbounded",
    "verify_solution",
]

__version__ = "0.1.0"
