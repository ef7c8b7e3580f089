"""Arithmetic progressions in k-fold sumsets and subset sums, with witnesses.

Every constructed progression comes with a queryable witness: term index in,
certified decomposition into base-set elements out. Certificates are checked
by an independent verifier; randomness only ever affects running time.
"""

from .augment import solve_residue_coefficient
from .core import (
    ApcertError,
    ArithProgression,
    CompactSolution,
    EmptySet,
    Exhausted,
    InternalContract,
    NegativeInput,
    OutOfRange,
    OutOfRegion,
    OverflowRisk,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    check_solution,
    gcd_all,
    normalize,
)
from .dense import build_rpg, dense_decide, dense_search
from .profiles import PAPER, PROFILES, TUNED, ConstantsProfile
from .subsetsum_ap import SubsetSumApResult, ap_in_subset_sums
from .sumset_ap import KfoldApResult, ap_in_kfold_sumset
from .unbounded import UnboundedSolver

__all__ = [
    "ApcertError",
    "ArithProgression",
    "CompactSolution",
    "ConstantsProfile",
    "EmptySet",
    "Exhausted",
    "InternalContract",
    "KfoldApResult",
    "NegativeInput",
    "OutOfRange",
    "OutOfRegion",
    "OverflowRisk",
    "PAPER",
    "PROFILES",
    "PreconditionViolated",
    "RandomSource",
    "SortedIntSet",
    "SubsetSumApResult",
    "TUNED",
    "UnboundedSolver",
    "ap_in_kfold_sumset",
    "ap_in_subset_sums",
    "build_rpg",
    "check_solution",
    "dense_decide",
    "dense_search",
    "gcd_all",
    "normalize",
    "solve_residue_coefficient",
]

__version__ = "0.1.0"
