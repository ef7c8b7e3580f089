"""Constant profiles for the subset-sum and dense pipelines.

The `paper` profile enforces the published inequalities verbatim. They are
unsatisfiable at desk scale (the length cap alone forces n into the tens of
thousands), so the `tuned` profile substitutes small configurable constants:
sizing rules still scale the same way, every feasibility threshold becomes
advisory (construction is attempted and reports Exhausted on genuine failure),
and correctness rests entirely on certificate verification, which is never
relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConstantsProfile:
    name: str
    # feasibility thresholds are hard preconditions iff enforce_caps is set
    enforce_caps: bool
    # caps the pair budget of bridge/ladder coresets (|T*| <= pair_cap * bound)
    # and the thresholds bound <= |T| / (pair_cap * log2(2|T|))
    pair_cap: int
    # gap window: qualifying gaps lie in [l*d/(window_lo_div*gamma), l*d/window_div],
    # and gamma = m/n + l/(window_div*n)
    window_div: int
    window_lo_div: int
    # every augmentation round requires l >= min_len_factor * m / n
    min_len_factor: int
    # case-1 extraction target: case1_pair_factor * d * log2(d) pairs
    case1_pair_factor: int
    # availability reserve: |A| >= n + reserve_factor*d*log2(d) + window_lo_div*gamma
    reserve_factor: int
    # final coreset bound: |A'| <= coreset_factor * l * log2(n) / n
    coreset_factor: int
    # overall length cap: l <= n^2 / (length_cap_factor * log2(2n))
    length_cap_factor: int
    # dense subset sum: almost-divisor threshold alpha, density delta,
    # and the region constant (lambda' = lambda_c * log2(2N) for sets)
    alpha_c: int
    delta_c: int
    lambda_c: int


PAPER = ConstantsProfile(
    name="paper",
    enforce_caps=True,
    pair_cap=1000,
    window_div=4000,
    window_lo_div=8000,
    min_len_factor=16000,
    case1_pair_factor=20000,
    reserve_factor=40000,
    coreset_factor=30000,
    length_cap_factor=5 * 10**8,
    alpha_c=42480,
    delta_c=1699200,
    lambda_c=169920,
)

TUNED = ConstantsProfile(
    name="tuned",
    enforce_caps=False,
    pair_cap=8,
    window_div=8,
    window_lo_div=16,
    min_len_factor=32,
    case1_pair_factor=8,
    reserve_factor=16,
    coreset_factor=32,
    length_cap_factor=64,
    alpha_c=4,
    delta_c=8,
    lambda_c=4,
)

PROFILES = {p.name: p for p in (PAPER, TUNED)}
