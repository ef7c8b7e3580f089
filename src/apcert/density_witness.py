"""Las Vegas witness for {0, ..., m} inside the 2k-fold sumset of a dense set.

Build: given {0,1} in A and k >= 2/rho_m(A), store A and the amplification
fold k_inner = ceil(2 / rho_m(A)). The k_inner-fold greedy sumset then has
density >= 3/4 over [1, m], so a uniformly sampled split z = x + (z - x) has
both halves in the greedy sumset with probability >= 1/2.

Query: sample x in [1, z] until x and z - x both pass the k_inner-fold greedy
membership test, then join the two greedy certificates. Always correct; only
the number of sampling rounds is random (2 in expectation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CompactSolution,
    InternalContract,
    OutOfRange,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    ceil_log2,
    density_with_argmin,
    merge_counts,
)
from .greedy import kfold_greedy_steps


@dataclass(frozen=True)
class DensityWitness:
    """Answers every z in [0, m] with a certificate of fold budget 2*k_inner."""

    base: SortedIntSet
    m: int
    k_inner: int

    @property
    def fold_budget(self) -> int:
        return 2 * self.k_inner

    def query(self, z: int, rng: RandomSource) -> CompactSolution:
        """Certificate for z as a sum of 2*k_inner elements of the base (zeros pad)."""
        counts = merge_counts(self.query_parts(z, rng))
        return CompactSolution.from_counts(counts, z, self.fold_budget)

    def query_parts(self, z: int, rng: RandomSource) -> list[tuple[int, int]]:
        """Raw greedy runs for z (values may repeat across the two halves);
        total multiplicity is exactly 2*k_inner."""
        if not 0 <= z <= self.m:
            raise OutOfRange(f"z={z} not in [0, {self.m}]")
        k = self.k_inner
        if z == 0:
            return [(0, 2 * k)]
        cap = 64 * ceil_log2(self.m + 2)
        for _ in range(cap):
            x = rng.uniform_int(1, z)
            left = kfold_greedy_steps(self.base, k, x)
            if left is None:
                continue
            right = kfold_greedy_steps(self.base, k, z - x)
            if right is None:
                continue
            return left + right
        raise InternalContract(
            f"sampling cap {cap} exhausted at z={z}; "
            "the density precondition check must be wrong"
        )


def build_density_witness(a: SortedIntSet, m: int, k: int) -> DensityWitness:
    """Validate the density precondition exactly and fix the amplification fold."""
    if 0 not in a or 1 not in a:
        raise PreconditionViolated("membership", "build needs {0,1} in A")
    if m < 1:
        raise PreconditionViolated("interval-bound-positive", f"m={m}")
    if len(a) and a.max > m:
        raise PreconditionViolated("elements-within-interval", f"max={a.max} > m={m}")
    rho, z_bad = density_with_argmin(a, m)
    if rho * k < 2:
        raise PreconditionViolated(
            "density", f"rho_m(A) = {rho} < 2/k at z' = {z_bad} (k={k})"
        )
    k_inner = ceil_div(2 * rho.denominator, rho.numerator)
    return DensityWitness(a, m, k_inner)
