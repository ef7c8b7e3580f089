"""The four benchmark workloads: seeded inputs, the build phase, the op stream
and the independent check of every answer.

A workload makes its inputs from the seed when it is created, outside any
timed region. `build_instance` runs the pipeline build for one instance; only
the build call itself is timed, and the benchmark's own check of the built
object follows it. `ops` yields an endless seeded stream of ops, round-robin
over the built instances, and `execute` runs one op and checks its answer with
code that does not share the path under test. It returns (label, reason):
reason is None for a correct answer, else a short code. `final_checks` runs
checks that are too slow for every op once the timed loop has ended.

Program calls go through module attributes (`sumset_ap.ap_in_kfold_sumset`,
not a name imported here) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import random
from time import perf_counter
from types import SimpleNamespace

from apcert import core, dense, subsetsum_ap, sumset_ap, unbounded
from apcert.profiles import TUNED


class WrongAnswer(Exception):
    """A built object failed the benchmark's own check."""


def _permutation(rnd: random.Random, size: int):
    """Seeded bijection c -> (a*c + b) mod size on [0, size): every term index
    is visited once before any repeats."""
    a = rnd.randrange(1, size)
    while math.gcd(a, size) != 1:
        a = rnd.randrange(1, size)
    b = rnd.randrange(size)
    c = 0
    while True:
        yield (a * c + b) % size
        c += 1


class Workload:
    """Base class; subclasses define the inputs, one build and one op."""

    name = ""
    # set-up is repeated this many times per run and the median reported
    setup_reps = 5
    # exact counts are taken over this many traced ops
    count_ops = 1000
    # (description, "build" or "op", label, low, high): reference figures
    # from the ROADMAP re-anchor (Python 3.11.7, 2 cores) for the sanity line
    references: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.rnd = random.Random(f"{self.name}/{seed}")
        # (label, values, m or 0) per instance
        self.inputs: list[tuple[str, list[int], int]] = self.make_inputs()
        self.built: list = []

    def make_inputs(self) -> list[tuple[str, list[int], int]]:
        raise NotImplementedError

    def build_one(self, values: list[int], param: int):
        raise NotImplementedError

    def check_build(self, label: str, values: list[int], param: int, obj) -> SimpleNamespace:
        """Check a built object independently; return the op state."""
        raise NotImplementedError

    def instance_ops(self, st: SimpleNamespace, rnd: random.Random):
        """Ops on one instance; by default every term index of a progression
        of st.size terms once, in a seeded order."""
        for j in _permutation(rnd, st.size):
            yield st, j

    def execute(self, op) -> tuple[str, str | None]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Untimed checks after the query phase; returns the failures."""
        return []

    def exact_counts(self, ops: list) -> dict[str, float]:
        """Workload-side counts over a fixed prefix of ops."""
        return {"augment.layers": self._mean_layers()}

    def _mean_layers(self) -> float:
        layers = [len(st.witness.layers) for st in self.built]
        return sum(layers) / len(layers) if layers else 0.0

    def describe(self) -> list[str]:
        return [f"{label}: n={len(values)} max={max(values)}" + (f" m={param}" if param else "")
                for label, values, param in self.inputs]

    def release(self) -> None:
        self.built = []

    def build_instance(self, label, values, param) -> tuple[float, str | None]:
        """Build one instance and append its op state to `built`. Returns
        (seconds in the build call, None) or, when the build raised,
        (seconds, failure). Raises WrongAnswer if the built object is wrong."""
        t0 = perf_counter()
        try:
            obj = self.build_one(values, param)
        except Exception as exc:  # every refusal or crash fails the run
            return perf_counter() - t0, f"{label}: build raised {exc!r}"
        dt = perf_counter() - t0
        self.built.append(self.check_build(label, values, param, obj))
        return dt, None

    def ops(self):
        streams = [
            self.instance_ops(st, random.Random(f"{self.name}/{self.seed}/ops/{st.label}"))
            for st in self.built
        ]
        while True:
            for s in streams:
                yield next(s)


# ---------------------------------------------------------------------------
# kfold-certify
# ---------------------------------------------------------------------------

class KfoldCertify(Workload):
    """ap_in_kfold_sumset at m=10^6, then distinct term indices per build."""

    name = "kfold-certify"
    count_ops = 2000
    M = 10**6
    references = (
        ("R1 build", "build", "R1", 0.07, 0.07),
        ("R2 build", "build", "R2", 0.9, 0.9),
        ("R1 query+check", "op", "R1", 30e-6, 30e-6),
        ("R2 query+check", "op", "R2", 65e-6, 65e-6),
    )

    def make_inputs(self):
        m = self.M
        r1 = sorted({0, 1} | set(self.rnd.sample(range(2, m + 1), m // 50)))
        r2 = [v for v in range(m + 1) if v % 6 == 0 or v % 10 == 0 or v % 15 == 0]
        return [("R1", r1, m), ("R2", r2, m)]

    def build_one(self, values, m):
        k = -(-(m + 1) // len(values))
        return sumset_ap.ap_in_kfold_sumset(values, m, k)

    def check_build(self, label, values, m, res):
        ap = res.ap
        if ap.diff != 1 or ap.length != m or res.witness.ap != ap:
            raise WrongAnswer(f"{label}: progression {ap} is not of diff 1 and length {m}")
        if res.fold_budget > 332 * res.k_eff:
            raise WrongAnswer(f"{label}: fold budget {res.fold_budget} above 332*{res.k_eff}")
        return SimpleNamespace(
            label=label, witness=res.witness, base=core.SortedIntSet(tuple(values)),
            start=ap.start, budget=res.fold_budget, size=m + 1,
        )

    def execute(self, op):
        st, j = op
        rng = core.RandomSource(self.seed).derive("query", j)
        sol = st.witness.query(j, rng)
        reason = core.check_solution(st.base, sol)
        if reason is None and sol.target != st.start + j:
            reason = "target-mismatch"
        if reason is None and sol.fold_budget != st.budget:
            reason = "budget-mismatch"
        return st.label, reason


# ---------------------------------------------------------------------------
# subsetsum-certify
# ---------------------------------------------------------------------------

class SubsetsumCertify(Workload):
    """ap_in_subset_sums (tuned, ell=m) on five inputs, then subset-sum terms."""

    name = "subsetsum-certify"
    count_ops = 500
    references = (("cons-1e4 build", "build", "cons-1e4", 0.14, 0.14),)

    def make_inputs(self):
        rnd = self.rnd
        out = []
        for m, tag in ((10**4, "1e4"), (3 * 10**4, "3e4")):
            out.append((f"cons-{tag}", list(range(1, m + 1)), m))
        for m, tag in ((10**4, "1e4"), (3 * 10**4, "3e4")):
            out.append((f"rand50-{tag}", sorted(rnd.sample(range(1, m + 1), m // 2)), m))
        m = 10**4
        out.append(("rand30-1e4", sorted(rnd.sample(range(1, m + 1), 3 * m // 10)), m))
        return out

    def build_one(self, values, m):
        return subsetsum_ap.ap_in_subset_sums(values, m, TUNED, self.seed)

    def check_build(self, label, values, m, res):
        ap = res.ap
        if ap.length != m or res.witness.ap != ap:
            raise WrongAnswer(f"{label}: progression {ap} is not of length {m}")
        if not set(res.coreset.elems) <= set(values):
            raise WrongAnswer(f"{label}: coreset is not a subset of the input")
        return SimpleNamespace(
            label=label, witness=res.witness, coreset=res.coreset,
            start=ap.start, diff=ap.diff, size=m + 1,
        )

    def execute(self, op):
        st, j = op
        rng = core.RandomSource(self.seed).derive("query", j)
        sol = st.witness.query(j, rng)
        reason = core.check_solution(st.coreset, sol)
        if reason is None and sol.target != st.start + j * st.diff:
            reason = "target-mismatch"
        if reason is None and sol.fold_budget != 0:
            reason = "not-subset-sum-mode"
        return st.label, reason


# ---------------------------------------------------------------------------
# unbounded-stream
# ---------------------------------------------------------------------------

class UnboundedStream(Workload):
    """UnboundedSolver on three inputs, then many targets above threshold."""

    name = "unbounded-stream"
    setup_reps = 51
    # long enough that inner residues repeat (a_n is at most 5003)
    count_ops = 20000
    TARGET_SPAN = 10**9
    INPUTS = (
        ("U1", (1000, 1001, 1003, 1007, 1013)),
        ("U2", (1002, 1004, 1010, 1013)),
        ("U3", (4002, 4006, 4010, 4014, 4018, 5003)),
    )
    references = tuple(
        (f"{label} solve+check", "op", label, 20e-6, 45e-6) for label, _ in INPUTS
    )

    def make_inputs(self):
        return [(label, list(values), 0) for label, values in self.INPUTS]

    def build_one(self, values, _):
        return unbounded.UnboundedSolver(tuple(values))

    def check_build(self, label, values, _, solver):
        return SimpleNamespace(
            label=label, solver=solver, witness=solver.ka.witness,
            values=tuple(values), threshold=solver.threshold,
        )

    def instance_ops(self, st, rnd):
        while True:
            yield st, st.threshold + rnd.randrange(self.TARGET_SPAN)

    def execute(self, op):
        st, t = op
        rng = core.RandomSource(self.seed).derive("unbounded", t)
        sol = st.solver.solve(t, rng)
        reason = None
        if sol.target != t:
            reason = "target-mismatch"
        elif tuple(a for a, _ in sol.multipliers) != st.values:
            reason = "values-mismatch"
        elif any(type(x) is not int or x < 0 for _, x in sol.multipliers):
            reason = "negative-multiplier"
        elif sum(a * x for a, x in sol.multipliers) != t:
            reason = "sum-mismatch"
        return st.label, reason

    def exact_counts(self, ops):
        """Distinct inner indices r = (val - s) mod a_n over the solves, from
        the solver's public attributes: what a per-residue memo could save."""
        seen: dict[str, set[int]] = {}
        for st, t in ops:
            s = st.solver
            d, a_n = s.d, s.a_n
            i_t = (t % d) * s.inv_an % d if d > 1 else 0
            val = (t - i_t * a_n) // d
            seen.setdefault(st.label, set()).add((val - s.ka.ap.start) % a_n)
        out = super().exact_counts(ops)
        out["unbounded.distinct_residue_ratio"] = (
            sum(len(v) for v in seen.values()) / len(ops) if ops else 0.0
        )
        return out


# ---------------------------------------------------------------------------
# dense-decide
# ---------------------------------------------------------------------------

def residue_reach(values, modulus: int) -> bytearray:
    """reach[r] = 1 iff some subset of `values` sums to r modulo `modulus`.

    The benchmark's own DP, kept apart from apcert.dense on purpose."""
    reach = bytearray(modulus)
    reach[0] = 1
    hit = 1
    for v in values:
        if hit == modulus:
            break
        vm = v % modulus
        if vm == 0:
            continue
        old = bytes(reach)
        for r in range(modulus):
            if old[r] and not reach[(r + vm) % modulus]:
                reach[(r + vm) % modulus] = 1
                hit += 1
    return reach


class DenseDecide(Workload):
    """build_rpg (tuned) on three inputs, then decides; every tenth target of
    an instance is also searched when the answer is yes.

    The residue DP confirms a "no" and catches a "no" that should be "yes",
    but where gamma is 1 every residue is reachable, so a wrong "yes" shows
    only when it is searched. Hence, besides every tenth target, the first
    FINAL_SEARCHES "yes" targets of each instance that were not searched are
    searched after the timed loop."""

    name = "dense-decide"
    setup_reps = 3
    count_ops = 300
    SEARCH_EVERY = 10
    FINAL_SEARCHES = 12
    references = (("D3 decide+search+check", "op", "D3+search", 8e-3, 8e-3),)

    def make_inputs(self):
        d1 = sorted(self.rnd.sample(range(1, 60_001), 45_000))
        d2 = list(range(2, 10**5 + 1, 2))
        d3 = list(range(1, 10**5 + 1))
        return [("D1", d1, 0), ("D2", d2, 0), ("D3", d3, 0)]

    def build_one(self, values, _):
        decomp = dense.build_rpg(values, TUNED, self.seed)
        return decomp, decomp.region()

    def check_build(self, label, values, _, built):
        decomp, (lo, hi) = built
        if decomp.gamma < 1 or lo > hi:
            raise WrongAnswer(f"{label}: gamma {decomp.gamma}, region [{lo}, {hi}]")
        return SimpleNamespace(
            label=label, decomp=decomp, witness=decomp.progression.witness,
            lo=lo, hi=hi, gamma=decomp.gamma, members=frozenset(values),
            reach=residue_reach(values, decomp.gamma), unsearched_yes=[],
        )

    def instance_ops(self, st, rnd):
        # a fixed cadence rather than a coin keeps the search share, which
        # sets ops_per_s and op_p99_us, the same from seed to seed
        c = 0
        while True:
            yield st, rnd.randint(st.lo, st.hi), c % self.SEARCH_EVERY == 0
            c += 1

    def execute(self, op):
        st, t, search = op
        yes = dense.dense_decide(st.decomp, t)
        if yes != bool(st.reach[t % st.gamma]):
            return st.label, "decision-contradicts-residue-dp"
        if not yes:
            return st.label, None
        if not search:
            if len(st.unsearched_yes) < self.FINAL_SEARCHES:
                st.unsearched_yes.append(t)
            return st.label, None
        return st.label + "+search", self._search_and_check(st, t)

    def _search_and_check(self, st, t) -> str | None:
        rng = core.RandomSource(self.seed).derive("dense", t)
        subset = dense.dense_search(st.decomp, t, rng)
        if len(set(subset)) != len(subset):
            return "repeated-element"
        if not all(v in st.members for v in subset):
            return "element-not-in-input"
        if sum(subset) != t:
            return "sum-mismatch"
        return None

    def final_checks(self):
        failures = []
        for st in self.built:
            for t in st.unsearched_yes:
                try:
                    reason = self._search_and_check(st, t)
                except Exception as exc:  # a "yes" that cannot be searched is wrong
                    reason = f"raised {exc!r}"
                if reason is not None:
                    failures.append(f"{st.label} final search of {t}: {reason}")
        return failures

    def exact_counts(self, ops):
        out = super().exact_counts(ops)
        yes = sum(st.reach[t % st.gamma] for st, t, _ in ops)
        out["dense.yes_ratio"] = yes / len(ops) if ops else 0.0
        out["dense.gamma"] = max((st.gamma for st in self.built), default=0)
        return out


WORKLOADS = {
    w.name: w for w in (KfoldCertify, SubsetsumCertify, UnboundedStream, DenseDecide)
}
