"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Several criteria fan out across processes; everything remains seeded and
deterministic.
"""

import itertools
import json
import math
import os
import random
import time
from math import gcd
from multiprocessing import get_context

from apcert.cli import main, verify_terms
from apcert.core import (
    Exhausted,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    gcd_all,
)
from apcert.dense import build_rpg, dense_decide, dense_search
from apcert.profiles import PAPER, TUNED
from apcert.subsetsum_ap import ap_in_subset_sums, coreset_size_bound
from apcert.sumset_ap import Side, ap_in_kfold_sumset, find_dense_endpoint
from apcert.unbounded import UnboundedSolver
from oracle import (
    brute_kfold,
    brute_subset_sums,
    brute_unbounded,
    greedy_sumset,
    kfold_greedy_query,
    verify_solution,
)

WORKERS = min(8, os.cpu_count() or 1)
S = SortedIntSet.from_iterable


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -------------------------------------------------------------------------
# 1. Greedy-density inequality, exhaustive over [0, 8]
# -------------------------------------------------------------------------

def test_criterion_1_greedy_density_inequality():
    t0 = time.time()
    top = 8
    # densities as (num, den) pairs per bitmask over [0, top]
    masks_a = sorted({m | 2 for m in range(1 << (top + 1))})  # 1 in A
    masks_b = sorted({m | 1 for m in range(1 << (top + 1))})

    def prefix_counts(mask):
        counts = [0] * (top + 1)  # counts[z] = |mask interval [1, z]|
        c = 0
        for z in range(1, top + 1):
            c += mask >> z & 1
            counts[z] = c
        return counts

    def dens(counts, z):
        bn, bd = counts[z], z
        for zp in range(1, z):
            n = counts[zp]
            if n * bd < bn * zp:
                bn, bd = n, zp
        return bn, bd

    pc = {m: prefix_counts(m) for m in range(1 << (top + 1))}
    dens_tab = {}
    for m in range(1 << (top + 1)):
        c = pc[m]
        dens_tab[m] = [None] + [dens(c, z) for z in range(1, top + 1)]

    low_mask = (1 << (top + 1)) - 1
    violations = 0
    checked = 0
    for ma in masks_a:
        elems = [i for i in range(top + 1) if ma >> i & 1]
        gaps = [
            (elems[i], elems[i + 1] - elems[i]) for i in range(len(elems) - 1)
        ] + [(elems[-1], top + 2)]
        for mb in masks_b:
            cmask = 0
            for a, gap in gaps:
                cmask |= (mb & ((1 << min(gap, top + 1)) - 1)) << a
            ctab = dens_tab[cmask & low_mask]
            atab, btab = dens_tab[ma], dens_tab[mb]
            for z in range(1, top + 1):
                an, ad = atab[z]
                bn, bd = btab[z]
                cn, cd = ctab[z]
                checked += 1
                # cn/cd >= an/ad + bn/bd - (an/ad)(bn/bd), cross-multiplied
                if cn * ad * bd < cd * (an * bd + bn * ad - an * bn):
                    violations += 1
    dt = time.time() - t0
    report(
        1, "greedy-density-inequality",
        violations == 0 and dt < 10,
        f"{checked} comparisons, {violations} violations, {dt:.1f}s",
    )


# -------------------------------------------------------------------------
# 2. k-fold greedy query vs materialized set, plus the amplification bound
# -------------------------------------------------------------------------

def test_criterion_2_kfold_oracle_equivalence():
    from oracle import density

    violations = 0
    sets = 0
    for extra in range(0, 4):
        for combo in itertools.combinations(range(2, 11), extra):
            a = S({0, 1} | set(combo))
            sets += 1
            rho = {z: density(a, z) for z in range(1, 41)}
            cur = SortedIntSet((0,))
            for k in range(1, 5):
                cur = greedy_sumset(a, cur)
                cur = S(e for e in cur if e <= 40)
                for z in range(0, 10 * k + 1):
                    sol = kfold_greedy_query(a, k, z)
                    if (sol is not None) != (z in cur or (z == 0 and 0 in cur)):
                        violations += 1
                    if sol is not None and not verify_solution(a, sol):
                        violations += 1
                for z in range(1, 41):
                    if density(cur, z) < 1 - (1 - rho[z]) ** k:
                        violations += 1
    report(2, "kfold-greedy-oracle-equivalence", violations == 0,
           f"{sets} sets, k<=4, {violations} violations")


# -------------------------------------------------------------------------
# 3. Sumset progressions at desk scale: 50 random instances
# -------------------------------------------------------------------------

def _gen_sumset_instance(rnd):
    k = rnd.choice([10, 100, 1000])
    lo = math.log10(max(3 * k, 100))
    m = int(10 ** rnd.uniform(lo, 5))
    m = min(m, 10**5)
    n = ceil_div(m + 1, k)
    while True:
        elems = {0}
        while len(elems) < n:
            elems.add(rnd.randint(1, m))
        a = S(elems)
        if gcd_all(a) == 1:
            return a, m, k


def test_criterion_3_sumset_ap_desk_scale():
    rnd = random.Random(2024)
    worst = 0.0
    total_draws = 0
    total_checked = 0
    ok = True
    detail = ""
    for trial in range(50):
        a, m, k = _gen_sumset_instance(rnd)
        # the process's own CPU seconds, so other load on the host does not count
        t0 = time.process_time()
        res = ap_in_kfold_sumset(a, m, k)
        if res.ap.length != m or res.ap.diff != 1:
            ok, detail = False, f"instance {trial}: bad progression {res.ap}"
            break
        summary = verify_terms(res.witness, a, 1000 + trial, range(m + 1))
        dt = time.process_time() - t0
        worst = max(worst, dt)
        total_draws += summary["sampling_draws"]
        total_checked += summary["checked"]
        if summary["passed"] != m + 1:
            ok, detail = False, f"instance {trial}: {summary['failures'][:3]}"
            break
        if res.fold_budget > 332 * k:
            ok, detail = False, f"instance {trial}: budget {res.fold_budget} > 332k"
            break
        if dt >= 5.0:
            ok, detail = False, f"instance {trial}: {dt:.2f}s (m={m}, k={k})"
            break
    mean_rounds = total_draws / max(1, total_checked)
    if ok and mean_rounds > 4:
        ok, detail = False, f"mean sampling rounds {mean_rounds:.2f} > 4"
    report(3, "sumset-ap-desk-scale", ok,
           detail or f"50 instances, worst {worst:.2f}s, mean rounds {mean_rounds:.2f}")


# -------------------------------------------------------------------------
# 4. Tiny exhaustive containment in the brute-force k-fold sumset
# -------------------------------------------------------------------------

def _check_tiny_chunk(bitss):
    violations = 0
    count = 0
    for bits in bitss:
        vals = [0] + [i for i in range(1, 15) if bits >> i & 1]
        a = S(vals)
        if len(a) < 2 or gcd_all(a) != 1:
            continue
        m = a.max
        k = ceil_div(m + 1, len(a))
        res = ap_in_kfold_sumset(a, m, k)
        oracle = brute_kfold(a, 332 * res.k_eff, res.ap.last)
        count += 1
        for t in res.ap.terms():
            if t not in oracle:
                violations += 1
    return count, violations


def test_criterion_4_tiny_exhaustive_containment():
    t0 = time.time()
    all_bits = list(range(1 << 14))
    chunks = [all_bits[i::WORKERS] for i in range(WORKERS)]
    if WORKERS > 1:
        with get_context("fork").Pool(WORKERS) as pool:
            results = pool.map(_check_tiny_chunk, chunks)
    else:
        results = [_check_tiny_chunk(all_bits)]
    count = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    report(4, "tiny-exhaustive-containment", violations == 0,
           f"{count} normalized sets, {violations} violations, {time.time()-t0:.1f}s")


# -------------------------------------------------------------------------
# 5. Dense-endpoint scan satisfies the full quantifier
# -------------------------------------------------------------------------

def test_criterion_5_endpoint_scan_quantifier():
    rnd = random.Random(99)
    violations = 0
    for _ in range(10**4):
        m = rnd.randint(1, 2000)
        k = rnd.choice([1, 2, 3, 5, 10, 50])
        need = ceil_div(m + 1, k)
        if need > m + 1:
            continue
        n = rnd.randint(need, min(m + 1, need + 30))
        elems = sorted(rnd.sample(range(0, m + 1), n))
        a = SortedIntSet(tuple(elems))
        u, side = find_dense_endpoint(a, m, k)
        member = bytearray(m + 2)
        for e in elems:
            member[e] = 1
        if side is Side.LEFT:
            if not (-1 <= u and 2 * u <= m):
                violations += 1
                continue
            # running |A[u+1, v]| for v = u+1, ..., m
            counts = itertools.accumulate(member[u + 1:m + 1])
            widths = range(1, m - u + 1)
        else:
            if not (2 * u >= m and u <= m + 1):
                violations += 1
                continue
            # running |A[v, u-1]| for v = u-1, ..., 0
            counts = itertools.accumulate(reversed(member[0:u]))
            widths = range(1, u + 1)
        if not all(2 * k * c >= w for c, w in zip(counts, widths)):
            violations += 1
    report(5, "endpoint-scan-quantifier", violations == 0,
           f"10^4 instances, {violations} violations")


# -------------------------------------------------------------------------
# 6. Subset-sum progressions under the tuned profile
# -------------------------------------------------------------------------

def _gen_subset_instance(idx):
    rnd = random.Random(5000 + idx)
    if idx % 2 == 0:
        m = rnd.randint(2000, 10000)
        return list(range(1, m + 1)), m, True
    m = rnd.randint(2000, 10000)
    n = rnd.randint(ceil_div(m, 2), m)
    return sorted(rnd.sample(range(1, m + 1), n)), m, False


def _check_subset_instance(idx):
    a, ell, consecutive = _gen_subset_instance(idx)
    n = len(a)
    try:
        res = ap_in_subset_sums(a, ell, TUNED, seed=idx)
    except Exhausted as exc:
        return ("exhausted", consecutive, str(exc)[:60])
    summary = verify_terms(res.witness, res.coreset, idx, range(res.ap.length + 1))
    if summary["passed"] != res.ap.length + 1:
        return ("certfail", consecutive, str(summary["failures"][:2]))
    if res.ap.diff * n > 7 * max(a):
        return ("diff", consecutive, f"d={res.ap.diff}")
    if len(res.coreset) > coreset_size_bound(ell, n, TUNED):
        return ("coreset", consecutive, f"{len(res.coreset)}")
    try:
        ap_in_subset_sums(a, ell, PAPER, seed=idx)
        return ("paper-accepted", consecutive, "")
    except PreconditionViolated as exc:
        if not exc.name:
            return ("paper-unnamed", consecutive, "")
    return ("ok", consecutive, "")


def test_criterion_6_subsetsum_ap_tuned():
    t0 = time.time()
    idxs = list(range(50))
    if WORKERS > 1:
        with get_context("fork").Pool(WORKERS) as pool:
            outcomes = pool.map(_check_subset_instance, idxs)
    else:
        outcomes = [_check_subset_instance(i) for i in idxs]
    hard_failures = [o for o in outcomes if o[0] not in ("ok", "exhausted")]
    consec = [o for o in outcomes if o[1]]
    consec_ok = sum(1 for o in consec if o[0] == "ok")
    rate = consec_ok / max(1, len(consec))
    ok = not hard_failures and rate >= 0.9
    report(6, "subsetsum-ap-tuned", ok,
           f"50 instances, {sum(1 for o in outcomes if o[0]=='ok')} ok, "
           f"consecutive success {consec_ok}/{len(consec)}, "
           f"failures={hard_failures[:2]}, {time.time()-t0:.1f}s")


# -------------------------------------------------------------------------
# 7. Unbounded subset sum above the threshold, exhaustive small instances
# -------------------------------------------------------------------------

def _check_unbounded_chunk(instances):
    rng = RandomSource(7)
    solved = 0
    bad = []
    for vals in instances:
        solver = UnboundedSolver(vals)
        t_hi = solver.threshold + 500
        table, frob = brute_unbounded(vals, t_hi + 1)
        eg_bound = 2 * vals[-2] * (vals[-1] // len(vals)) - vals[-1]
        if frob > max(eg_bound, -1):
            bad.append((vals, "frobenius", frob, eg_bound))
            continue
        for t in range(solver.threshold, t_hi + 1):
            sol = solver.solve(t, rng)
            if sol.total() != t or not table[t]:
                bad.append((vals, "solve", t))
                break
            solved += 1
    return solved, bad


def test_criterion_7_unbounded_exhaustive():
    t0 = time.time()
    instances = []
    for a2 in range(2, 51):
        for a1 in range(1, a2):
            if gcd(a1, a2) == 1:
                instances.append((a1, a2))
    for vals in itertools.combinations(range(1, 51), 3):
        if gcd(gcd(vals[0], vals[1]), vals[2]) == 1:
            instances.append(vals)
    chunks = [instances[i::WORKERS] for i in range(WORKERS)]
    if WORKERS > 1:
        with get_context("fork").Pool(WORKERS) as pool:
            results = pool.map(_check_unbounded_chunk, chunks)
    else:
        results = [_check_unbounded_chunk(instances)]
    solved = sum(r[0] for r in results)
    bad = [b for r in results for b in r[1]]
    report(7, "unbounded-exhaustive", not bad,
           f"{len(instances)} instances, {solved} targets solved, "
           f"bad={bad[:2]}, {time.time()-t0:.0f}s")


# -------------------------------------------------------------------------
# 8. Dense subset sum: decide agrees with the DP oracle, search certifies
# -------------------------------------------------------------------------

def _gen_dense_instance(idx):
    rnd = random.Random(8000 + idx)
    kind = idx % 3
    if kind == 0:
        n = rnd.randint(280, 620)
        vals = list(range(1, n + 1))
    elif kind == 1:
        m = rnd.randint(320, 640)
        n = rnd.randint(int(0.8 * m), m)
        vals = sorted(rnd.sample(range(1, m + 1), n))
    else:
        n = rnd.randint(430, 446)
        vals = [2 * x for x in range(1, n + 1)]
    assert sum(vals) <= 2 * 10**5
    return vals


def test_criterion_8_dense_decide_and_search():
    rnd = random.Random(31)
    rng = RandomSource(31)
    built = 0
    skipped = 0
    worst = 0.0
    idx = 0
    while built < 30 and idx < 90:
        vals = _gen_dense_instance(idx)
        idx += 1
        t0 = time.time()
        try:
            decomp = build_rpg(vals, TUNED, seed=idx)
        except (PreconditionViolated, Exhausted):
            skipped += 1
            continue
        lo, hi = decomp.region()
        if lo > hi:
            skipped += 1
            continue
        built += 1
        table = brute_subset_sums(decomp.original, hi + 1)
        for _ in range(100):
            t = rnd.randint(lo, hi)
            dec = dense_decide(decomp, t)
            assert dec == (t in table), (vals[:5], t)
            if dec:
                sol = dense_search(decomp, t, rng)
                assert sum(sol) == t
                assert len(set(sol)) == len(sol)
                assert all(v in decomp.original for v in sol)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert dt < 10, f"instance took {dt:.1f}s"
    report(8, "dense-decide-and-search", built == 30,
           f"{built} instances x 100 targets, {skipped} skipped, worst {worst:.1f}s")


# -------------------------------------------------------------------------
# 9. CLI reproducibility: byte-identical JSON under a fixed seed
# -------------------------------------------------------------------------

def test_criterion_9_cli_reproducibility(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("0 1 65 121 138 262 345 583 610 777 901\n")
    (tmp_path / "b.txt").write_text(" ".join(map(str, range(1, 3001))) + "\n")
    (tmp_path / "u.txt").write_text("3 5\n")
    (tmp_path / "d.txt").write_text(" ".join(map(str, range(1, 501))) + "\n")
    commands = [
        ["ap-sumset", "--input", str(tmp_path / "a.txt"), "--m", "1000",
         "--k", "101", "--seed", "11", "--sample", "9", "--verify-all", "--json"],
        ["ap-subsetsum", "--input", str(tmp_path / "b.txt"), "--ell", "60",
         "--seed", "11", "--sample", "9", "--verify-all", "--json"],
        ["unbounded", "--input", str(tmp_path / "u.txt"), "--target", "123456",
         "--seed", "11", "--json"],
        ["dense", "--input", str(tmp_path / "d.txt"), "--target", "30000",
         "--seed", "11", "--json"],
    ]
    ok = True
    for argv in commands:
        main(argv)
        out1 = capsys.readouterr().out
        main(argv)
        out2 = capsys.readouterr().out
        if out1 != out2 or not out1.strip():
            ok = False
            break
        json.loads(out1)  # well-formed
    report(9, "cli-reproducibility", ok, f"{len(commands)} commands, two runs each")
