"""Command-line surface: progression construction, the two solvers, and
certificate replay.

Exit codes: 0 success, 1 precondition violated, usage error or out of
memory, 2 certificate failure, 3 decision "no", 4 construction exhausted
(tuned profile).

Reports are reproducible: the JSON output contains no timing and every
certificate is produced from a RandomSource derived from (seed, term index),
so the bytes depend only on the inputs, flags, and seed. Timing goes to the
human-readable output only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .core import (
    ApcertError,
    Exhausted,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    check_certificate,
    check_report,
    load_int_set,
    normalize,
)
from .dense import build_rpg, dense_decide, dense_search
from .profiles import PROFILES
from .subsetsum_ap import ap_in_subset_sums
from .sumset_ap import ap_in_kfold_sumset
from .unbounded import UnboundedSolver

SCHEMA = 1

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_CERTIFICATE = 2
EXIT_DECISION_NO = 3
EXIT_EXHAUSTED = 4


def _write_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _emit(report: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        _write_json(report)
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _sample_indices(length: int, count: int) -> list[int]:
    """`count` evenly spaced term indices: both ends when count >= 2, the
    first alone when count == 1, and every index when count > length."""
    if count <= 0:
        return []
    if count >= length + 1:
        return list(range(length + 1))
    if count == 1:
        return [0]
    return sorted({round(i * length / (count - 1)) for i in range(count)})


def verify_terms(witness, base: SortedIntSet, seed: int, indices: Sequence[int],
                 sample: Sequence[int] = ()) -> dict:
    """Query and check each term index once, independently of the pipeline
    under test. Returns a summary dict with the first 16 failures and the
    certificates of the `sample` indices (a subset of `indices`), both in
    the order of `indices`."""
    root = RandomSource(seed)
    sample = frozenset(sample)
    passed = draws = 0
    failures, certificates = [], []
    for j in indices:
        rng = root.derive("query", j)
        sol = witness.query(j, rng)
        draws += rng.draws
        reason = check_certificate(base, sol, witness.fold_budget, witness.ap.term(j))
        if reason is None:
            passed += 1
        elif len(failures) < 16:
            failures.append((j, reason))
        if j in sample:
            certificates.append({
                "index": j,
                "target": sol.target,
                "fold_budget": sol.fold_budget,
                "parts": [[v, c] for v, c in sol.parts],
            })
    return {"checked": len(indices), "passed": passed, "sampling_draws": draws,
            "failures": failures, "certificates": certificates}


def _ap_dict(ap) -> dict:
    return {"start": ap.start, "diff": ap.diff, "length": ap.length}


def _certify(args, witness, base: SortedIntSet, report: dict, where: str,
             build_s: float) -> int:
    """Shared tail of the two build commands: check every selected term once,
    report the --sample certificates, and exit 2 if any check failed."""
    ap = witness.ap
    sample = _sample_indices(ap.length, args.sample)
    indices = range(ap.length + 1) if args.verify_all else sample
    summary = verify_terms(witness, base, args.seed, indices, sample)
    passed, checked = summary["passed"], summary["checked"]
    report.update(
        schema=SCHEMA, seed=args.seed, ap=_ap_dict(ap), certificates=summary["certificates"],
        verification={"checked": checked, "passed": passed},
    )
    head = (f"{report['command']}: AP (start={ap.start}, diff={ap.diff}, length={ap.length})"
            f" {where}")
    lines = [head, f"verified {passed}/{checked} certificates"
                   f" ({summary['sampling_draws']} sampling draws); build {build_s:.3f}s"]
    _emit(report, args.json, lines)
    return EXIT_OK if passed == checked else EXIT_CERTIFICATE


def cmd_ap_sumset(args) -> int:
    raw = load_int_set(args.input)
    t0 = time.perf_counter()
    base = normalize(raw)[0]
    res = ap_in_kfold_sumset(base, args.m, args.k)
    build_s = time.perf_counter() - t0
    report = {"command": "ap-sumset", "m": args.m, "k": args.k, "k_eff": res.k_eff,
              "fold_budget": res.fold_budget}
    where = f"in {332 * args.k}-fold sumset (budget {res.fold_budget})"
    return _certify(args, res.witness, base, report, where, build_s)


def cmd_ap_subsetsum(args) -> int:
    raw = load_int_set(args.input)
    profile = PROFILES[args.profile]
    t0 = time.perf_counter()
    res = ap_in_subset_sums(raw, args.ell, profile, args.seed)
    build_s = time.perf_counter() - t0
    report = {"command": "ap-subsetsum", "profile": profile.name, "ell": args.ell,
              "coreset_size": len(res.coreset), "coreset": list(res.coreset.elems),
              "rounds": res.rounds}
    where = f"in S(coreset), coreset size {len(res.coreset)}, {res.rounds} rounds"
    return _certify(args, res.witness, res.coreset, report, where, build_s)


def cmd_unbounded(args) -> int:
    raw = load_int_set(args.input)
    solver = UnboundedSolver(tuple(raw))
    rng = RandomSource(args.seed).derive("unbounded", args.target)
    sol = solver.solve(args.target, rng)
    report = {
        "schema": SCHEMA,
        "command": "unbounded",
        "seed": args.seed,
        "target": args.target,
        "threshold": solver.threshold,
        "x": [[a, x] for a, x in sol.multipliers],
    }
    lines = [
        f"unbounded: target {args.target} = "
        + " + ".join(f"{x}*{a}" for a, x in sol.multipliers if x),
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_dense(args) -> int:
    raw = load_int_set(args.input)
    profile = PROFILES[args.profile]
    decomp = build_rpg(raw, profile, args.seed)
    decision = dense_decide(decomp, args.target)
    report = {
        "schema": SCHEMA,
        "command": "dense",
        "profile": profile.name,
        "seed": args.seed,
        "target": args.target,
        "gamma": decomp.gamma,
        "region": list(decomp.region()),
        "decision": decision,
    }
    if not decision:
        report["solution"] = None
        _emit(report, args.json, [f"dense: target {args.target} is NOT a subset sum"])
        return EXIT_DECISION_NO
    rng = RandomSource(args.seed).derive("dense", args.target)
    sol = dense_search(decomp, args.target, rng)
    report["solution"] = sol
    lines = [f"dense: target {args.target} = sum of {len(sol)} elements"]
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Decode the report, load the input and emit what `check_report` finds."""
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:
            raise PreconditionViolated("malformed-report", f"not JSON: {exc}") from None
    base = normalize(load_int_set(args.input))[0]
    checked, failures = check_report(report, base)
    out = {"schema": SCHEMA, "command": "verify", "checked": checked,
           "passed": checked - len(failures), "failures": failures[:16]}
    _emit(out, args.json, [f"verify: {out['passed']}/{out['checked']} certificates pass"])
    return EXIT_OK if not failures else EXIT_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apcert",
        description="Arithmetic progressions in sumsets and subset sums, with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=False):
        p.add_argument("--input", required=True, help="integer-set file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if profile:
            p.add_argument("--profile", choices=list(PROFILES), default="tuned")

    p = sub.add_parser("ap-sumset", help="AP of length m in the 332k-fold sumset")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify-all", action="store_true")
    p.add_argument("--sample", type=int, default=0, help="emit this many certificates")
    p.set_defaults(func=cmd_ap_sumset)

    p = sub.add_parser("ap-subsetsum", help="AP of length ell in subset sums of a coreset")
    common(p, profile=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--verify-all", action="store_true")
    p.add_argument("--sample", type=int, default=0)
    p.set_defaults(func=cmd_ap_subsetsum)

    p = sub.add_parser("unbounded", help="multiplier vector for an unbounded subset sum")
    common(p)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=cmd_unbounded)

    p = sub.add_parser("dense", help="decide and search a dense subset-sum target")
    common(p, profile=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=cmd_dense)

    p = sub.add_parser("verify", help="replay a report's certificates against an input set")
    p.add_argument("--report", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error 2 would read as a certificate failure
        return EXIT_PRECONDITION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exhausted as exc:
        payload = {"schema": SCHEMA, "error": "exhausted", "reason": exc.reason}
        if exc.partial is not None:
            payload["partial_ap"] = _ap_dict(exc.partial)
        if getattr(args, "json", False):
            _write_json(payload)
        else:
            sys.stderr.write(f"exhausted: {exc.reason}\n")
            if exc.partial is not None:
                sys.stderr.write(f"partial AP: {exc.partial}\n")
        return EXIT_EXHAUSTED
    except PreconditionViolated as exc:
        if getattr(args, "json", False):
            _write_json({"schema": SCHEMA, "error": "precondition", "name": exc.name,
                         "detail": exc.detail})
        else:
            sys.stderr.write(f"{exc}\n")
        return EXIT_PRECONDITION
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except MemoryError:  # e.g. a build table sized by an element near 2^62
        sys.stderr.write("error: out of memory\n")
        return EXIT_PRECONDITION
    except ApcertError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    raise SystemExit(main())
