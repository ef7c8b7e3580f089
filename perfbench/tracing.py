"""Span recorder for the traced benchmark run.

The traced run wraps public functions and methods of the apcert modules from
here, without touching the package: each wrapped call records a span (name,
start, end, parent span, op id) and, for a few calls, a counter. Wrappers are
installed only while a traced build phase or a traced op runs, and removed
otherwise, so untraced ops in the same process run the plain code.

Self time of a span is its duration minus the durations of its direct child
spans. Inclusive totals count only the outermost span of each name, so a call
that recurses into itself (ApWitness.query in subset-sum witnesses) is not
counted twice.

This module owns the span and counter names: `LAYER_METRICS` turns them into
the per-layer metrics, and `Recorder.metrics` computes them.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from apcert import augment, core, dense, density_witness, subsetsum_ap, sumset_ap, unbounded

# Spans kept for the trace file; aggregates always cover every span.
SPAN_CAP = 300_000


def _draws_before(args):
    return args[2].draws


def _count_draws(rec, args, result, before):
    rec.count("density_witness.draws", args[2].draws - before)


def _count_greedy(rec, args, result, before):
    rec.count("greedy.accepted", result is not None)


def _count_extend(rec, args, result, before):
    rec.count("subsetsum_ap.extend_ok", 1)


def _count_subsetsum(rec, args, result, before):
    rec.count("subsetsum_ap.builds", 1)
    rec.count("subsetsum_ap.rounds", result.rounds)
    rec.count("subsetsum_ap.coreset_size", len(result.coreset))


# (owner, attribute, span name, pre hook, post hook). A function imported by
# name into another module is wrapped where it is looked up at call time.
TARGETS = (
    (core, "check_solution", "core.check", None, None),
    (core.RandomSource, "derive", "core.derive", None, None),
    (density_witness, "density_with_argmin", "core.density", None, None),
    (density_witness, "kfold_greedy_steps", "greedy.steps", None, _count_greedy),
    (sumset_ap, "build_density_witness", "density_witness.build", None, None),
    (density_witness.DensityWitness, "query_parts", "density_witness.query",
     _draws_before, _count_draws),
    (sumset_ap, "augment_to_full", "augment.to_full", None, None),
    (augment.LadderLayer, "resolve", "augment.resolve", None, None),
    (augment.DivPairLayer, "resolve", "augment.resolve", None, None),
    (augment.ApWitness, "query", "augment.witness_query", None, None),
    (sumset_ap, "ap_in_kfold_sumset", "sumset_ap.build", None, None),
    (unbounded, "ap_in_kfold_sumset", "sumset_ap.build", None, None),
    (subsetsum_ap, "ap_in_kfold_sumset", "sumset_ap.build", None, None),
    (sumset_ap, "find_dense_endpoint", "sumset_ap.endpoint_scan", None, None),
    (sumset_ap, "ap_short", "sumset_ap.short", None, None),
    (sumset_ap.ShortLeaf, "query_parts", "sumset_ap.leaf_query", None, None),
    (subsetsum_ap, "ap_in_subset_sums", "subsetsum_ap.build", None, _count_subsetsum),
    (dense, "ap_in_subset_sums", "subsetsum_ap.build", None, _count_subsetsum),
    (subsetsum_ap, "short_ap_in_subset_sums", "subsetsum_ap.short", None, None),
    (subsetsum_ap, "extend_ap_once", "subsetsum_ap.extend", None, _count_extend),
    (subsetsum_ap, "residue_ladder", "subsetsum_ap.ladder_build", None, None),
    (subsetsum_ap.ResidueLadderAccessor, "lookup", "subsetsum_ap.ladder_lookup", None, None),
    (unbounded.UnboundedSolver, "__init__", "unbounded.build", None, None),
    (unbounded.UnboundedSolver, "solve", "unbounded.solve", None, None),
    (dense, "find_gamma", "dense.find_gamma", None, None),
    (dense, "build_rpg", "dense.build", None, None),
    (dense, "dense_decide", "dense.decide", None, None),
    (dense.DenseDecomposition, "region", "dense.region", None, None),
    (dense, "dense_search", "dense.search", None, None),
    (dense, "modular_subset_sum", "dense.modular_dp", None, None),
)

# (metric, source, span or counter): "build" = inclusive seconds in the one
# traced build phase; "op" / "op_self" = inclusive / self seconds per traced
# op; "calls" = calls per traced op over the count prefix; "per_call" = an op
# counter over the calls of a span in the count prefix; "per_build" /
# "per_build_call" = a build counter over the build count / over the calls
# of a build-phase span; "workload" = a count the workload computes itself.
LAYER_METRICS = (
    ("core.check_s", "op", "core.check"),
    ("core.check_calls", "calls", "core.check"),
    ("core.derive_s", "op", "core.derive"),
    ("core.density_s", "build", "core.density"),
    ("greedy.steps_s", "op", "greedy.steps"),
    ("greedy.steps_calls", "calls", "greedy.steps"),
    ("greedy.accept_ratio", "per_call", ("greedy.accepted", "greedy.steps")),
    ("density_witness.build_s", "build", "density_witness.build"),
    ("density_witness.query_s", "op_self", "density_witness.query"),
    ("density_witness.draws_per_query", "per_call",
     ("density_witness.draws", "density_witness.query")),
    ("augment.to_full_s", "build", "augment.to_full"),
    ("augment.resolve_s", "op", "augment.resolve"),
    ("augment.resolve_calls", "calls", "augment.resolve"),
    ("augment.witness_query_s", "op_self", "augment.witness_query"),
    ("augment.layers", "workload", "augment.layers"),
    ("sumset_ap.build_s", "build", "sumset_ap.build"),
    ("sumset_ap.endpoint_scan_s", "build", "sumset_ap.endpoint_scan"),
    ("sumset_ap.short_s", "build", "sumset_ap.short"),
    ("sumset_ap.leaf_query_s", "op_self", "sumset_ap.leaf_query"),
    ("subsetsum_ap.build_s", "build", "subsetsum_ap.build"),
    ("subsetsum_ap.short_s", "build", "subsetsum_ap.short"),
    ("subsetsum_ap.extend_s", "build", "subsetsum_ap.extend"),
    ("subsetsum_ap.ladder_build_s", "build", "subsetsum_ap.ladder_build"),
    ("subsetsum_ap.rounds", "per_build", ("subsetsum_ap.rounds", "subsetsum_ap.builds")),
    ("subsetsum_ap.extend_success_ratio", "per_build_call",
     ("subsetsum_ap.extend_ok", "subsetsum_ap.extend")),
    ("subsetsum_ap.ladder_lookup_s", "op", "subsetsum_ap.ladder_lookup"),
    ("subsetsum_ap.coreset_size", "per_build",
     ("subsetsum_ap.coreset_size", "subsetsum_ap.builds")),
    ("unbounded.build_s", "build", "unbounded.build"),
    ("unbounded.solve_s", "op_self", "unbounded.solve"),
    ("unbounded.distinct_residue_ratio", "workload", "unbounded.distinct_residue_ratio"),
    ("dense.find_gamma_s", "build", "dense.find_gamma"),
    ("dense.build_s", "build", "dense.build"),
    ("dense.decide_s", "op", "dense.decide"),
    ("dense.region_s", "op", "dense.region"),
    ("dense.search_s", "op", "dense.search"),
    ("dense.modular_dp_s", "op", "dense.modular_dp"),
    ("dense.yes_ratio", "workload", "dense.yes_ratio"),
    ("dense.gamma", "workload", "dense.gamma"),
)
UNITS = {
    "op": "s/op", "op_self": "s/op", "build": "s", "calls": "calls/op",
    "per_call": "ratio", "per_build_call": "ratio", "per_build": "count",
}
WORKLOAD_UNITS = {"augment.layers": "count", "dense.gamma": "count"}


class Recorder:
    """Collects spans and counters for one traced run.

    `phase` is "build" during the traced build phase and "op" during traced
    ops; aggregates are kept per phase. Counters are frozen once
    `freeze_counts` is called, so exact counts cover a fixed prefix of ops.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, object]] = []
        self.dropped = 0
        self.phase = "build"
        self.op_id: object = "build"
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._depth: dict[str, int] = {}
        self.incl: dict[tuple[str, str], float] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.counters: dict[tuple[str, str], int] = {}
        self.frozen: dict[tuple[str, str], int] | None = None
        self.frozen_calls: dict[str, int] = {}
        # (owner, attribute, original, wrapper) for every target present; a
        # target a refactor moved is listed in `missing`, and the traced run
        # refuses to report rather than read its metrics as 0
        self._targets: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        for owner, attr, name, pre, post in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
            else:
                self._targets.append((owner, attr, fn, self._wrap(fn, name, pre, post)))
        self._installed = False

    def _wrap(self, fn, name, pre, post):
        rec = self

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.leave()
            if post is not None:
                post(rec, args, result, before)
            return result

        return traced

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, wrapper in self._targets:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, fn, _ in self._targets:
                setattr(owner, attr, fn)
            self._installed = False

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self._stack.append([name, perf_counter(), 0.0, idx])

    def leave(self) -> None:
        end = perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        key = (self.phase, name)
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.incl[key] = self.incl.get(key, 0.0) + dur
        self.self_s[key] = self.self_s.get(key, 0.0) + dur - child
        self.calls[key] = self.calls.get(key, 0) + 1
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        if idx >= 0:
            self.spans[idx] = (self._name_id(name), start, end, parent, self.op_id)

    def count(self, name: str, n: int) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def freeze_counts(self) -> None:
        if self.frozen is None:
            self.frozen = dict(self.counters)
            self.frozen_calls = {n: c for (phase, n), c in self.calls.items() if phase == "op"}

    # -- metrics --------------------------------------------------------------

    def metrics(self, wl_counts: dict, n_traced: int, n_prefix: int) -> dict:
        """Every LAYER_METRICS entry as name -> (value, unit); `wl_counts` are
        the workload's own counts, `n_traced` the traced ops and `n_prefix`
        the ops of the count prefix."""
        out = {}
        for name, source, key in LAYER_METRICS:
            if source == "workload":
                out[name] = (wl_counts.get(key, 0), WORKLOAD_UNITS.get(name, "ratio"))
            else:
                out[name] = (self._value(source, key, n_traced, n_prefix), UNITS[source])
        return out

    def _value(self, source, key, n_traced, n_prefix):
        if source == "build":
            return self.incl.get(("build", key), 0.0)
        if source == "op":
            return self.incl.get(("op", key), 0.0) / n_traced
        if source == "op_self":
            return self.self_s.get(("op", key), 0.0) / n_traced
        if source == "calls":
            return self.frozen_calls.get(key, 0) / n_prefix
        num, den = key
        if source == "per_call":
            d = self.frozen_calls.get(den, 0)
            return self.frozen.get(("op", num), 0) / d if d else 0.0
        base = self.counters if source == "per_build" else self.calls
        d = base.get(("build", den), 0)
        return self.counters.get(("build", num), 0) / d if d else 0.0

    # -- output ---------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one [name id, start s, end s, parent
        span line (-1 for none), op id] line per kept span; times are relative
        to the first span and span lines count from 0 after the header."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            head = dict(header, names=self.names, spans=len(self.spans), dropped=self.dropped)
            fh.write(json.dumps(head) + "\n")
            for span in self.spans:
                if span is None:  # still open when the run ended
                    fh.write("null\n")
                    continue
                nid, start, end, parent, op = span
                line = [nid, round(start - t0, 9), round(end - t0, 9), parent, op]
                fh.write(json.dumps(line) + "\n")
