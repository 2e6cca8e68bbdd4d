"""Spans recorded around calls into the package, and the per-layer metrics.

Spans are timed from outside the package, in the benchmark's own code: each
is (name, kind, op id, start ns, end ns) and stays in memory until the run
ends.  Kinds:

    op     one whole workload operation
    call   a public call the operation makes, inside its op span
    probe  an inner step (one the public call makes inside the package),
           timed on its own on the same inputs, after the op span closed
    sweep  a call from the layer sweep, outside any operation

For each traced function, `<name>.calls` counts op and probe calls,
`<name>.us` is their median duration (sweep calls when there are none), and
`<name>.share` is their summed duration over the summed op span duration.
Counters follow the same rule: sweep values only stand in when the
workload's own operations gave none.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns as time_ns

from triseq import BRANCHES
from triseq.errors import DegenerateStates, RankDeficient

FUNCTIONS = (
    "states.canonicalize",
    "optimality.check_global_optimality",
    "multipartite.check_copies_psk",
    "povm.build_sequential",
    "povm.solve_weights",
    "povm.flatten",
    "povm.verify_unambiguous",
    "povm.save_povm",
    "povm.load_povm",
    "povm.verify_povm",
    "numerics.hermitian_eigen",
    "povm.dual_certificate",
    "povm.sample_outcomes",
    "cli.construct",
    "cli.verify",
    "cli.simulate",
    "geometry.outcome_triangle",
    "geometry.identity_membership",
    "geometry.level_curve",
    "geometry.diagonal_point",
)

# ROADMAP "Baseline" stage names -> (traced function, ROADMAP us/call)
ROADMAP_STAGES = (
    ("check_global_optimality", "optimality.check_global_optimality", "68"),
    ("canonicalize", "states.canonicalize", "48"),
    ("build_sequential", "povm.build_sequential", "356"),
    ("flatten (28 np.kron)", "povm.flatten", "650-820"),
    ("verify_unambiguous incl. state build", "povm.verify_unambiguous", "158"),
    ("dual_certificate", "povm.dual_certificate", "2070"),
    ("outcome_triangle", "geometry.outcome_triangle", "120"),
    ("level_curve(..., 200)", "geometry.level_curve", "13700"),
)

KINDS = ("op", "call", "probe", "sweep")
COLUMNS = ("name", "kind", "op", "start_ns", "end_ns")


def timed(fn, *args):
    """Call fn; return (its result or the exception it raised, start ns, end ns).

    The one timing wrapper: it times whole operations, traced calls, probes
    and the reference kernel alike.
    """
    t0 = time_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # an unexpected raise is an output the check judges
        out = exc
    return out, t0, time_ns()


class Tracer:
    def __init__(self):
        self.names = {}
        self.columns = {c: array("q") for c in COLUMNS}  # one span per row
        self.samples = {}  # (counter name, from sweep) -> observed values
        self.branches = Counter()

    def record(self, name, kind, op_id, t0, t1):
        row = (self.names.setdefault(name, len(self.names)), KINDS.index(kind), op_id, t0, t1)
        for column, value in zip(self.columns.values(), row):
            column.append(value)

    def span(self, name, kind, op_id, fn, *args):
        """Time one call as a span; returns its output or the exception it raised."""
        out, t0, t1 = timed(fn, *args)
        self.record(name, kind, op_id, t0, t1)
        self._observe(name, out, args, kind)
        return out

    def hook(self, kind, op_id):
        """A call hook `call(name, fn, *args)` that records spans of `kind`.

        Inside an operation (kind "call") a raised exception propagates, as it
        does untraced; probe and sweep hooks return it instead.
        """
        def call(name, fn, *args):
            out = self.span(name, kind, op_id, fn, *args)
            if kind == "call" and isinstance(out, Exception):
                raise out
            return out
        return call

    def count(self, name, kind, value):
        self.samples.setdefault((name, kind == "sweep"), []).append(value)

    def _observe(self, name, out, args, kind):
        if name == "optimality.check_global_optimality" and kind != "sweep":
            if isinstance(out, (DegenerateStates, RankDeficient)):
                self.branches["NA"] += 1
            elif not isinstance(out, Exception):
                self.branches[out.branch] += 1
        elif name == "multipartite.check_copies_psk" and not isinstance(out, Exception):
            ok, level = out
            self.count("multipartite.levels_per_call", kind, int(args[1]) - 1 if ok else level + 1)

    def durations(self):
        """name -> {kind: [ns, ...]}"""
        by_id = {i: n for n, i in self.names.items()}
        c = self.columns
        out = {}
        for name_id, kind, t0, t1 in zip(c["name"], c["kind"], c["start_ns"], c["end_ns"]):
            out.setdefault(by_id[name_id], {}).setdefault(KINDS[kind], []).append(t1 - t0)
        return out

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "kinds": KINDS,
                       "names": sorted(self.names, key=self.names.get),
                       **{c: column.tolist() for c, column in self.columns.items()}}, fh)


def layer_metrics(tr: Tracer):
    """Per-layer metrics from the spans: name -> (value, unit)."""
    spans = tr.durations()
    op_total = sum(spans.get("op", {}).get("op", [])) or 1
    metrics = {}
    for name in FUNCTIONS:
        kinds = spans.get(name, {})
        path = kinds.get("call", []) + kinds.get("probe", [])
        metrics[f"{name}.calls"] = (len(path), "count")
        metrics[f"{name}.us"] = (statistics.median(path or kinds["sweep"]) / 1e3, "us")
        metrics[f"{name}.share"] = (sum(path) / op_total, "ratio")
    checks = sum(tr.branches.values()) or 1
    for branch in BRANCHES:
        metrics[f"optimality.branch_share.{branch}"] = (tr.branches[branch] / checks, "ratio")
    metrics["optimality.na_share"] = (tr.branches["NA"] / checks, "ratio")
    for name, unit in (("multipartite.levels_per_call", "count"),
                       ("povm.save_povm.bytes", "bytes")):
        values = tr.samples.get((name, False)) or tr.samples[(name, True)]
        metrics[name] = (statistics.mean(values), unit)
    return metrics


def roadmap_table(metrics):
    """The ROADMAP baseline stages beside this run's us per call."""
    lines = [f"{'ROADMAP stage':40s} {'ROADMAP us':>10s} {'measured us':>12s} {'calls':>7s}"]
    for stage, name, roadmap in ROADMAP_STAGES:
        lines.append(f"{stage:40s} {roadmap:>10s} {metrics[name + '.us']:12.1f} "
                     f"{metrics[name + '.calls']:7d}")
    return lines
