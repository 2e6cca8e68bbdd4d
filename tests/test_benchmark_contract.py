"""The benchmark's workloads pass their own output checks on this program.

`perfbench/` runs the three seeded workloads that `BENCHMARK.json` declares
and reports `correct: false` when any op fails its check.  This runs a short
slice of each timed stream, drawn from the seed string `perfbench/measure.py`
uses for seed 1, plus a few ops of each near-tie probe, so such a change
fails at tier 1 instead of only in the benchmark.  It also runs the traced
half of a benchmark run on a short slice: each op under a `Tracer`, the
workload's probe, a short sweep and the per-layer metrics, which call the
package's functions directly, so renaming one of those fails here too.
"""

import math
import random
import sys
from pathlib import Path

import pytest

from triseq.errors import TriseqError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracing import FUNCTIONS, Tracer, layer_metrics, timed  # noqa: E402

OPS = {"decide": 300, "roundtrip": 40, "plane": 60}
PROBE_OPS = {"decide": 40, "roundtrip": 20, "plane": 0}
TRACED_OPS = 20
SWEEP_PAIRS = 3


class RaisingTracer(Tracer):
    """A Tracer that also keeps every span whose call raised something other
    than the package's own refusals: a probe or sweep span returns what its
    call raised, so nothing else would show it."""

    def __init__(self):
        super().__init__()
        self.raised = []

    def span(self, name, kind, op_id, fn, *args):
        out = super().span(name, kind, op_id, fn, *args)
        if isinstance(out, Exception) and not isinstance(out, TriseqError):
            self.raised.append((name, kind, repr(out)))
        return out


@pytest.mark.parametrize("name", sorted(OPS))
def test_timed_ops_pass_their_checks(tmp_path, name):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    ops = wl.inputs(random.Random(f"{name}:1:ops:0"))
    failures = []
    for _ in range(OPS[name]):
        op = next(ops)
        record = wl.check(op, timed(wl.op, op, workloads.PLAIN)[0])
        if record:
            failures.append(record)
    assert failures == []


@pytest.mark.parametrize("name", sorted(PROBE_OPS))
def test_near_tie_probe_finds_only_known_kinds(tmp_path, name):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    wl.probe_ops = PROBE_OPS[name]
    failures = workloads.near_tie_probe(wl, random.Random(f"{name}:1:near_tie"))
    assert [record for record in failures if not record["known"]] == []


@pytest.mark.parametrize("name", sorted(OPS))
def test_traced_ops_probes_and_sweep_run(tmp_path, name):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    ops = wl.inputs(random.Random(f"{name}:1:ops:0"))
    tracer, failures = RaisingTracer(), []
    for op_id in range(TRACED_OPS):
        op = next(ops)
        out, t0, t1 = timed(wl.op, op, tracer.hook("call", op_id))
        tracer.record("op", "op", op_id, t0, t1)
        wl.probe(op, out, tracer, op_id)
        record = wl.check(op, out)
        if record:
            failures.append(record)
    workloads.sweep(tracer, random.Random("sweep:1"), str(tmp_path), SWEEP_PAIRS)
    layers = layer_metrics(tracer)
    assert failures == [] and tracer.raised == []
    assert {f"{function}.us" for function in FUNCTIONS} <= set(layers)
    assert all(math.isfinite(value) for value, _ in layers.values())
