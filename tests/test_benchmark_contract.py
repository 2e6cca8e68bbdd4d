"""The benchmark's workloads pass their own output checks on this program.

`perfbench/` runs the three seeded workloads that `BENCHMARK.json` declares
and reports `correct: false` when any op fails its check.  This runs a short
slice of each timed stream, drawn from the seed string `perfbench/measure.py`
uses for seed 1, plus a few ops of each near-tie probe, so such a change
fails at tier 1 instead of only in the benchmark.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracing import timed  # noqa: E402

OPS = {"decide": 300, "roundtrip": 40, "plane": 60}
PROBE_OPS = {"decide": 40, "roundtrip": 20, "plane": 0}


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
