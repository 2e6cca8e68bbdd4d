#!/usr/bin/env python3
"""triseq benchmark: seeded closed-loop workloads through the public entry points.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run.  Without `--workload`, every workload runs
untraced at `--seed` and at the held-out seed, then traced at `--seed`.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads, metrics and known failures.

An untraced run measures in PARTS fresh processes (perfbench/measure.py),
one after another, `--seconds / PARTS` each, and pools their latencies.  Each process gets its own address-space layout, so the
layout's effect on speed is averaged inside a run instead of fixed for a
whole commit.  The set-up samples run between the parts.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("decide", "roundtrip", "plane")
HELDOUT_SEED = 7919  # never used while tuning the benchmark
PARTS = 3
SETUP_SAMPLES = 27
PART_TIMEOUT_S = 150
LISTED_FAILURES = 10
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_us_p50": "us", "op_us_p99": "us",
         "peak_rss_mb": "MB", "setup.import_numpy_s": "s", "setup.import_triseq_s": "s",
         "probe.near_tie_fail_frac": "ratio"}


def child_env():
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}", **{var: "1" for var in PINS})


def load_package():
    """Import triseq from this checkout's src/, or stop without a result."""
    if not (SRC / "triseq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no triseq package at {SRC / 'triseq'}; "
                 "run from the root of a triseq checkout")
    sys.path.insert(0, str(SRC))
    import triseq

    if Path(triseq.__file__).resolve().parent != (SRC / "triseq").resolve():
        sys.exit(f"perfbench: imported triseq from {triseq.__file__}, not from {SRC}")


def run_record(args):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "pinning": {var: "1" for var in PINS},
        "processes": 1 if args.trace else PARTS, "clients": 1, "loop": "closed",
    }


class SetupSampler:
    """Set-up samples: fresh interpreters that import triseq.cli and complete
    their first operation, timed from outside.  Sample k runs op k of the
    workload's stream, so the median does not hang on whether one op builds
    or is refused.  Each sample is the child's wall time less the time it
    waited for a CPU, scaled to the quiet host by reference samples taken
    just before and after it (host.py).  Their median is `setup_s`.  The
    first child only fills the bytecode and file caches and is not counted."""

    def __init__(self, specs):
        self.cmds = [[sys.executable, str(BENCH / "first_op.py"), json.dumps(s)] for s in specs]
        self.walls, self.inner = [], []
        self._child(self.cmds[0])
        self.walls.clear()
        self.inner.clear()

    def _child(self, cmd):
        from host import reference_ns, scale

        before = reference_ns()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        wall = time.perf_counter() - t0
        inner = json.loads(done.stdout.strip().splitlines()[-1])
        self.walls.append(scale(wall - inner["run_queue_wait_s"], before, reference_ns()))
        self.inner.append(inner)

    def take(self, count):
        for _ in range(count):
            self._child(self.cmds[len(self.walls)])

    def metrics(self):
        return {
            "setup_s": statistics.median(self.walls),
            "setup.import_numpy_s": statistics.median(d["import_numpy_s"] for d in self.inner),
            "setup.import_triseq_s": statistics.median(d["import_triseq_s"] for d in self.inner),
        }


def run_part(args, part, seconds, work, stem):
    """One measuring process; returns its result and its host-scaled latencies."""
    out = str(Path(work) / f"part{part}")
    spec = {"workload": args.workload, "seed": args.seed, "part": part,
            "seconds": seconds, "trace": args.trace, "work": work, "out": out,
            "spans": f"{stem}-spans.json"}
    done = subprocess.run([sys.executable, str(BENCH / "measure.py"), json.dumps(spec)],
                          env=child_env(), timeout=PART_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: measuring process {part} exited {done.returncode}")
    with open(out + ".json") as fh:
        result = json.load(fh)
    lat = array("d")
    with open(out + ".lat", "rb") as fh:
        lat.frombytes(fh.read())
    return result, lat


def list_failures(failures):
    by_kind = {}
    for f in failures:
        key = f"{f['kind']}{' (known)' if f.get('known') else ''}"
        by_kind[key] = by_kind.get(key, 0) + 1
    for key, count in sorted(by_kind.items()):
        print(f"  failed {key}: {count}")
    for f in failures[:LISTED_FAILURES]:
        print(f"  failing input: {json.dumps(f)}")


def report_failures(name, attempted, failures, probe, stem):
    """The timed ops' failures, then the near-tie probe's, with their inputs."""
    print(f"{name}: {attempted} ops attempted, {len(failures)} failed "
          f"(fail_frac {len(failures) / attempted:.6f} ratio)")
    list_failures(failures)
    if probe["probed"]:
        bad = probe["failures"]
        known = sum(1 for f in bad if f["known"])
        print(f"{name} near-tie probe (untimed, ROADMAP open item 2): {probe['probed']} ops, "
              f"{len(bad)} failed (fail_frac {len(bad) / probe['probed']:.6f} ratio; "
              f"{known} of kinds the seed shows, {len(bad) - known} new)")
        list_failures(bad)
    if failures or probe["failures"]:
        print(f"  every failing input: {stem.relative_to(ROOT)}.json")


def run_one(args):
    import workloads
    from measure import figures

    record = run_record(args)
    print("run: " + json.dumps(record), flush=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](str(work))
        stream = wl.inputs(random.Random(f"{args.workload}:{args.seed}:ops:0"))
        setup = SetupSampler([wl.first_op(next(stream), str(work))
                              for _ in range(SETUP_SAMPLES)])
        parts = 1 if args.trace else PARTS
        seconds = args.seconds / 2 if args.trace else args.seconds / PARTS
        results, lat = [], array("d")
        for part in range(parts):
            result, part_lat = run_part(args, part, seconds, str(work), stem)
            results.append(result)
            lat.extend(part_lat)
            setup.take(SETUP_SAMPLES // parts + (part < SETUP_SAMPLES % parts))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    probe = results[0]["near_tie_probe"]
    scaled = figures(lat)
    setup_metrics = setup.metrics()
    units = dict(UNITS)
    print(f"{args.workload}: {len(lat)} ops measured in {parts} processes, "
          f"reference kernel {statistics.median(r['ref_us'] for r in results):.1f} us (median)")
    for i, r in enumerate(results):
        print(f"  part {i}: {r['ops']} ops, reference {r['ref_us']:.1f} us, "
              f"run-queue wait taken out {r['queue_wait_ms']:.1f} ms, scaled "
              + ", ".join(f"{k} {v:.6g}" for k, v in r["figures"].items()) + "; unscaled "
              + ", ".join(f"{k} {v:.6g}" for k, v in r["unscaled"].items()))
    if args.trace:
        (result,) = results
        metrics = {k: v for k, (v, _) in result["layers"].items()}
        units.update({k: u for k, (_, u) in result["layers"].items()})
        metrics["setup.import_numpy_s"] = setup_metrics["setup.import_numpy_s"]
        metrics["setup.import_triseq_s"] = setup_metrics["setup.import_triseq_s"]
        metrics["probe.near_tie_fail_frac"] = len(probe["failures"]) / max(probe["probed"], 1)
        exp = result["exp_probe"]
        print(f"traced: {result['traced_ops']} ops, {result['traced_ops_per_s']:.1f} ops/s "
              f"traced vs {scaled['ops_per_s']:.1f} ops/s untraced")
        print(f"cli exponent-notation probe: {exp['rejects']} of {exp['probed']} valid "
              "pairs rejected" + (f", e.g. {' '.join(exp['example'])}"
                                  if exp["example"] else ""))
        from tracing import roadmap_table

        for line in roadmap_table(metrics):
            print(line)
    else:
        metrics = {"setup_s": setup_metrics["setup_s"], **scaled,
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}

    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    report_failures(args.workload, attempted, failures, probe, stem)
    result = {
        "correct": not failures and all(f["known"] for f in probe["failures"]),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": result, "failures": failures,
                   "near_tie_probe": probe}, fh, indent=1)
    print(json.dumps(result))


def run_all(args):
    """Every workload untraced at the seed and the held-out seed, then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for seed, trace in ((args.seed, 0), (HELDOUT_SEED, 0), (args.seed, 1)):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} seed {seed} trace {trace}", flush=True)
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            print(done.stdout, end="", flush=True)
            if done.returncode != 0:
                sys.exit(f"perfbench: {name} seed {seed} trace {trace} "
                         f"exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.seed{seed}.{metric}"] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_package()
    if args.workload is None:
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
