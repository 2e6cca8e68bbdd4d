"""One measuring process of a benchmark run.

    python3 perfbench/measure.py '<spec as JSON>'

run.py starts this script, one process per part of a run, with the package
on PYTHONPATH.  The spec names the workload, seed, part, seconds, trace
flag, a scratch directory, an output stem and, when traced, the spans file.
The process runs a closed loop of the workload's operations, checks every
output, and writes:

    <out>.json  attempted ops, failures, peak RSS, the latency figures with
                and without host scaling, for part 0 the near-tie probe's
                failures and, for a traced part, the per-layer metrics
    <out>.lat   the measured ops' host-scaled latencies in ns (float64)

An op's latency is its wall time less the time it waited on the run queue
for a CPU, but never less than the CPU time it used.  Every REF_EVERY_S of
wall time the loop takes a reference sample, and each op's latency is then
scaled by the two samples around it (see host.py).

The loop writes each op's latency to a log file every LOG_EVERY ops, so the
memory it holds is the same however many ops it runs; `peak_rss_mb` is read
before the log is read back.  A faster program therefore does not read as
one that uses more memory.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: BLAS reads these once

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

import workloads  # noqa: E402
from host import RunQueue, reference_ns, scale  # noqa: E402
from tracing import Tracer, layer_metrics, timed  # noqa: E402

WARMUP_S = 0.5
REF_EVERY_S = 0.02
LOG_EVERY = 4096
SWEEP_PAIRS = 20
EXP_PROBE_PAIRS = 500


def loop(wl, ops, seconds, log_path, tracer=None, op_id=0):
    """Closed loop for `seconds` of wall time, every output checked.

    Only the operation itself is timed; its check runs right after, outside
    the timed region.  Each op's (latency ns, reference index) pair goes to
    the log at `log_path`; `latencies` reads it back.
    returns: (reference samples ns, run-queue wait ns taken out, attempted,
              failures)
    """
    rows, refs = array("q"), array("d")
    failures, waited = [], 0
    end = time.monotonic() + seconds
    next_ref = 0.0
    with RunQueue() as queue, open(log_path, "wb") as log:
        while (now := time.monotonic()) < end:
            if now >= next_ref:
                refs.append(reference_ns())
                next_ref = now + REF_EVERY_S
            op = next(ops)
            call = workloads.PLAIN if tracer is None else tracer.hook("call", op_id)
            w0, c0 = queue.wait_ns(), time.thread_time_ns()
            out, t0, t1 = timed(wl.op, op, call)
            c1, w1 = time.thread_time_ns(), queue.wait_ns()
            if tracer is not None:
                tracer.record("op", "op", op_id, t0, t1)
                wl.probe(op, out, tracer, op_id)
            # the wait is read just outside [t0, t1]: never take out more than
            # leaves the op its CPU time
            ns = t1 - t0 if w1 == w0 else max(t1 - t0 - (w1 - w0), c1 - c0)
            waited += t1 - t0 - ns
            rows.append(ns)
            rows.append(len(refs))  # refs[k - 1] was taken before this op, refs[k] after
            if len(rows) == 2 * LOG_EVERY:
                rows.tofile(log)
                del rows[:]
            op_id += 1
            record = wl.check(op, out)
            if record:
                failures.append(record)
        rows.tofile(log)
    refs.append(reference_ns())
    return refs, waited, op_id, failures


def peak_rss_mb():
    """Peak resident memory of this process's own address space, in MB.

    Not ru_maxrss: a child that the parent starts with vfork and exec
    inherits the parent's peak in it, so it would count run.py's memory too.
    """
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latencies(log_path, refs):
    """(latencies ns, host-scaled latencies ns) of the ops a loop logged."""
    rows = array("q")
    with open(log_path, "rb") as fh:
        rows.frombytes(fh.read())
    lat = rows[0::2]
    return lat, array("d", (scale(ns, refs[k - 1], refs[k]) for ns, k in zip(lat, rows[1::2])))


def figures(lat):
    """ops/s, p50 and p99 in us over one list of latencies in ns."""
    if len(lat) < 100:
        sys.exit(f"perfbench: only {len(lat)} operations measured; raise --seconds")
    ordered = sorted(lat)
    return {
        "ops_per_s": len(ordered) * 1e9 / sum(ordered),
        "op_us_p50": statistics.median(ordered) / 1e3,
        "op_us_p99": ordered[-(-99 * len(ordered) // 100) - 1] / 1e3,
    }


def main(spec):
    name, seed, part = spec["workload"], spec["seed"], spec["part"]
    wl = workloads.WORKLOADS[name](spec["work"])
    ops = wl.inputs(random.Random(f"{name}:{seed}:ops:{part}"))
    log_path = spec["out"] + ".ops"
    *_, warm, failures = loop(wl, ops, WARMUP_S, log_path)  # checked and counted, not timed
    refs, waited, attempted, measured_failures = loop(wl, ops, spec["seconds"], log_path,
                                                      op_id=warm)
    peak_mb = peak_rss_mb()
    raw, lat = latencies(log_path, refs)
    failures += measured_failures
    result = {
        "ops": len(lat),
        "peak_rss_mb": peak_mb,
        "ref_us": statistics.median(refs) / 1e3,
        "queue_wait_ms": waited / 1e6,
        "figures": figures(lat),
        "unscaled": figures(raw),
    }
    with open(spec["out"] + ".lat", "wb") as fh:
        lat.tofile(fh)
    if spec["trace"]:
        tracer = Tracer()
        t_refs, _, attempted, t_failures = loop(wl, ops, spec["seconds"], log_path, tracer,
                                                attempted)
        _, t_lat = latencies(log_path, t_refs)
        failures += t_failures
        workloads.sweep(tracer, random.Random(f"sweep:{seed}"), spec["work"], SWEEP_PAIRS)
        rejects, probed, example = workloads.exp_notation_rejects(
            wl.inputs(random.Random(f"{name}:{seed}:exp")), EXP_PROBE_PAIRS)
        layers = layer_metrics(tracer)
        traced_ops_per_s = figures(t_lat)["ops_per_s"]
        layers["trace.overhead_frac"] = (
            1.0 - traced_ops_per_s / result["figures"]["ops_per_s"], "ratio")
        layers["cli.exp_notation_rejects"] = (rejects, "count")
        result.update(traced_ops=len(t_lat), traced_ops_per_s=traced_ops_per_s,
                      exp_probe={"rejects": rejects, "probed": probed, "example": example},
                      layers=layers)
        tracer.dump(spec["spans"], spec)
    if part == 0:  # untimed, after every loop; peak_rss_mb was read before it
        result["near_tie_probe"] = {"probed": wl.probe_ops, "failures": workloads.near_tie_probe(
            wl, random.Random(f"{name}:{seed}:near_tie"))}
    result.update(attempted=attempted, failures=failures)
    with open(spec["out"] + ".json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
