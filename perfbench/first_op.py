"""Set-up probe: a fresh interpreter imports triseq.cli and completes one operation.

run.py starts this script once per set-up sample, with the package on
PYTHONPATH and the operation as a JSON argument, and times it from outside.
It prints {"import_numpy_s", "import_triseq_s", "first_op_s", "run_queue_wait_s"}
as one JSON line; the last is the time this process waited for a CPU, from
schedstat (0 where the kernel does not provide it).
"""

import contextlib
import io
import json
import sys
import time

spec = json.loads(sys.argv[1])
t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: the bulk of the CLI's import)

t1 = time.perf_counter()
import triseq.cli  # noqa: E402

t2 = time.perf_counter()

from triseq import (  # noqa: E402
    check_copies_psk,
    check_global_optimality,
    identity_membership,
    level_curve,
    outcome_triangle,
)
from triseq.errors import TriseqError  # noqa: E402

call = spec["call"]
try:
    if call == "copies":
        check_copies_psk(spec["s"], spec["n"])
    elif call in ("decide", "plane"):
        report = check_global_optimality(complex(*spec["ka"]), complex(*spec["kb"]))
        if call == "plane":
            outcome_triangle(report.pair)
            identity_membership(report.pair)
            level_curve(report.pair, 200)
    else:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in spec["argvs"]:
                if triseq.cli.main(argv) != 0:
                    break
except TriseqError:
    pass  # a clean refusal still completes the operation
t3 = time.perf_counter()
try:
    with open("/proc/thread-self/schedstat") as fh:
        wait_s = int(fh.read().split()[1]) / 1e9
except OSError:
    wait_s = 0.0
print(json.dumps({"import_numpy_s": t1 - t0, "import_triseq_s": t2 - t1, "first_op_s": t3 - t2,
                  "run_queue_wait_s": wait_s}))
