"""One SHA-256 over the command-line output for a fixed set of seeded inputs.

Runs `check`, `construct`, `verify` and `simulate` on seeded overlap pairs,
then `scan` in its three modes and `curve`, all in one process through
`triseq.cli.main`. The digest covers every exit code, stdout, stderr and
written file. The pairs reach every decision branch and both Orthogonal
routes (with and without a canonical form). Each built measurement is
verified against its own pair and a wrong one, and again after three
kinds of tampering. It is then simulated for every state.  Last come
argv that a parser refuses or answers with help (USAGE), and seven
damaged copies of one file under `verify` and `simulate`, one for each
kind of bad piece the loader names.  The summary
line counts the pairs (`verify_refused`, split by branch) whose own
`verify` fails after `construct` succeeded, and gives the mean size in
bytes of the files `construct` wrote (`mean_bytes`); neither is hashed.
The script exits 1 when any run exits 2 (an internal error) or raises,
as valid input must never end that way, or when more pairs are refused
than the KNOWN_REFUSED near-tie pairs (ROADMAP item 1), so that a `verify`
gate that starts refusing good files fails; it exits 0 otherwise.

A refactor meant to change no output checks itself by running

    python tests/cli_digest.py

in the parent checkout and in the change, and comparing the digests.
With `--runs FILE` it also writes one line per run to FILE: the run's
index, its exit code (`raised` for an exception), the SHA-256 of its
argv, output and written files, its subcommand, and the branch `check`
printed for its pair (`-` where there is none), tab-separated.  So `diff`
on two such files lists the runs that differ, and what each one was.
Output files use relative names inside a temporary working directory, so
two checkouts digest alike. pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width

import numpy as np  # noqa: E402

from helpers import near_axis, random_overlap, random_pair  # noqa: E402
from triseq.cli import main  # noqa: E402

PAIRS = 1500
SEED = 2024
# own-pair verify refusals of the near-tie defect; lower it when that is mended
KNOWN_REFUSED = 18


def _arg(x: float) -> str:
    return repr(float(x))


def _pair_args(ka: complex, kb: complex) -> list:
    return ["--ka", _arg(ka.real), _arg(ka.imag), "--kb", _arg(kb.real), _arg(kb.imag)]


def _draws(rng):
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    real = lambda: complex(rng.uniform(-0.45, 0.95))  # noqa: E731
    return (
        lambda: random_pair(rng),
        lambda: (real(), random_overlap(rng)),  # PositiveRealA
        lambda: (random_overlap(rng), real()),  # PositiveRealB
        lambda: (random_overlap(rng), tiny()),  # Orthogonal, no canonical form
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal with a canonical form
        lambda: (near_axis(rng), random_overlap(rng)),
        lambda: (random_overlap(rng), near_axis(rng)),
    )


def _modes(rng, i):
    """Argument lists in the other overlap modes, and edge and usage errors."""
    every = (
        lambda: ["--psk", _arg(rng.uniform(0.0, 4.0)), _arg(rng.uniform(0.0, 4.0))],
        lambda: ["--trine", _arg(rng.uniform(-0.1, 1.1))],
        lambda: ["--ppm", *map(_arg, rng.uniform(-2.0, 2.0, size=4))],
        lambda: _pair_args(complex(rng.uniform(-1.1, 1.1)), random_overlap(rng)),
        lambda: ["--ka", "0.3", "0"],
    )
    return every[i % len(every)]()


class Digest:
    def __init__(self, log=None):
        self.sha = hashlib.sha256()
        self.runs = 0
        self.log = log  # text file for the per-run lines, or None
        self.branch = "-"  # the last `check` run's branch, for the log
        self.internal = 0  # runs that exit 2 or raise

    def run(self, argv, written=()):
        """Run one command, digest what it printed and wrote; returns
        (exit code, stdout)."""
        for name in written:
            Path(name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is output too
                code = f"raised {type(exc).__name__}: {exc}"
        if code == 2 or isinstance(code, str):
            self.internal += 1
        if argv[:1] == ["check"]:
            self.branch = json.loads(out.getvalue())["branch"] if code in (0, 1) else "-"
        # a warning's text, not the source line it names
        caught = [(w.category.__name__, str(w.message)) for w in caught]
        chunks = [repr((argv, code, out.getvalue(), err.getvalue(), caught)).encode()]
        for name in written:
            path = Path(name)
            chunks.append(path.read_bytes() if path.exists() else b"<none>")
        one = hashlib.sha256()
        for chunk in chunks:
            self.sha.update(chunk)
            one.update(chunk)
        if self.log is not None:
            shown = code if isinstance(code, int) else "raised"
            fields = (self.runs, shown, one.hexdigest(), argv[0] if argv else "-", self.branch)
            self.log.write("\t".join(map(str, fields)) + "\n")
        self.runs += 1
        return code, out.getvalue()


def _tampered(text, i):
    """Three edits of a measurement file: a scaled Alice label, Re H01 of a
    Bob piece after an announce label (Alice uses those on every branch)
    moved by 1e-3, and a 1e308 on an Alice diagonal."""
    scaled, skew, huge = (json.loads(text) for _ in range(3))
    alice = scaled["sequential"]["alice"]
    label = list(alice)[i % 7]
    alice[label] = [1.001 * v for v in alice[label]]
    skew["sequential"]["bob"][list(alice)[i % 3]][i % 4][3] += 1e-3  # Re H01
    huge["sequential"]["alice"][label][0] = 1e308  # H00
    return [json.dumps(d) for d in (scaled, skew, huge)]


def _damaged(text):
    """Seven broken copies of a measurement file, one per kind of bad piece the
    loader names: a bool, a string, a null and a NaN entry, a ragged and a short
    Bob row, and a missing Bob label."""
    docs = [json.loads(text) for _ in range(7)]
    blocks = [doc["sequential"] for doc in docs]
    blocks[0]["bob"]["announce2"][2][4] = True
    blocks[1]["bob"]["exclude1"][2][0] = "1.0"
    blocks[2]["alice"]["exclude1"][0] = None
    blocks[3]["alice"]["defer"][2] = math.nan
    row = blocks[4]["bob"]["exclude0"][1]
    blocks[4]["bob"]["exclude0"][1] = [row[:3], row[3:6], row[6:]]
    blocks[5]["bob"]["exclude0"][1].pop()
    del blocks[6]["bob"]["defer"]
    return [json.dumps(doc) for doc in docs]


# argv that the top-level parser or a command's parser refuses or answers with help
USAGE = (
    ["check", "--ka", "0.3", "0", "--kb", "0.25", "0", "extra", "--bogus"],
    ["construct", "-h"],
    ["verify", "--he"],
    ["construct", "--ka", "0.3", "0", "--kb", "0.25", "0", "--ou", "m.json"],
    ["verify", "--ka", "0.3", "0", "--kb", "0.25", "0", "--", "m.json"],
    ["check", "--ka", "0.5", "0.1", "--kb", "-1E-10", "0.3"],
    ["construct", "--ka", "0.3", "0", "--kb", "0.25", "0"],
    ["--help"],
    [],
    ["frobnicate"],
)


def main_digest(log=None):
    rng = np.random.default_rng(SEED)
    draws = _draws(rng)
    digest = Digest(log)
    routes = Counter()
    refused = Counter()  # own-pair verify runs that fail after construct succeeded
    sizes = []  # of every file construct wrote
    for i in range(PAIRS):
        ka, kb = draws[i % len(draws)]()
        pair = _pair_args(ka, kb)
        # drawn for every pair, so a verdict that changes leaves later draws alone
        wrong = _pair_args(*random_pair(rng))
        code, _ = digest.run(["check", *pair])
        branch = digest.branch
        if branch == "Orthogonal":  # Bob alone has no canonical form
            branch += "/kb~0" if abs(kb) < abs(ka) else "/ka~0"
        if code in (0, 1):
            routes[branch] += 1
        code, _ = digest.run(["construct", *pair, "--out", "m.json"], written=["m.json"])
        if code != 0:
            continue
        routes["built"] += 1
        text = Path("m.json").read_text()
        sizes.append(Path("m.json").stat().st_size)
        code, _ = digest.run(["verify", "m.json", *pair])
        if code != 0:
            refused[branch] += 1
        digest.run(["verify", "m.json", *wrong])
        for state in range(3):
            digest.run(["simulate", "--povm", "m.json", "--state", str(state),
                        "--shots", str(10 ** (1 + i % 5)), "--seed", str(i)])
        for bad in _tampered(text, i):
            Path("bad.json").write_text(bad)
            digest.run(["verify", "bad.json", *pair])
    for i in range(300):
        args = _modes(rng, i)
        digest.run(["check", *args])
        code, _ = digest.run(["construct", *args, "--out", "m.json"], written=["m.json"])
        if code == 0:
            sizes.append(Path("m.json").stat().st_size)
    digest.branch = "-"
    digest.run(["simulate", "--povm", "missing.json", "--state", "0", "--shots", "1",
                "--seed", "0"])
    for mode in ("complex-k", "psk-grid", "copies"):
        digest.run(["scan", "--mode", mode, "--resolution", "40", "--out", "scan.csv"],
                   written=["scan.csv"])
    digest.run(["curve", "--s-max", "3", "--step", "0.005", "--out", "curve.csv"],
               written=["curve.csv"])
    for argv in USAGE:
        digest.run(argv, written=["m.json"])
    digest.run(["construct", "--psk", "0.3", "0.3", "--out", "m.json"], written=["m.json"])
    for bad in _damaged(Path("m.json").read_text()):
        Path("bad.json").write_text(bad)
        digest.run(["verify", "bad.json", "--psk", "0.3", "0.3"])
        digest.run(["simulate", "--povm", "bad.json", "--state", "0", "--shots", "10",
                    "--seed", "0"])
    counts = " ".join(f"{k}={v}" for k, v in sorted(routes.items()))
    split = " ".join(f"{k}={v}" for k, v in sorted(refused.items()))
    print(f"{digest.sha.hexdigest()}  runs={digest.runs} pairs={PAIRS} {counts}"
          f" verify_refused={refused.total()} [{split}]"
          f" mean_bytes={sum(sizes) / len(sizes):.1f} over {len(sizes)} files")
    if digest.internal:
        print(f"{digest.internal} runs exit 2 or raise")
    if refused.total() > KNOWN_REFUSED:
        print(f"{refused.total()} pairs fail their own verify, more than the"
              f" {KNOWN_REFUSED} known near-tie refusals")
    return 1 if digest.internal or refused.total() > KNOWN_REFUSED else 0


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description="Digest the command-line output.")
    cli.add_argument("--runs", type=Path, metavar="FILE", help="also write one line per run")
    runs = cli.parse_args().runs
    with contextlib.ExitStack() as stack:
        log = None if runs is None else stack.enter_context(open(runs.resolve(), "w"))
        work = stack.enter_context(tempfile.TemporaryDirectory())
        os.chdir(work)
        status = main_digest(log)
    raise SystemExit(status)
