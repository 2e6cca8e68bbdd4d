"""The three benchmark workloads: seeded inputs, timed operations, output checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs come from a `random.Random`
seeded by (workload, seed), so the same seed always yields the same input
stream; the program only ever sees the generated overlaps or argv.

A workload has one operation function, `op(op, call)`: every public call it
makes goes through the hook `call(name, fn, *args)`.  The untraced loop
passes `PLAIN`, which just calls; the traced loop passes a tracer hook that
records a span around each call.  The operation is timed as a whole, and its
output is checked afterwards, outside the timed region.  A check returns
None when the output is right, or a failure record naming the input.

The seed program is wrong on part of the near-tie band (ROADMAP open item
2): pairs with an overlap whose phase is within 1e-6 rad of a tie axis (a
multiple of pi/3) without lying on it.  The timed stream (`inputs`) stays
outside that band, so every timed op has a right answer to check against and
any timed failure is a real one.  The band is checked instead by the untimed
near-tie probe (`near_tie_probe`), which draws the workload's near-tie ops
and lists every failing input.  A probe failure is `known` when its kind is
one the seed already shows (the workload's `known` kinds); any other kind is
a new defect.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random

import numpy as np

from triseq import (
    build_sequential,
    canonicalize,
    check_copies_psk,
    check_global_optimality,
    diagonal_point,
    dual_certificate,
    flatten,
    hermitian_eigen,
    identity_membership,
    in_triangle,
    joint_states,
    level_curve,
    level_vector,
    load_povm,
    outcome_triangle,
    sample_outcomes,
    save_povm,
    solve_weights,
    state_vectors,
    verify_povm,
    verify_unambiguous,
)
from triseq.cli import main as cli_main
from triseq.errors import DegenerateStates, DomainError, RankDeficient

from tracing import timed

TAU = cmath.exp(2j * cmath.pi / 3)
NA_ERRORS = (DegenerateStates, RankDeficient)
SHOTS = 10_000
CURVE_SAMPLES = 200
BOUNDARY_BAND = 1e-7  # criterion 3/6 band where the verdict routes may disagree
TRIANGLE_SLACK = 1e-8  # criterion 6 slack for curve points
NEAR_TIE_RAD = 1e-6  # width of the near-tie band (ROADMAP open item 2)


# ---------------------------------------------------------------- inputs


def radicands(k: complex):
    """Squared seed amplitudes (1 + 2 Re(conj(tau^n) k)) / 3, computed here
    independently of the package."""
    return [(1.0 + 2.0 * (k * TAU ** (-n)).real) / 3.0 for n in range(3)]


def in_domain(k: complex) -> bool:
    """Clearly inside the state domain: not near-degenerate, full rank with margin."""
    return abs(k) <= 1.0 - 1e-9 and min(radicands(k)) >= 1e-12


def tie_distance(k: complex) -> float:
    """Phase distance (rad) of k from the nearest tie axis, a multiple of pi/3."""
    step = math.pi / 3.0
    phi = cmath.phase(k)
    return abs((phi + step / 2.0) % step - step / 2.0)


def near_tie(*ks) -> bool:
    return any(abs(k) > 0.0 and 0.0 < tie_distance(k) <= NEAR_TIE_RAD for k in ks)


def psk(s: float) -> complex:
    """Phase-keyed coherent-state overlap exp(s (tau - 1))."""
    return cmath.exp(s * (TAU - 1.0))


def generic(rng: random.Random) -> complex:
    """Modulus uniform in [0.02, 0.95), uniform phase, redrawn until in domain."""
    while True:
        k = cmath.rect(rng.uniform(0.02, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        if in_domain(k):
            return k


def near_tie_overlap(rng: random.Random) -> complex:
    """Modulus in [0.02, 0.95), phase 1e-12 to 1e-6 rad off the positive real axis."""
    phase = 10.0 ** rng.uniform(-12.0, -6.0) * rng.choice((-1.0, 1.0))
    return cmath.rect(rng.uniform(0.02, 0.95), phase)


def near_zero(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.0, 1e-9), rng.uniform(0.0, 2.0 * math.pi))


def positive_real(rng: random.Random) -> complex:
    return complex(rng.uniform(0.02, 0.95), 0.0)


def pick(rng: random.Random, mix):
    """Draw a key from [(key, weight), ...]."""
    r = rng.uniform(0.0, sum(w for _, w in mix))
    for key, w in mix:
        r -= w
        if r < 0.0:
            return key
    return mix[-1][0]


def relabel(k: complex, shift: int, conj: bool) -> complex:
    return TAU**shift * (k.conjugate() if conj else k)


def spell(v: float) -> str:
    """Exact positional spelling; argparse reads it as a number, never a flag."""
    return np.format_float_positional(v, unique=True, trim="-")


def PLAIN(_name, fn, *args):
    """The untraced call hook."""
    return fn(*args)


def cplx(k: complex):
    return [k.real, k.imag]


class Workload:
    mix = (("generic", 1),)  # (kind, weight) of the timed stream
    known = ()  # failure kinds the seed program shows on near-tie inputs
    probe_ops = 0  # ops of the near-tie probe

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def inputs(self, rng: random.Random):
        """The timed stream: ops drawn from `mix`, redrawn inside the near-tie band."""
        while True:
            op = self.draw(rng, pick(rng, self.mix))
            if not self.near(op):
                yield op

    def near(self, op) -> bool:
        return near_tie(op["ka"], op["kb"])

    def failure(self, kind, detail, op, **inputs):
        return {"kind": kind, "detail": detail, "near_tie": self.near(op), "inputs": inputs}

    def probe(self, op, out, tr, op_id):
        """Time, as probe spans, the inner steps the op's public calls make."""


# ---------------------------------------------------------------- decide


class Decide(Workload):
    """Traffic of `scan` and of `check_global_optimality` library calls."""

    mix = (
        ("generic", 55),
        ("psk", 15),
        ("diagonal", 10),
        ("kb_real", 8),
        ("kb_zero", 2),
        ("copies", 5),
    )
    known = ("relabel_flip",)
    probe_ops = 2000

    def draw(self, rng: random.Random, kind):
        shift = (rng.randrange(3), rng.randrange(3), rng.random() < 0.5)
        if kind == "copies":
            return {"kind": kind, "s": rng.uniform(0.01, 4.0), "n": rng.randint(2, 12),
                    "relabel": shift}
        if kind == "generic":
            ka, kb = generic(rng), generic(rng)
        elif kind == "psk":
            ka, kb = psk(rng.uniform(0.01, 4.0)), psk(rng.uniform(0.01, 4.0))
        elif kind == "diagonal":  # `scan --mode complex-k` default square
            ka = kb = complex(rng.uniform(-0.5, 1.0), rng.uniform(-0.87, 0.87))
        elif kind == "kb_real":
            ka, kb = generic(rng), positive_real(rng)
        elif kind == "near_tie":
            ka, kb = generic(rng), near_tie_overlap(rng)
            if rng.random() < 0.5:
                ka, kb = kb, ka
        else:  # kb_zero
            ka, kb = generic(rng), near_zero(rng)
        return {"kind": kind, "ka": ka, "kb": kb, "relabel": shift}

    def near(self, op) -> bool:
        if op["kind"] == "copies":  # every level's overlap pair
            s, n = op["s"], op["n"]
            return near_tie(*(psk(m * s / n) for m in range(1, n)))
        return super().near(op)

    def op(self, op, call):
        if op["kind"] == "copies":
            return call("multipartite.check_copies_psk", check_copies_psk, op["s"], op["n"])
        return call("optimality.check_global_optimality", check_global_optimality,
                    op["ka"], op["kb"])

    def probe(self, op, out, tr, op_id):
        if op["kind"] != "copies" and not isinstance(out, Exception) and out.pair is not None:
            tr.hook("probe", op_id)("states.canonicalize", canonicalize, op["ka"], op["kb"])

    def first_op(self, op, work):
        if op["kind"] == "copies":
            return {"call": "copies", "s": op["s"], "n": op["n"]}
        return {"call": "decide", "ka": cplx(op["ka"]), "kb": cplx(op["kb"])}

    def check(self, op, out):
        sa, sb, conj = op["relabel"]
        if op["kind"] == "copies":
            return self._check_copies(op, out, sa, conj)
        ka, kb = op["ka"], op["kb"]
        inputs = {"ka": cplx(ka), "kb": cplx(kb), "relabel": [sa, sb, conj]}
        if isinstance(out, NA_ERRORS):
            if in_domain(ka) and in_domain(kb):
                return self.failure("na_in_domain", repr(out), op, **inputs)
            return None
        if isinstance(out, Exception):
            return self.failure("exception", repr(out), op, **inputs)
        try:
            other = check_global_optimality(relabel(ka, sa, conj), relabel(kb, sb, conj))
        except Exception as exc:
            return self.failure("relabel_exception", repr(exc), op, **inputs)
        if other.verdict != out.verdict:
            return self.failure(
                "relabel_flip",
                f"{out.branch}/{out.verdict} became {other.branch}/{other.verdict}",
                op, **inputs,
            )
        return None

    def _check_copies(self, op, out, shift, conj):
        """The returned level must be the first whose relabeled verdict fails."""
        s, n = op["s"], op["n"]
        inputs = {"s": s, "n": n, "relabel": [shift, conj]}
        ka = psk(s / n)
        if isinstance(out, Exception):
            return self.failure("exception", repr(out), op, **inputs)
        expect = (True, None)
        for lvl in range(n - 1):
            kb = psk((n - lvl - 1) * s / n)
            if not check_global_optimality(relabel(ka, shift, conj),
                                           relabel(kb, shift, conj)).verdict:
                expect = (False, lvl)
                break
        if tuple(out) != expect:
            return self.failure("copies_mismatch", f"{tuple(out)} != {expect}", op, **inputs)
        return None


# ---------------------------------------------------------------- roundtrip


def _cli(argv):
    """Run main() in-process with captured output; returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_argvs(op, path):
    """argv of the construct, verify and simulate calls of one roundtrip op."""
    return (
        ["construct", *op["mode"], "--out", path],
        ["verify", path, *op["mode"]],
        ["simulate", "--povm", path, "--state", str(op["state"]),
         "--shots", str(SHOTS), "--seed", str(op["sim_seed"])],
    )


class Roundtrip(Workload):
    """The CLI path users run: construct, then verify and simulate the file."""

    mix = (
        ("generic", 30),
        ("ka_real", 12),
        ("kb_real", 12),
        ("psk", 14),
        ("trine", 8),
        ("ppm", 8),
        ("kb_zero", 4),
    )

    # both seen at the seed on near-tie pairs: construct exits 0 and verify 1
    # (about 15% of them), and construct exits 1 on a verdict-true pair when
    # the build finds a weight of about -1e-8 (about 1 in 2400)
    known = ("construct_ok_then", "construct_refused")
    probe_ops = 100

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self.path = os.path.join(work_dir, "roundtrip.json")
        self.probe_path = os.path.join(work_dir, "probe.json")

    def draw(self, rng: random.Random, kind):
        if kind == "psk":
            sa, sb = rng.uniform(0.01, 4.0), rng.uniform(0.01, 4.0)
            mode = ["--psk", spell(sa), spell(sb)]
            ka, kb = psk(sa), psk(sb)
        elif kind == "trine":
            g = rng.uniform(0.011, 0.989)
            mode = ["--trine", spell(g)]
            ka = kb = complex((3.0 * g - 1.0) / 2.0)
        elif kind == "ppm":
            while True:
                parts = [rng.uniform(-1.5, 1.5) for _ in range(4)]
                d2 = (parts[0] - parts[2]) ** 2 + (parts[1] - parts[3]) ** 2
                if d2 >= 0.01:
                    break
            mode = ["--ppm", *(spell(v) for v in parts)]
            ka = kb = complex(math.exp(-d2))
        else:
            if kind == "generic":
                ka, kb = generic(rng), generic(rng)
            elif kind == "ka_real":
                ka, kb = positive_real(rng), generic(rng)
            elif kind == "kb_real":
                ka, kb = generic(rng), positive_real(rng)
            elif kind == "near_tie":
                ka, kb = generic(rng), near_tie_overlap(rng)
                if rng.random() < 0.5:
                    ka, kb = kb, ka
            else:  # kb_zero
                ka, kb = generic(rng), near_zero(rng)
            mode = ["--ka", spell(ka.real), spell(ka.imag),
                    "--kb", spell(kb.real), spell(kb.imag)]
        return {"kind": kind, "mode": mode, "ka": ka, "kb": kb,
                "state": rng.randrange(3), "sim_seed": rng.randrange(2**31)}

    def op(self, op, call):
        construct, verify, simulate = cli_argvs(op, self.path)
        codes = [call("cli.construct", _cli, construct)]
        if codes[0][0] == 0:
            codes.append(call("cli.verify", _cli, verify))
            codes.append(call("cli.simulate", _cli, simulate))
        return codes

    def probe(self, op, out, tr, op_id):
        """Time the library steps that construct/verify/simulate run inside main()."""
        call = tr.hook("probe", op_id)
        report = call("optimality.check_global_optimality", check_global_optimality,
                      op["ka"], op["kb"])
        if isinstance(report, Exception) or report.pair is None:
            return
        call("states.canonicalize", canonicalize, op["ka"], op["kb"])
        if report.verdict:
            probe_chain(tr, "probe", op_id, report.pair, op["ka"], op["kb"], self.probe_path)

    def first_op(self, op, work):
        return {"call": "cli", "argvs": cli_argvs(op, os.path.join(work, "first_op.json"))}

    def check(self, op, out):
        inputs = {"argv": op["mode"]}
        if isinstance(out, Exception):
            return self.failure("exception", repr(out), op, **inputs)
        codes = [code for code, _ in out]
        if codes[:2] == [0, 1]:
            # the seed's recorded defect: verify rejects the file construct wrote;
            # simulate then fails on the same file too (exit 2 at the seed)
            return self.failure("construct_ok_then", f"exit codes {codes}", op, **inputs)
        if 2 in codes:
            return self.failure("exit_2", f"exit codes {codes}", op, **inputs)
        if codes[0] != 0:
            if codes[0] == 1:
                try:
                    verdict = check_global_optimality(op["ka"], op["kb"]).verdict
                except Exception as exc:
                    return self.failure("check_exception", repr(exc), op, **inputs)
                if not verdict:
                    return None  # clean refusal of a verdict-false pair
            return self.failure("construct_refused", f"construct exit {codes[0]}", op, **inputs)
        if codes[1:] != [0, 0]:
            return self.failure("verify_or_simulate_failed", f"exit codes {codes}", op,
                                **inputs)
        counts = json.loads(out[2][1])["counts"]
        if sum(counts) != SHOTS:
            return self.failure("shot_count", f"counts {counts} sum != {SHOTS}", op, **inputs)
        return None


def probe_chain(tr, kind, op_id, pair, ka, kb, path):
    """Every povm/serialize/numerics step of a build-save-load-verify round trip."""
    call = tr.hook(kind, op_id)
    seq = call("povm.build_sequential", build_sequential, pair)
    if isinstance(seq, Exception):
        return
    if seq.branch != "PositiveRealB":  # the product branch solves no weight system
        call("povm.solve_weights", solve_weights, pair)
    flat = call("povm.flatten", flatten, seq)
    success, _ = call("povm.verify_unambiguous",
                      lambda: verify_unambiguous(flat, joint_states(state_vectors(pair))))
    call("povm.save_povm", save_povm, path, seq, ka, kb, success)
    tr.count("povm.save_povm.bytes", kind, os.path.getsize(path))
    loaded = call("povm.load_povm", load_povm, path)
    call("povm.verify_povm", verify_povm, loaded.povm)
    call("numerics.hermitian_eigen", hermitian_eigen, loaded.povm.outcomes[0])
    call("povm.dual_certificate", dual_certificate, pair, seq)
    state = joint_states(state_vectors(pair))[0]
    call("povm.sample_outcomes", sample_outcomes, loaded.povm, state, SHOTS, 1)


# ---------------------------------------------------------------- plane


def boundary_margin(report) -> float:
    """Normalized distance from a verdict boundary (criterion 3's measure)."""
    x, z = report.pair.x, report.offsets
    s1 = x[2] * abs(z[0]) + x[1] * abs(z[1])
    iz = [v**-2 for v in z]
    s2 = sum(x[k] ** 2 * (abs(iz[(1 - k) % 3]) + abs(iz[(3 - k) % 3])) for k in range(3))
    return min(abs(report.c1) / s1, abs(report.c2) / s2)


def inside(point, tri, slack) -> bool:
    """Barycentric membership with slack, independent of geometry.in_triangle
    except on a collinear triangle, which that function tests as a segment."""
    if tri.degenerate:
        return in_triangle(point, tri, slack)
    (ax, ay), (bx, by), (cx, cy) = (tri.e1.u, tri.e1.v), (tri.e2.u, tri.e2.v), (tri.e3.u, tri.e3.v)
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    px, py = point.u, point.v
    w1 = ((bx - px) * (cy - py) - (cx - px) * (by - py)) / det
    w2 = ((cx - px) * (ay - py) - (ax - px) * (cy - py)) / det
    return min(w1, w2, 1.0 - w1 - w2) >= -slack


def plane_chain(report, call):
    tri = call("geometry.outcome_triangle", outcome_triangle, report.pair)
    member = call("geometry.identity_membership", identity_membership, report.pair)
    curve = call("geometry.level_curve", level_curve, report.pair, CURVE_SAMPLES)
    return report, tri, member, curve


class Plane(Workload):
    """Boundary geometry of demo boundary_geometry.py and acceptance criterion 6."""

    def draw(self, rng: random.Random, kind):
        return {"kind": kind, "ka": generic(rng), "kb": generic(rng)}

    def op(self, op, call):
        report = call("optimality.check_global_optimality", check_global_optimality,
                      op["ka"], op["kb"])
        return plane_chain(report, call)

    def probe(self, op, out, tr, op_id):
        if isinstance(out, Exception):
            return
        report = out[0]
        call = tr.hook("probe", op_id)
        call("states.canonicalize", canonicalize, op["ka"], op["kb"])
        vec = level_vector(report.pair, report.threshold)
        call("geometry.diagonal_point", diagonal_point, np.outer(vec, vec.conj()),
             report.pair.perm)

    def first_op(self, op, work):
        return {"call": "plane", "ka": cplx(op["ka"]), "kb": cplx(op["kb"])}

    def check(self, op, out):
        inputs = {"ka": cplx(op["ka"]), "kb": cplx(op["kb"])}
        if isinstance(out, DomainError):
            return None  # tie branch: the triangle is undefined, a clean refusal
        if isinstance(out, Exception):
            return self.failure("exception", repr(out), op, **inputs)
        report, tri, member, curve = out
        if member != report.verdict and boundary_margin(report) >= BOUNDARY_BAND:
            return self.failure("membership", f"membership {member} != verdict {report.verdict}",
                                op, **inputs)
        if len(curve) != CURVE_SAMPLES + 1:
            return self.failure("curve_length", f"{len(curve)} points", op, **inputs)
        outside = sum(1 for _, p in curve if not inside(p, tri, TRIANGLE_SLACK))
        if outside:
            return self.failure("curve_outside", f"{outside} points outside", op, **inputs)
        return None


# ---------------------------------------------------------------- near-tie probe


def near_tie_probe(wl, rng: random.Random):
    """Check `wl.probe_ops` near-tie ops, untimed; returns their failure records.

    These are the inputs the timed stream leaves out.  Each record is marked
    `known` when its kind is one the seed program already shows.
    """
    failures = []
    for _ in range(wl.probe_ops):
        op = wl.draw(rng, "near_tie")
        record = wl.check(op, timed(wl.op, op, PLAIN)[0])
        if record:
            record["known"] = record["kind"] in wl.known
            failures.append(record)
    return failures


# ---------------------------------------------------------------- sweep


def sweep(tr, rng: random.Random, work_dir, count: int):
    """Time every traced function on `count` generic verdict-true pairs.

    A workload's own operations reach only some layers; the sweep gives every
    per-layer `.us` a measured value.  Sweep calls never enter `.calls` or
    `.share`.
    """
    path = os.path.join(work_dir, "sweep.json")
    done = 0
    while done < count:
        ka, kb = generic(rng), generic(rng)
        report = check_global_optimality(ka, kb)
        if not report.verdict or report.branch != "Inequality":
            continue
        op_id = -1 - done
        call = tr.hook("sweep", op_id)
        call("optimality.check_global_optimality", check_global_optimality, ka, kb)
        call("states.canonicalize", canonicalize, ka, kb)
        s = rng.uniform(0.01, 4.0)
        call("multipartite.check_copies_psk", check_copies_psk, s, rng.randint(2, 12))
        probe_chain(tr, "sweep", op_id, report.pair, ka, kb, path)
        plane_chain(report, call)
        vec = level_vector(report.pair, report.threshold)
        call("geometry.diagonal_point", diagonal_point, np.outer(vec, vec.conj()),
             report.pair.perm)
        op = {"mode": ["--ka", spell(ka.real), spell(ka.imag),
                       "--kb", spell(kb.real), spell(kb.imag)],
              "state": 0, "sim_seed": 1}
        for name, argv in zip(("cli.construct", "cli.verify", "cli.simulate"),
                              cli_argvs(op, path)):
            call(name, _cli, argv)
        done += 1


# ---------------------------------------------------------------- exponent probe


def exp_notation_rejects(ops, limit: int):
    """Count valid overlap pairs that `check` accepts in positional notation
    but rejects (exit 64) when spelled as the CLI's own `.17g` output spells
    them.  Untimed.  Returns (rejects, probed, first rejected argv)."""
    rejects, probed, example = 0, 0, None
    for op in ops:
        if probed >= limit:
            break
        ka, kb = op.get("ka"), op.get("kb")
        if ka is None or not (in_domain(ka) and in_domain(kb)):
            continue
        probed += 1
        exp = ["--ka", format(ka.real, ".17g"), format(ka.imag, ".17g"),
               "--kb", format(kb.real, ".17g"), format(kb.imag, ".17g")]
        pos = ["--ka", spell(ka.real), spell(ka.imag), "--kb", spell(kb.real), spell(kb.imag)]
        if exp == pos:
            continue
        code, _ = _cli(["check", *exp])
        if code == 64 and _cli(["check", *pos])[0] != 64:
            rejects += 1
            example = example or ["check", *exp]
    return rejects, probed, example


WORKLOADS = {"decide": Decide, "roundtrip": Roundtrip, "plane": Plane}
