#!/usr/bin/env python3
"""Build a relay measurement, certify it, and round-trip it through disk.

Alice measures first and announces her label; Bob picks his four-outcome
measurement from that label.  The script checks the flattened instrument
against the usual operator conditions, runs the independent certificate,
writes the whole thing to JSON, and verifies the reloaded copy.
"""

import cmath
import os
import tempfile

import numpy as np

from triseq import (
    LABELS,
    build_sequential,
    check_global_optimality,
    dual_certificate,
    flatten,
    joint_states,
    load_povm,
    save_povm,
    state_vectors,
    verify_povm,
    verify_unambiguous,
)

KA = 0.2 * cmath.exp(1j * cmath.pi / 10)
KB = 0.3 * cmath.exp(1j * cmath.pi / 7)

report = check_global_optimality(KA, KB)
assert report.verdict, "pick a pair where the relay strategy keeps up"
pair = report.pair

seq = build_sequential(pair)
print(f"branch            {seq.branch}")
print(f"alice labels      {sorted(LABELS)}")
print(f"weights u         ({seq.weights[0]:.9f}, {seq.weights[1]:.9f},"
      f" {seq.weights[2]:.9f})")

flat = flatten(seq)
check = verify_povm(flat)
print(f"psd margin        {check.psd_margin:+.3e}")
print(f"completeness gap  {check.completeness:.3e}")

states = joint_states(state_vectors(pair))
success, leak = verify_unambiguous(flat, states)
print(f"success           {success:.12f}")
print(f"target p_global   {report.p_global:.12f}")
print(f"misidentify leak  {leak:.3e}")

cert = dual_certificate(pair, seq)
print(f"certificate ok, min witness margin {min(cert.psd_margin.values()):+.3e},"
      f" max kernel residual {max(cert.kernel_residual.values()):.3e}")

path = os.path.join(tempfile.mkdtemp(), "measurement.json")
save_povm(path, seq, KA, KB, success)
print(f"saved             {os.path.getsize(path)} bytes")

loaded = load_povm(path)
refl = flatten(loaded.seq)
assert all(np.array_equal(a, b) for a, b in zip(flat.outcomes, refl.outcomes))
print("reloaded outcomes match the originals bit for bit")
