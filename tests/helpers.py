"""Shared test utilities: seeded random overlap draws, and the measurement
file's spelling of a piece, entry by entry."""

import numpy as np

from triseq import amplitudes_from_overlap
from triseq.errors import RankDeficient


def random_overlap(rng, lo=0.02, hi=0.95):
    """One overlap with modulus in [lo, hi), uniform phase, redrawn
    deterministically until the states have full rank."""
    while True:
        k = rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        try:
            amplitudes_from_overlap(k)
            return complex(k)
        except RankDeficient:
            continue


def random_pair(rng, lo=0.02, hi=0.95):
    return random_overlap(rng, lo, hi), random_overlap(rng, lo, hi)


def near_axis(rng):
    """A modulus on one of the six tie axes, turned 1e-14 to 1e-6 rad off it."""
    turn = rng.integers(6) * np.pi / 3 + rng.choice((-1, 1)) * 10 ** rng.uniform(-14, -6)
    return complex(rng.uniform(0.02, 0.95) * np.exp(1j * turn))


def packed(op):
    """A 3x3 piece as format 3 spells it: H00, H11, H22, then Re and Im of
    H01, H02, H12 (a Hermitian piece's lower triangle repeats the upper)."""
    op = np.asarray(op, dtype=complex)
    upper = (op[0, 1], op[0, 2], op[1, 2])
    return [float(op[n, n].real) for n in range(3)] + [
        float(part) for z in upper for part in (z.real, z.imag)]

