"""State geometry for three symmetric pure states on two subsystems.

The states are Psi_r = a_r (x) b_r, r = 0, 1, 2, where each local triple
is generated from a seed vector by powers of the phase rotation
diag(1, tau, tau^2) with tau = exp(i 2pi/3).  Such a triple is fixed, up
to that rotation, by the single complex overlap K = <v_r|v_{r+1}>, and
its seed can be chosen with nonnegative components

    x_n = sqrt((1 + 2 Re(conj(tau^n) K)) / 3),   n = 0, 1, 2,

so x_n^2 are the Fourier weights of K.  Alice's triple comes from K_A,
Bob's from K_B.

Everything downstream wants a fixed orientation: Bob's weights sorted
descending and Alice's minimal weight in the last slot.  `canonicalize`
finds it by searching the 18 relabelings that leave the discrimination
problem invariant (rotating either overlap by tau and conjugating both
jointly), keeping the first hit in a fixed search order so equal inputs
always produce identical output.  `frame` pairs it with the state
vectors, and falls back to the raw amplitudes when Bob's overlap is
numerically zero and no such orientation exists.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateStates, DomainError, NoCanonicalForm, RankDeficient
from .numerics import TOL

TAU = cmath.exp(2j * cmath.pi / 3)
_TAU_S = tuple(TAU**s for s in range(3))  # rotation of a candidate overlap
_TAU_2N = tuple(TAU ** (2 * n) for n in range(3))  # phase of radicand n


class Transform(NamedTuple):
    """Relabeling that produced a canonical pair from the raw overlaps."""

    shift_a: int
    shift_b: int
    conjugated: bool


@dataclass(frozen=True)
class CanonicalPair:
    """Overlap pair in canonical orientation.

    ka, kb: transformed overlaps
    x, y:   Alice / Bob amplitude triples for ka, kb
    perm:   index permutation pairing basis slot n with the joint-amplitude
            rank ordering; perm[0] marks the minimal joint amplitude and
            perm is an involution (perm[perm[k]] == k)
    record: the transform that was applied
    """

    ka: complex
    kb: complex
    x: tuple[float, float, float]
    y: tuple[float, float, float]
    perm: tuple[int, int, int]
    record: Transform


@dataclass(frozen=True)
class StateVectors:
    """Component vectors of the three states; row r of `a` is Alice's a_r."""

    a: np.ndarray
    b: np.ndarray


def _check_overlap(k) -> complex:
    k = complex(k)
    if not cmath.isfinite(k):
        raise DomainError(f"overlap must be finite, got {k!r}")
    if abs(k) > 1.0:
        raise DegenerateStates(f"|K| = {abs(k):.15g} exceeds 1: no states have this overlap")
    if abs(k) >= 1.0 - TOL.degenerate:
        raise DegenerateStates(f"|K| = {abs(k):.15g} is too close to 1")
    return k


def coherent_overlap(alpha, beta) -> complex:
    """Overlap <alpha|beta> of two coherent states of one bosonic mode."""
    alpha = complex(alpha)
    beta = complex(beta)
    return cmath.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + alpha.conjugate() * beta)


def psk_overlap(s) -> complex:
    """Neighbor overlap of ternary phase-shift-keyed coherent states.

    args: s -- mean photon number |alpha|^2, s > 0
    """
    s = float(s)
    if s < 0:
        raise DomainError(f"mean photon number must be >= 0, got {s}")
    if s == 0:
        raise DegenerateStates("zero photons: all three signals coincide")
    return cmath.exp(s * (TAU - 1))


def lifted_trine_overlap(g) -> complex:
    """Overlap (3g - 1)/2 of the lifted trine family with lift 0 < g < 1."""
    g = float(g)
    if not 0.0 < g < 1.0:
        raise DomainError(f"lift parameter must be in (0, 1), got {g}")
    return complex((3.0 * g - 1.0) / 2.0)


def ppm_overlap(alpha, beta) -> complex:
    """Overlap of two-slot pulse-position signals built from coherent pulses.

    Each signal puts the pulse in one of two time slots; the cross overlap
    is |<alpha|beta>|^2, always real and nonnegative.
    """
    k = coherent_overlap(alpha, beta)
    return _check_overlap(abs(k) ** 2)


def _radicands(k: complex) -> tuple[float, float, float]:
    return (
        (1.0 + 2.0 * (_TAU_2N[0] * k).real) / 3.0,
        (1.0 + 2.0 * (_TAU_2N[1] * k).real) / 3.0,
        (1.0 + 2.0 * (_TAU_2N[2] * k).real) / 3.0,
    )


def _sqrt3(r) -> tuple[float, float, float]:
    return (math.sqrt(r[0]), math.sqrt(r[1]), math.sqrt(r[2]))


def _amplitudes(k: complex) -> tuple[float, float, float]:
    # amplitudes_from_overlap for an overlap that already passed _check_overlap
    rad = _radicands(k)
    if min(rad) <= TOL.tie**2:
        raise RankDeficient(f"squared amplitudes {rad} include a numerical zero")
    return _sqrt3(rad)


def amplitudes_from_overlap(k) -> tuple[float, float, float]:
    """Nonnegative seed amplitudes (x_0, x_1, x_2) realizing overlap k.

    post:   sum of squares is 1 and sum_n x_n^2 tau^n reproduces k
    raises: DegenerateStates if |k| is numerically 1,
            RankDeficient if any squared amplitude is <= TOL.tie^2
    """
    return _amplitudes(_check_overlap(k))


def _joint_squares(x, y) -> tuple[float, float, float]:
    # sum_k x_k^2 y_{(n-k) mod 3}^2, summed in k order: the order fixes the
    # last bit of the joint amplitudes and p_global that reports print
    x0, x1, x2 = x[0] ** 2, x[1] ** 2, x[2] ** 2
    y0, y1, y2 = y[0] ** 2, y[1] ** 2, y[2] ** 2
    return (
        x0 * y0 + x1 * y2 + x2 * y1,
        x0 * y1 + x1 * y0 + x2 * y2,
        x0 * y2 + x1 * y1 + x2 * y0,
    )


def _rank(tj) -> tuple[int, int, int]:
    # rank permutation of joint squares tj: slot 0 marks the minimum
    return (2, 1, 0) if tj[0] >= tj[2] else (0, 2, 1)


def _validated(ka, kb):
    # each overlap checked once: (ka, kb, x, y) with their seed amplitudes
    ka = _check_overlap(ka)
    kb = _check_overlap(kb)
    return ka, kb, _amplitudes(ka), _amplitudes(kb)


def canonicalize(ka, kb) -> CanonicalPair:
    """Rotate/conjugate the overlap pair into canonical orientation.

    Candidates are ka -> tau^sa * C(ka), kb -> tau^sb * C(kb) with C either
    identity or (jointly) conjugation.  Accepted orientation:

        x_0 > x_2 - tie,  x_1 >= x_2 - tie      (Alice: minimum in slot 2)
        y_0 >= y_1 >= y_2 within tie, y_0 - y_2 > tie   (Bob: descending)

    The first candidate in lexicographic (conjugated, shift_a, shift_b)
    order wins, so the result is deterministic.  Each overlap is validated
    once; the first candidate (no rotation, no conjugation) reuses the
    amplitudes that validation computed, and every other candidate triple
    is computed at most once, from its own rotated overlap.

    raises: RankDeficient (propagated; the radicand multiset is transform-
            invariant), NoCanonicalForm when Bob's amplitudes cannot be
            strictly separated (kb numerically zero)
    """
    return _orient(*_validated(ka, kb))


def _orient(ka: complex, kb: complex, x0, y0) -> CanonicalPair:
    # canonicalize for validated overlaps whose amplitudes are x0, y0
    tie = TOL.tie
    for conj in (False, True):
        base_a = ka.conjugate() if conj else ka
        base_b = kb.conjugate() if conj else kb
        ys = [None if conj else y0, None, None]  # Bob's triple per sb
        for sa in (0, 1, 2):
            rot_a = _TAU_S[sa] * base_a
            x = x0 if sa == 0 and not conj else _sqrt3(_radicands(rot_a))
            if not (x[0] - x[2] > -tie and x[1] - x[2] >= -tie):
                continue
            for sb in (0, 1, 2):
                y = ys[sb]
                if y is None:
                    y = ys[sb] = _sqrt3(_radicands(_TAU_S[sb] * base_b))
                if y[0] - y[1] >= -tie and y[1] - y[2] >= -tie and y[0] - y[2] > tie:
                    return CanonicalPair(
                        ka=rot_a,
                        kb=_TAU_S[sb] * base_b,
                        x=x,
                        y=y,
                        perm=_rank(_joint_squares(x, y)),
                        record=Transform(sa, sb, conj),
                    )
    raise NoCanonicalForm("Bob's amplitudes cannot be separated; kb is numerically 0")


def _vectors(x, y) -> StateVectors:
    a = np.array([[x[n] * TAU ** (r * n) for n in range(3)] for r in range(3)])
    b = np.array([[y[n] * TAU ** (r * n) for n in range(3)] for r in range(3)])
    return StateVectors(a=a, b=b)


def state_vectors(pair: CanonicalPair) -> StateVectors:
    """Explicit component vectors a_r, b_r for a canonical pair.

    post: rows are unit vectors and <v_r|v_{r+1}> equals the canonical
          overlap on each side
    """
    return _vectors(pair.x, pair.y)


def frame(ka, kb) -> tuple[CanonicalPair | None, StateVectors]:
    """The orientation every measurement on this overlap pair is built in.

    returns: (pair, state_vectors(pair)), or (None, vectors from the raw
             amplitudes of ka, kb) when no canonical form exists
    raises:  DegenerateStates / RankDeficient from state validation
    """
    ka, kb, x, y = _validated(ka, kb)
    try:
        pair = _orient(ka, kb, x, y)
    except NoCanonicalForm:
        return None, _vectors(x, y)
    return pair, state_vectors(pair)
