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
descending, Alice's minimal weight in the last slot and a weight tied with
it (within TOL.tie) in the middle one.  The 18 relabelings that leave the
problem invariant (rotating either overlap by tau, conjugating both
jointly) only permute a triple, x(tau^s K)_n = x(K)_{n-s} and
x(tau^s conj(K))_n = x(K)_{s-n}, so `canonicalize` permutes the one triple
it computes per overlap: the conjugation and Bob's shift first, then Alice's
shift, still the first hit in (conjugated, shift_a, shift_b) order.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DegenerateStates, DomainError, NoCanonicalForm, RankDeficient
from .numerics import TOL

TAU = cmath.exp(2j * cmath.pi / 3)
_TAU_S = tuple(TAU**s for s in range(3))  # rotation of a candidate overlap
_TAU_2N = tuple(TAU ** (2 * n) for n in range(3))  # phase of radicand n
_PERM = (  # _PERM[conj][s][n]: the slot of K's triple that holds amplitude n
    ((0, 1, 2), (2, 0, 1), (1, 2, 0)),  # of tau^s * K, x(K)_{n-s}
    ((0, 2, 1), (1, 0, 2), (2, 1, 0)),  # of tau^s * conj(K), x(K)_{s-n}
)


class Transform(NamedTuple):
    """Relabeling that produced a canonical pair from the raw overlaps."""

    shift_a: int
    shift_b: int
    conjugated: bool


class CanonicalPair(NamedTuple):
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


def _check_overlap(k) -> complex:
    k = complex(k)
    if not cmath.isfinite(k):
        raise DomainError(f"overlap must be finite, got {k!r}")
    try:
        r = abs(k)
    except OverflowError:  # finite parts, modulus beyond the float range
        r = math.inf
    if r >= 1.0 - TOL.degenerate:
        if r > 1.0:
            raise DegenerateStates(f"|K| = {r:.15g} exceeds 1: no states have this overlap")
        raise DegenerateStates(f"|K| = {r:.15g} is too close to 1")
    return k


def coherent_overlap(alpha, beta) -> complex:
    """Overlap <alpha|beta> of two coherent states of one bosonic mode."""
    alpha = complex(alpha)
    beta = complex(beta)
    exponent = -_intensity(alpha) / 2 - _intensity(beta) / 2 + alpha.conjugate() * beta
    try:
        return cmath.exp(exponent)
    except OverflowError:  # cancellation near alpha == beta rounds it up
        raise DomainError(f"coherent amplitudes {alpha!r}, {beta!r} are too large") from None


def _intensity(amplitude: complex) -> float:
    # |amplitude|^2; beyond about 1.34e154 it overflows the float range
    try:
        return abs(amplitude) ** 2
    except OverflowError:
        raise DomainError(f"coherent amplitude {amplitude!r} is too large") from None


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


def _amplitudes(k: complex) -> tuple[float, float, float]:
    # amplitudes_from_overlap for an overlap that already passed _check_overlap
    rad = (
        (1.0 + 2.0 * (_TAU_2N[0] * k).real) / 3.0,
        (1.0 + 2.0 * (_TAU_2N[1] * k).real) / 3.0,
        (1.0 + 2.0 * (_TAU_2N[2] * k).real) / 3.0,
    )
    if min(rad) <= 0.0:
        why = "a numerical zero" if min(rad) == 0.0 else "a negative: no states have this overlap"
        raise RankDeficient(f"squared amplitudes {rad} include {why}")
    return (math.sqrt(rad[0]), math.sqrt(rad[1]), math.sqrt(rad[2]))


def amplitudes_from_overlap(k) -> tuple[float, float, float]:
    """Nonnegative seed amplitudes (x_0, x_1, x_2) realizing overlap k.

    post:   sum of squares is 1 and sum_n x_n^2 tau^n reproduces k
    raises: DegenerateStates if |k| is numerically 1,
            RankDeficient if any squared amplitude (radicand) is <= 0
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
    ka, kb = _check_overlap(ka), _check_overlap(kb)
    return ka, kb, _amplitudes(ka), _amplitudes(kb)


def canonicalize(ka, kb) -> CanonicalPair:
    """Rotate/conjugate the overlap pair into canonical orientation.

    Candidates are ka -> tau^sa * C(ka), kb -> tau^sb * C(kb) with C either
    identity or (jointly) conjugation; each candidate triple is a
    permutation of the validated one.  With d_n = x_n - x_2, accepted:

        d_0 > -tie, d_1 >= -tie, d_0 > tie or d_1 <= tie
            (Alice: minimum in slot 2, a minimum tied with it in slot 1)
        y_0 >= y_1 >= y_2 within tie, y_0 - y_2 > tie   (Bob: descending)

    The first candidate in lexicographic (conjugated, shift_a, shift_b)
    order wins.  As Bob's test reads only y and Alice's only x, it is Bob's
    first passing shift under the first conjugation that has one, then
    Alice's first passing shift under that conjugation.

    raises: RankDeficient (propagated; the radicand multiset is transform-
            invariant), NoCanonicalForm when Bob's amplitudes cannot be
            strictly separated (kb numerically zero)
    """
    return _orient(*_validated(ka, kb))[0]


def _orient(ka: complex, kb: complex, x0, y0):
    # canonicalize for validated overlaps whose amplitudes are x0, y0, with
    # the joint squares it ranked: (CanonicalPair, joint squares)
    tie = TOL.tie
    for conj in (False, True):
        perms = _PERM[conj]
        for sb, (i, j, k) in enumerate(perms):
            b0, b1, b2 = y0[i], y0[j], y0[k]
            if b0 - b1 >= -tie and b1 - b2 >= -tie and b0 - b2 > tie:
                break
        else:
            continue
        # some shift always passes: the one putting the minimum last, or, if
        # only slot 0 ties with it there, the rotation after that
        for sa, (i, j, k) in enumerate(perms):
            a0, a1, a2 = x0[i], x0[j], x0[k]
            d0, d1 = a0 - a2, a1 - a2
            if d0 > -tie and d1 >= -tie and (d0 > tie or d1 <= tie):
                break
        if conj:
            ka, kb = ka.conjugate(), kb.conjugate()
        x, y = (a0, a1, a2), (b0, b1, b2)
        tj_sq = _joint_squares(x, y)
        record = tuple.__new__(Transform, (sa, sb, conj))
        pair = (_TAU_S[sa] * ka, _TAU_S[sb] * kb, x, y, _rank(tj_sq), record)
        return tuple.__new__(CanonicalPair, pair), tj_sq
    raise NoCanonicalForm("Bob's amplitudes cannot be separated; kb is numerically 0")
