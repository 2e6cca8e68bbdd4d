"""Overlap models, amplitude extraction, canonical orientation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_overlap, random_pair
from triseq import (
    BRANCHES,
    TOL,
    CanonicalPair,
    OptimalityReport,
    amplitudes_from_overlap,
    canonicalize,
    check_global_optimality,
    coherent_overlap,
    lifted_trine_overlap,
    ppm_overlap,
    psk_overlap,
    state_vectors,
)
from triseq.cli import _report_json
from triseq.errors import (
    DegenerateStates,
    DomainError,
    NoCanonicalForm,
    RankDeficient,
    TriseqError,
)
from triseq.serialize import json_dumps
from triseq.states import TAU, Transform

# overlaps with modulus < 0.45 can never be rank-deficient, so they are
# safe for unconditioned property tests
small_disk = st.complex_numbers(max_magnitude=0.45, allow_nan=False, allow_infinity=False)


def test_tau_is_primitive_cube_root():
    assert abs(TAU**3 - 1) < 1e-15
    assert abs(TAU - 1) > 1


def test_coherent_overlap_values():
    assert coherent_overlap(0, 0) == 1
    assert abs(coherent_overlap(1.3 + 0.2j, 1.3 + 0.2j) - 1) < 1e-15
    alpha, beta = 0.7, 0.7 * TAU
    expect = cmath.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + alpha.conjugate() * beta)
    assert abs(coherent_overlap(alpha, beta) - expect) < 1e-15


def test_psk_overlap_closed_form():
    s = 1.0
    k = psk_overlap(s)
    assert abs(abs(k) - math.exp(-1.5 * s)) < 1e-15
    assert abs(cmath.phase(k) - math.sqrt(3) / 2 * s) < 1e-15
    # by construction it is the overlap of alpha and tau*alpha
    alpha = math.sqrt(s)
    assert abs(k - coherent_overlap(alpha, TAU * alpha)) < 1e-15


def test_psk_overlap_additive_in_power():
    assert abs(psk_overlap(0.7) * psk_overlap(1.1) - psk_overlap(1.8)) < 1e-15


def test_psk_overlap_domain():
    with pytest.raises(DegenerateStates):
        psk_overlap(0.0)
    with pytest.raises(DomainError):
        psk_overlap(-0.1)


def test_lifted_trine_overlap():
    assert lifted_trine_overlap(1 / 3) == 0
    assert lifted_trine_overlap(0.5) == 0.25
    assert lifted_trine_overlap(0.2) == pytest.approx(-0.2)
    for g in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            lifted_trine_overlap(g)


def test_ppm_overlap():
    # empty second slot: overlap is exp(-|alpha|^2)
    s = 0.8
    k = ppm_overlap(math.sqrt(s), 0)
    assert k.imag == 0
    assert abs(k.real - math.exp(-s)) < 1e-15
    with pytest.raises(DegenerateStates):
        ppm_overlap(0.5, 0.5)


def test_ppm_overlap_real_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        if abs(a - b) < 1e-3:
            continue
        k = ppm_overlap(a, b)
        assert k.imag == 0 and k.real >= 0


def test_amplitudes_uniform_at_zero():
    x = amplitudes_from_overlap(0)
    assert x == pytest.approx((1 / math.sqrt(3),) * 3, abs=1e-15)


def test_amplitudes_half():
    x = amplitudes_from_overlap(0.5)
    assert x == pytest.approx((math.sqrt(2 / 3), math.sqrt(1 / 6), math.sqrt(1 / 6)), abs=1e-15)


@given(small_disk)
@settings(max_examples=200, deadline=None)
def test_amplitudes_reconstruct_overlap(k):
    x = amplitudes_from_overlap(k)
    assert abs(sum(v**2 for v in x) - 1) < 1e-14
    assert abs(sum(x[n] ** 2 * TAU**n for n in range(3)) - k) < 1e-14


@given(small_disk)
@settings(max_examples=100, deadline=None)
def test_amplitudes_label_shift(k):
    x = amplitudes_from_overlap(k)
    shifted = amplitudes_from_overlap(TAU * k)
    for n in range(3):
        assert abs(shifted[n] - x[(n - 1) % 3]) < 1e-14


@given(small_disk)
@settings(max_examples=100, deadline=None)
def test_amplitudes_conjugation_reverses(k):
    x = amplitudes_from_overlap(k)
    xc = amplitudes_from_overlap(k.conjugate())
    assert abs(xc[0] - x[0]) < 1e-14
    assert abs(xc[1] - x[2]) < 1e-14
    assert abs(xc[2] - x[1]) < 1e-14


def test_amplitudes_rank_deficient():
    with pytest.raises(RankDeficient):
        amplitudes_from_overlap(-0.5)  # one radicand is exactly 0


def test_amplitudes_degenerate():
    with pytest.raises(DegenerateStates):
        amplitudes_from_overlap(1.0)
    with pytest.raises(DegenerateStates):
        amplitudes_from_overlap(1 - 1e-13)


def test_canonicalize_positive_real_identity():
    pair = canonicalize(0.25, 0.25)
    assert pair.record == (0, 0, False)
    assert pair.ka == 0.25 and pair.kb == 0.25
    assert pair.x == pytest.approx((math.sqrt(0.5), 0.5, 0.5), abs=1e-12)
    # positive real overlap makes the lower two amplitudes tie
    assert abs(pair.x[1] - pair.x[2]) < 1e-12
    assert abs(pair.y[1] - pair.y[2]) < 1e-12


def test_canonicalize_negative_real():
    pair = canonicalize(-0.2, -0.2)
    assert pair.record == (2, 2, False)
    assert [v**2 for v in pair.y] == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)
    # negative real overlap ties Bob's upper two amplitudes
    assert abs(pair.y[0] - pair.y[1]) < 1e-12


def test_canonicalize_generic_complex():
    k = 0.2 * cmath.exp(1j * cmath.pi / 10)
    pair = canonicalize(k, k)
    assert pair.record == (0, 0, False)
    assert [v**2 for v in pair.x] == pytest.approx(
        [0.46014086883935384, 0.30561177455763205, 0.23424735660301418], abs=1e-12
    )


def test_canonicalize_conditions_hold():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ka, kb = random_pair(rng)
        pair = canonicalize(ka, kb)
        assert pair.x[0] - pair.x[2] > -1e-9
        assert pair.x[1] - pair.x[2] >= -1e-9
        assert pair.y[0] - pair.y[1] >= -1e-9
        assert pair.y[1] - pair.y[2] >= -1e-9
        assert pair.y[0] - pair.y[2] > 1e-9


def test_canonicalize_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(50):
        ka, kb = random_pair(rng)
        pair = canonicalize(ka, kb)
        again = canonicalize(pair.ka, pair.kb)
        assert again.record == (0, 0, False)
        assert again.x == pytest.approx(pair.x, abs=1e-14)
        assert again.y == pytest.approx(pair.y, abs=1e-14)


def test_canonicalize_orbit_invariant():
    # rotating or conjugating the inputs lands on the same canonical pair
    rng = np.random.default_rng(13)
    for _ in range(30):
        ka, kb = random_pair(rng)
        base = canonicalize(ka, kb)
        for sa in range(3):
            rot = canonicalize(TAU**sa * ka, TAU * kb)
            assert rot.x == pytest.approx(base.x, abs=1e-12)
            assert rot.y == pytest.approx(base.y, abs=1e-12)
        conj = canonicalize(ka.conjugate(), kb.conjugate())
        assert conj.x == pytest.approx(base.x, abs=1e-12)
        assert conj.y == pytest.approx(base.y, abs=1e-12)


def test_canonicalize_perm_involution():
    rng = np.random.default_rng(14)
    for _ in range(100):
        pair = canonicalize(*random_pair(rng))
        assert sorted(pair.perm) == [0, 1, 2]
        for k in range(3):
            assert pair.perm[pair.perm[k]] == k


def test_canonicalize_no_form_for_zero_kb():
    with pytest.raises(NoCanonicalForm):
        canonicalize(0.3, 0.0)


def test_canonicalize_rank_deficient_propagates():
    with pytest.raises(RankDeficient):
        canonicalize(-0.5, 0.3)
    with pytest.raises(RankDeficient):
        canonicalize(0.3, -0.5)


def test_state_vectors_structure():
    pair = canonicalize(0.3, 0.2 * cmath.exp(0.4j))
    sv = state_vectors(pair)
    rot = np.diag([1, TAU, TAU**2])
    for r in range(3):
        assert abs(np.linalg.norm(sv.a[r]) - 1) < 1e-12
        assert abs(np.linalg.norm(sv.b[r]) - 1) < 1e-12
        assert np.allclose(sv.a[r], np.linalg.matrix_power(rot, r) @ sv.a[0])
    assert abs(np.vdot(sv.a[0], sv.a[1]) - pair.ka) < 1e-12
    assert abs(np.vdot(sv.b[0], sv.b[1]) - pair.kb) < 1e-12
    assert abs(np.vdot(sv.a[1], sv.a[2]) - pair.ka) < 1e-12


# ---- bit identity with the straightforward decision ------------------------
# The reference below is the plain 18-candidate search and decision: every
# candidate triple recomputed from its own rotated overlap, sums taken by
# loops.  The package must give the same bits (compared with ==, repr and the
# `check` JSON bytes), the same exceptions and the same messages.


def _ref_check_overlap(k):
    k = complex(k)
    if not cmath.isfinite(k):
        raise DomainError(f"overlap must be finite, got {k!r}")
    if abs(k) > 1.0:
        raise DegenerateStates(f"|K| = {abs(k):.15g} exceeds 1: no states have this overlap")
    if abs(k) >= 1.0 - 1e-12:
        raise DegenerateStates(f"|K| = {abs(k):.15g} is too close to 1")
    return k


def _ref_radicands(k):
    return tuple((1.0 + 2.0 * (TAU ** (2 * n) * k).real) / 3.0 for n in range(3))


def _ref_amplitudes(k):
    k = _ref_check_overlap(k)
    rad = _ref_radicands(k)
    if min(rad) <= TOL.tie**2:
        raise RankDeficient(f"squared amplitudes {rad} include a numerical zero")
    return tuple(math.sqrt(r) for r in rad)


def _ref_joint_squares(x, y):
    return tuple(sum(x[k] ** 2 * y[(n - k) % 3] ** 2 for k in range(3)) for n in range(3))


def _ref_perm(x, y):
    tj = _ref_joint_squares(x, y)
    return (2, 1, 0) if tj[0] >= tj[2] else (0, 2, 1)


def _ref_canonicalize(ka, kb):
    ka = _ref_check_overlap(ka)
    kb = _ref_check_overlap(kb)
    _ref_amplitudes(ka)
    _ref_amplitudes(kb)
    tie = TOL.tie
    for conj in (False, True):
        base_a = ka.conjugate() if conj else ka
        base_b = kb.conjugate() if conj else kb
        for sa in (0, 1, 2):
            x = tuple(math.sqrt(r) for r in _ref_radicands(TAU**sa * base_a))
            if not (x[0] - x[2] > -tie and x[1] - x[2] >= -tie):
                continue
            for sb in (0, 1, 2):
                y = tuple(math.sqrt(r) for r in _ref_radicands(TAU**sb * base_b))
                if y[0] - y[1] >= -tie and y[1] - y[2] >= -tie and y[0] - y[2] > tie:
                    return CanonicalPair(
                        ka=TAU**sa * base_a, kb=TAU**sb * base_b, x=x, y=y,
                        perm=_ref_perm(x, y), record=Transform(sa, sb, conj),
                    )
    raise NoCanonicalForm("Bob's amplitudes cannot be separated; kb is numerically 0")


def _ref_report(ka, kb):
    ka = _ref_check_overlap(ka)
    kb = _ref_check_overlap(kb)
    pair = None
    if abs(ka) >= TOL.tie and abs(kb) >= TOL.tie:
        try:
            pair = _ref_canonicalize(ka, kb)
        except NoCanonicalForm:
            pair = None
    if pair is None:
        x, y = _ref_amplitudes(ka), _ref_amplitudes(kb)
        branch, verdict, perm = "Orthogonal", True, _ref_perm(x, y)
        level = (1.0 - abs(kb)) / 3.0
    else:
        x, y, perm = pair.x, pair.y, pair.perm
        level = (1.0 - abs(pair.kb)) / 3.0
        if y[1] - y[2] <= TOL.tie:
            branch, verdict = "PositiveRealB", True
        elif x[1] - x[2] <= TOL.tie:
            branch, verdict = "PositiveRealA", True
        else:
            branch = None
    z = tuple(v**2 - level for v in y)
    c1 = x[2] * z[0] - x[1] * z[1]
    iz = tuple(math.inf if v == 0.0 else v**-2 for v in z)
    c2 = 0.0
    for k in range(3):
        c2 += x[k] ** 2 * (iz[(1 - k) % 3] - iz[(3 - k) % 3])
    if pair is not None and branch is None:
        verdict = c1 >= 0.0 and c2 >= 0.0
        branch = "Inequality" if verdict else "Fails"
    tj_sq = _ref_joint_squares(x, y)
    return OptimalityReport(
        verdict=verdict, branch=branch, threshold=level, offsets=z,
        joint=tuple(math.sqrt(t) for t in tj_sq), perm=perm,
        p_global=3.0 * min(tj_sq), c1=c1, c2=c2, pair=pair,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TriseqError as exc:
        return type(exc), str(exc)


def _decision_inputs():
    rng = np.random.default_rng(2024)
    pairs = [random_pair(rng) for _ in range(600)]
    pairs += [(psk_overlap(a), psk_overlap(b)) for a, b in rng.uniform(0.01, 4.0, (200, 2))]
    pairs += [(complex(re, im),) * 2 for re, im in
              zip(rng.uniform(-0.5, 1.0, 300), rng.uniform(-0.87, 0.87, 300))]
    pairs += [(random_overlap(rng), complex(r)) for r in rng.uniform(0.01, 0.95, 150)]
    pairs += [(random_overlap(rng), r * cmath.exp(1j * p))
              for r, p in zip(rng.uniform(0.0, 2e-9, 100), rng.uniform(0, 2 * math.pi, 100))]
    axes = [m * math.pi / 3 for m in range(6)]
    for m, phase in enumerate(axes):
        for e in range(6, 13):
            for off in (10.0**-e, -(10.0**-e)):
                k = rng.uniform(0.02, 0.95) * cmath.exp(1j * (phase + off))
                pairs += [(k, random_overlap(rng)), (random_overlap(rng), k)]
        for r in (0.05, 0.25, 0.45, 0.6, 0.9):
            on_axis = (r * cmath.exp(1j * phase), r * TAU**m, complex(r if m % 2 == 0 else -r))
            pairs += [(k, random_overlap(rng)) for k in on_axis]
            pairs += [(random_overlap(rng), k) for k in on_axis]
            pairs += [(k, k) for k in on_axis]
    pairs += [(0.25, 0.25), (-0.2, -0.2), (0.0, 0.3), (0.3, 0.0), (0.0, 0.0),
              (-0.5, 0.3), (0.3, -0.5), (-0.5 * TAU, 0.2j), (1.0, 0.3), (0.3, 1 - 1e-13),
              (0.3, 1.05e-9), (1e-10j, 0.4 - 0.2j), (complex("nan"), 0.3), (0.3, math.inf)]
    return pairs


def test_decision_bit_identical_to_reference():
    seen = set()
    for ka, kb in _decision_inputs():
        got, want = _outcome(canonicalize, ka, kb), _outcome(_ref_canonicalize, ka, kb)
        assert got == want and repr(got) == repr(want), (ka, kb)
        if isinstance(got, CanonicalPair):
            assert (got.ka, got.kb, got.x, got.y) == (want.ka, want.kb, want.x, want.y)
            assert (got.perm, got.record) == (want.perm, want.record)
        else:
            seen.add(got[0].__name__)
        got, want = _outcome(check_global_optimality, ka, kb), _outcome(_ref_report, ka, kb)
        assert repr(got) == repr(want), (ka, kb)
        if isinstance(got, OptimalityReport):
            doc = json_dumps(_report_json(got, complex(ka), complex(kb)))
            assert doc == json_dumps(_report_json(want, complex(ka), complex(kb)))
            seen.add(got.branch)
    # every branch and every refusal was exercised
    assert seen >= set(BRANCHES) | {"RankDeficient", "DegenerateStates", "DomainError",
                                     "NoCanonicalForm"}
