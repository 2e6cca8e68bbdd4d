"""Overlap models, amplitude extraction, canonical orientation."""

import ast
import cmath
import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import random_overlap, random_pair
from triseq import (
    BRANCHES,
    TOL,
    CanonicalPair,
    OptimalityReport,
    amplitudes_from_overlap,
    canonicalize,
    check_copies_psk,
    check_global_optimality,
    check_multipartite,
    coherent_overlap,
    lifted_trine_overlap,
    ppm_overlap,
    psk_overlap,
    state_vectors,
)
from triseq.cli import _report_json, main
from triseq.errors import (
    DegenerateStates,
    DomainError,
    NoCanonicalForm,
    RankDeficient,
    TriseqError,
)
from triseq import states
from triseq.serialize import fmt_float, json_dumps
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
    # the next overlap up leaves 2^-53 / 3, the least positive radicand there is
    assert min(amplitudes_from_overlap(-0.5 + 2**-54)) == math.sqrt(2**-53 / 3)


def test_amplitudes_degenerate():
    with pytest.raises(DegenerateStates):
        amplitudes_from_overlap(1.0)
    with pytest.raises(DegenerateStates):
        amplitudes_from_overlap(1 - 1e-13)


def test_overlap_degenerate_band_sits_at_its_tolerance():
    # TOL.degenerate is 1e-12: Alice's positive real overlap 1e-10 short of
    # 1 is decided, 1e-13 short is refused; a band 1e3 times wider or
    # narrower moves one of them across
    kb = 0.3 * cmath.exp(0.5j)
    assert check_global_optimality(1.0 - 1e-10, kb).branch == "PositiveRealA"
    with pytest.raises(DegenerateStates, match="^\\|K\\| = 0.9999999999999 is too close to 1$"):
        check_global_optimality(1.0 - 1e-13, kb)


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
# candidate triple is the validated triple permuted by the rule spelled out,
# x(tau^s K)_n = x(K)_{n-s} and x(tau^s conj(K))_n = x(K)_{s-n}, and sums are
# taken by loops.  The package must give the same bits (compared with ==,
# repr and the `check` JSON bytes), the same exceptions and the same messages.


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
    if min(rad) < 0.0:
        raise RankDeficient(f"squared amplitudes {rad} include a negative: "
                            f"no states have this overlap")
    if min(rad) == 0.0:
        raise RankDeficient(f"squared amplitudes {rad} include a numerical zero")
    return tuple(math.sqrt(r) for r in rad)


def _ref_joint_squares(x, y):
    return tuple(sum(x[k] ** 2 * y[(n - k) % 3] ** 2 for k in range(3)) for n in range(3))


def _ref_perm(x, y):
    tj = _ref_joint_squares(x, y)
    return (2, 1, 0) if tj[0] >= tj[2] else (0, 2, 1)


def _ref_relabel(t, s, conj):
    # amplitude n of tau^s * K, or of tau^s * conj(K), from the triple t of K
    return tuple(t[(s - n) % 3] if conj else t[(n - s) % 3] for n in range(3))


def _ref_canonicalize(ka, kb, tie_rule=True):
    # tie_rule=False is the Alice test before the tie rule, which also
    # accepted her tied minima in slots 0 and 2
    ka = _ref_check_overlap(ka)
    kb = _ref_check_overlap(kb)
    xk, yk = _ref_amplitudes(ka), _ref_amplitudes(kb)
    tie = TOL.tie
    for conj in (False, True):
        base_a = ka.conjugate() if conj else ka
        base_b = kb.conjugate() if conj else kb
        for sa in (0, 1, 2):
            x = _ref_relabel(xk, sa, conj)
            d0, d1 = x[0] - x[2], x[1] - x[2]
            # Alice's minimum in slot 2, and a minimum tied with it in slot 1
            if not (d0 > -tie and d1 >= -tie and (d0 > tie or d1 <= tie or not tie_rule)):
                continue
            for sb in (0, 1, 2):
                y = _ref_relabel(yk, sb, conj)
                if y[0] - y[1] >= -tie and y[1] - y[2] >= -tie and y[0] - y[2] > tie:
                    return CanonicalPair(
                        ka=TAU**sa * base_a, kb=TAU**sb * base_b, x=x, y=y,
                        perm=_ref_perm(x, y), record=Transform(sa, sb, conj),
                    )
    raise NoCanonicalForm("Bob's amplitudes cannot be separated; kb is numerically 0")


def _ref_report(ka, kb, tie_rule=True):
    ka = _ref_check_overlap(ka)
    kb = _ref_check_overlap(kb)
    pair = None
    if abs(ka) >= TOL.tie and abs(kb) >= TOL.tie:
        try:
            pair = _ref_canonicalize(ka, kb, tie_rule)
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
    seen, records = set(), set()
    for ka, kb in _decision_inputs():
        got, want = _outcome(canonicalize, ka, kb), _outcome(_ref_canonicalize, ka, kb)
        assert got == want and repr(got) == repr(want), (ka, kb)
        if isinstance(got, CanonicalPair):
            assert (got.ka, got.kb, got.x, got.y) == (want.ka, want.kb, want.x, want.y)
            assert (got.perm, got.record) == (want.perm, want.record)
            records.add(got.record)
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
    # and every relabeling was chosen, so each (conjugated, shift_a, shift_b)
    # the search can return is checked against it
    assert len(records) == 18


def _ref_first_failure(pairs):
    # (sufficient, failing_level) of a chain whose level n decides pairs[n],
    # by the reference decision
    for level, (ka, kb) in enumerate(pairs):
        if not _ref_report(ka, kb).verdict:
            return False, level
    return True, None


def test_chains_match_reference_decision():
    rng = np.random.default_rng(2025)
    seen = set()
    for s_total, n in zip(rng.uniform(0.05, 12.0, 200), rng.integers(2, 13, 200).tolist()):
        s = float(s_total) / n
        pairs = [(psk_overlap(s), psk_overlap((n - 1 - lvl) * s)) for lvl in range(n - 1)]
        got = check_copies_psk(s_total, n)
        assert got == _ref_first_failure(pairs), (s_total, n)
        seen.add(("copies", got[0]))
    for _ in range(200):
        ks = [random_overlap(rng) for _ in range(int(rng.integers(2, 6)))]
        pairs = [(ks[m], functools.reduce(operator.mul, ks[m + 1 :], complex(1.0)))
                 for m in range(len(ks) - 1)]
        got = _outcome(check_multipartite, ks)
        assert got == _outcome(_ref_first_failure, pairs), ks
        seen.add(("chain", got[0]))
    assert seen == {(kind, ok) for kind in ("copies", "chain") for ok in (True, False)}


def test_orient_permutes_validated_amplitudes():
    # every canonical triple is the record's permutation of the triple
    # amplitudes_from_overlap gives for the raw overlap, bit for bit
    rng = np.random.default_rng(191)
    for _ in range(300):
        ka, kb = random_pair(rng)
        pair = canonicalize(ka, kb)
        sa, sb, conj = pair.record
        assert pair.x == _ref_relabel(amplitudes_from_overlap(ka), sa, conj)
        assert pair.y == _ref_relabel(amplitudes_from_overlap(kb), sb, conj)


def _ref_recomputed(k, s, conj):
    # the search before the permutation: a candidate's triple recomputed
    # from its own rotated overlap
    return tuple(math.sqrt(r) for r in _ref_radicands(TAU**s * (k.conjugate() if conj else k)))


def test_orient_amplitudes_against_oracle():
    # against a 60-digit model, the permuted triples are no farther from
    # the exact canonical amplitudes than recomputed ones, at the median,
    # the p99 and the max
    rng = np.random.default_rng(192)
    errors = {"x": ([], []), "y": ([], [])}
    while len(errors["x"][0]) < 300:
        ka, kb = random_pair(rng)
        report = check_global_optimality(ka, kb)
        if report.branch not in ("Inequality", "Fails"):
            continue
        sa, sb, conj = record = report.pair.record
        exact = oracle.decision(ka, kb, record)
        for side, got, old, want in (("x", report.pair.x, _ref_recomputed(ka, sa, conj), exact.x),
                                     ("y", report.pair.y, _ref_recomputed(kb, sb, conj), exact.y)):
            errors[side][0].append(oracle.relative_error(got, want))
            errors[side][1].append(oracle.relative_error(old, want))
    for side, (new, old) in errors.items():
        new.sort()
        old.sort()
        for q in (len(new) // 2, len(new) * 99 // 100, -1):
            assert new[q] <= old[q], (side, q, new[q], old[q])


# ka at phase 2pi/3 and kb at phase pi/3: Alice's minima tie, and before the
# tie rule 6 of the 18 relabelings put them in slots 0 and 2 and decided Fails
TIE_PAIR = (complex(-0.22529842138398487, 0.39022831270212444),
            complex(0.13421750604674834, 0.23247153973815107))


def _orbit(ka, kb):
    # the 18 relabelings: either overlap rotated by tau, both conjugated
    for a, b in ((ka, kb), (ka.conjugate(), kb.conjugate())):
        for sa in range(3):
            for sb in range(3):
                yield TAU**sa * a, TAU**sb * b


def _on_axis_pairs(rng, n):
    # Alice, Bob or both on a tie axis, phase m pi / 3; |K| < 1/2 on the
    # odd axes, where a radicand is 1 - 2|K|
    def on_axis():
        m = int(rng.integers(6))
        return rng.uniform(0.02, 0.95 if m % 2 == 0 else 0.49) * cmath.exp(1j * m * math.pi / 3)

    return [(on_axis() if i % 3 != 1 else random_overlap(rng),
             on_axis() if i % 3 != 0 else random_overlap(rng)) for i in range(n)]


def test_tie_rule_one_verdict_per_orbit(tmp_path):
    flipped = []
    for ka, kb in [TIE_PAIR, *_on_axis_pairs(np.random.default_rng(1919), 1500)]:
        verdicts = {check_global_optimality(a, b).verdict for a, b in _orbit(ka, kb)}
        assert len(verdicts) == 1, (ka, kb)
        if verdicts == {True} and not _ref_report(ka, kb, tie_rule=False).verdict:
            flipped.append((ka, kb))
    assert flipped[0] == TIE_PAIR and len(flipped) > 50
    # each pair the tie rule turned true is built and certified, in the
    # orientation the reference search finds
    out = str(tmp_path / "m.json")
    for ka, kb in flipped:
        assert canonicalize(ka, kb).record == _ref_canonicalize(ka, kb).record
        overlaps = ["--ka", fmt_float(ka.real), fmt_float(ka.imag),
                    "--kb", fmt_float(kb.real), fmt_float(kb.imag)]
        assert main(["construct", *overlaps, "--out", out]) == 0, (ka, kb)
        assert main(["verify", out, *overlaps]) == 0, (ka, kb)


def test_states_imports_no_numpy():
    # the decision path reads states; its geometry is scalar Python
    tree = ast.parse(Path(states.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    assert not {m for m in modules if m.split(".")[0] == "numpy"}, modules
