"""Measurement construction, flattening, certificates, file round-trip."""

import cmath
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import near_axis, packed, random_overlap, random_pair
from triseq import (
    BRANCHES,
    TOL,
    amplitudes_from_overlap,
    binary_unambiguous,
    build_sequential,
    canonicalize,
    check_global_optimality,
    construct,
    dual_certificate,
    flatten,
    frame,
    hermitian_eigen,
    joint_states,
    load_povm,
    sample_outcomes,
    save_povm,
    solve_weights,
    state_vectors,
    ternary_unambiguous,
    verify_povm,
    verify_unambiguous,
)
from triseq.errors import (
    CertificateViolation,
    DegenerateStates,
    DomainError,
    InvalidPovm,
    NonHermitian,
    NotGloballyOptimal,
    RankDeficient,
    SingularSystem,
)
from triseq.optimality import _offsets, _tie_branch
from triseq.povm import (
    _MAX_SHOTS,
    LABELS,
    OUTCOME_LABELS,
    CertificateReport,
    Povm,
    _bob_stack,
    _outcomes,
    _quad,
)
from triseq.serialize import json_dumps
from triseq.states import TAU

FIG_K = 0.2 * cmath.exp(1j * cmath.pi / 10)


def _prob(op, v):
    return float(np.real(np.vdot(v, op @ v)))


def test_binary_unambiguous_orthogonal():
    p = binary_unambiguous([1, 0], [0, 1])
    assert np.allclose(p.outcomes[0], [[1, 0], [0, 0]])
    assert np.allclose(p.outcomes[1], [[0, 0], [0, 1]])
    assert np.allclose(p.outcomes[2], 0)


def test_binary_unambiguous_overlapping():
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    p = binary_unambiguous(u, v)
    c = abs(np.vdot(u, v))
    assert _prob(p.outcomes[0], v) == pytest.approx(0.0, abs=1e-14)
    assert _prob(p.outcomes[1], u) == pytest.approx(0.0, abs=1e-14)
    assert _prob(p.outcomes[0], u) == pytest.approx(1 - c, abs=1e-12)
    assert _prob(p.outcomes[1], v) == pytest.approx(1 - c, abs=1e-12)
    chk = verify_povm(p)
    assert chk.psd_margin >= -1e-12
    assert chk.completeness <= 1e-12


def test_binary_unambiguous_complex_phase():
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        c = abs(np.vdot(u, v))
        if c > 0.99:
            continue
        p = binary_unambiguous(u, v)
        assert _prob(p.outcomes[0], v) < 1e-12
        assert _prob(p.outcomes[1], u) < 1e-12
        assert _prob(p.outcomes[0], u) == pytest.approx(1 - c, abs=1e-10)
        assert verify_povm(p).psd_margin >= -1e-12


def test_binary_unambiguous_parallel_rejected():
    with pytest.raises(DegenerateStates):
        binary_unambiguous([1, 0], [1, 0])


def test_binary_degenerate_band_sits_at_its_tolerance():
    # TOL.degenerate is 1e-12: an overlap 1e-10 short of 1 builds and one
    # 1e-13 short raises, alone and inside Bob's exclude stack, where
    # exclude0 separates b_1 from b_2; a band 1e3 times wider or narrower
    # moves one of them across
    for gap, parallel in ((1e-10, False), (1e-13, True)):
        c = 1.0 - gap
        u, v = np.array([1.0, 0.0]), np.array([c, math.sqrt(1.0 - c * c)])
        b = np.array([[0.0, 0.0, 1.0], [*u, 0.0], [*v, 0.0]], dtype=complex)
        if parallel:
            with pytest.raises(DegenerateStates, match=r"^\|<u\|v>\| = 0.9999999999999 is too"):
                binary_unambiguous(u, v)
            with pytest.raises(DegenerateStates):
                _bob_stack((0.5, 0.6, 0.7), b)
            continue
        p = binary_unambiguous(u, v)
        assert _prob(p.outcomes[0], u) == pytest.approx(gap, rel=1e-3)
        assert _prob(p.outcomes[0], v) == pytest.approx(0.0, abs=1e-20)
        exclude0 = _bob_stack((0.5, 0.6, 0.7), b)[LABELS.index("exclude0")]
        assert np.array_equal(exclude0[[1, 2, 3], :2, :2], p.outcomes)


def test_weight_floor_sits_at_its_tolerance():
    # TOL.psd is 1e-9: two Fails pairs whose least weight is -1e-11 and
    # -1e-7; the first builds with that weight clipped to 0, the second is
    # refused, and a floor 1e3 times higher or lower moves one of them across
    ka = -0.42130999367228134 - 0.2829624816752794j
    for kb, least, builds in ((-0.3589435436712939 - 0.1836322079743072j, -1e-11, True),
                              (-0.35894360920566315 - 0.18363207987505198j, -1e-7, False)):
        pair = canonicalize(ka, kb)
        assert check_global_optimality(ka, kb).branch == "Fails"
        assert min(solve_weights(pair)) == pytest.approx(least, rel=1e-3)
        if builds:
            assert min(build_sequential(pair).weights) == 0.0
        else:
            with pytest.raises(NotGloballyOptimal, match="^negative measurement weight"):
                build_sequential(pair)


def test_ternary_unambiguous_discriminates():
    pair = canonicalize(0.3, 0.3 * cmath.exp(0.7j))
    w = pair.y
    p = ternary_unambiguous(w)
    states = [np.array([w[n] * TAU ** (r * n) for n in range(3)]) for r in range(3)]
    wmin = min(w)
    for r in range(3):
        for s in range(3):
            got = _prob(p.outcomes[r], states[s])
            want = 3 * wmin**2 if r == s else 0.0
            assert got == pytest.approx(want, abs=1e-12)
    # the inconclusive operator is diagonal by construction
    inc = p.outcomes[3]
    assert np.max(np.abs(inc - np.diag(np.diag(inc)))) < 1e-12
    chk = verify_povm(p)
    assert chk.psd_margin >= -1e-12
    assert chk.completeness <= 1e-12


def test_ternary_unambiguous_uniform_is_projective():
    p = ternary_unambiguous((1, 1, 1))
    assert np.max(np.abs(p.outcomes[3])) < 1e-12


def test_ternary_unambiguous_rejects_zero():
    with pytest.raises(DomainError):
        ternary_unambiguous((0.5, 0.0, 0.5))


def test_solve_weights_against_direct_solver():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 100:
        pair = canonicalize(*random_pair(rng))
        if pair.y[1] - pair.y[2] <= 1e-9:
            continue
        u = solve_weights(pair)
        level = (1 - abs(pair.kb)) / 3
        z = [v**2 - level for v in pair.y]
        m = np.zeros((3, 3))
        for k in range(3):
            xs = pair.x[pair.perm[k]] ** -2
            m[k] = [xs, xs / z[k] ** 2, 1.0 if k == 2 else 0.0]
        ref = np.linalg.solve(m, np.ones(3))
        assert np.asarray(u) == pytest.approx(ref, rel=1e-9, abs=1e-12)
        checked += 1


def test_solve_weights_against_oracle():
    # the closed form misses a 60-digit solve of the same float system by
    # about the rounding of the float offsets z_k
    rng = np.random.default_rng(16)
    errors = []
    while len(errors) < 300:
        pair = check_global_optimality(*random_pair(rng)).pair
        if pair is None or _tie_branch(pair) is not None:
            continue
        errors.append(oracle.relative_error(solve_weights(pair), oracle.weights(pair)))
    errors.sort()
    assert errors[-1] <= 1e-11
    assert errors[len(errors) // 2] <= 4e-15


def test_ternary_inconclusive_is_exactly_diagonal():
    # off the diagonal, 0.0 where np.eye(3) - detect.sum(0) left rounding;
    # on it, the same bits
    rng = np.random.default_rng(17)
    for _ in range(200):
        w = rng.uniform(0.02, 1.0, size=3)
        w /= np.linalg.norm(w)
        inc = ternary_unambiguous(w).outcomes[3]
        _assert_bits(inc[~np.eye(3, dtype=bool)], np.zeros(6))
        _assert_bits(np.diagonal(inc), np.diagonal(_ref_ternary_inconclusive(w)))


def _scoring_spacings(success, seq, sv) -> float:
    """|success - the exact success of seq's float pieces on sv's float
    states| (tests/oracle.py), in spacings of success."""
    t = oracle.outcomes(seq, sv)
    return float(abs((t[0][0] + t[1][1] + t[2][2]) / 3 - success)) / np.spacing(success)


def test_product_success_against_oracle():
    # the exact zeros cost the product strategy no accuracy: against a
    # 60-digit P_A + (1 - P_A) P_B, its success is no farther than the one
    # an np.eye(3) - detect.sum(0) inconclusive operator gives, at the max
    # and the median, up to 2**-53, one rounding of a success near 1; per
    # pair the success is within 3 spacings of the exact success of its own
    # pieces, a budget measured on these draws at the flattened scoring
    # this replaced (2.56 spacings there, 2.85 scored piece by piece)
    rng = np.random.default_rng(18)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: (complex(rng.uniform(0.02, 0.95)), random_overlap(rng)),  # PositiveRealA
        lambda: (random_overlap(rng), complex(rng.uniform(0.02, 0.95))),  # PositiveRealB
        lambda: (random_overlap(rng), tiny()),  # Orthogonal, no canonical form: Bob alone
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal through the canonical build
    )
    routes = {}
    new, old = [], []
    i = 0
    while len(new) < 400:
        ka, kb = draws[i % len(draws)]()
        i += 1
        try:
            report, seq, sv, success = construct(ka, kb)
        except NotGloballyOptimal:
            continue
        if report.branch == "Inequality":
            continue
        pair, framed = frame(ka, kb)
        route = report.branch + ("/bob-only" if pair is None else "")
        routes[route] = routes.get(route, 0) + 1
        # construct takes its states from frame, whichever route it builds on
        _assert_bits(sv.a, framed.a)
        _assert_bits(sv.b, framed.b)
        x, y = sv.a[0].real, sv.b[0].real
        alice, bob = seq.alice.copy(), seq.bob.copy()
        alice[6], bob[6, 3] = _ref_ternary_inconclusive(x), _ref_ternary_inconclusive(y)
        ref, _ = verify_unambiguous(flatten(seq._replace(alice=alice, bob=bob)),
                                    joint_states(sv))
        assert _scoring_spacings(success, seq, sv) <= 3
        exact = oracle.product_success(x, y)
        new.append(oracle.relative_error((success,), (exact,)))
        old.append(oracle.relative_error((ref,), (exact,)))
    assert set(routes) == {
        "PositiveRealA", "PositiveRealB", "Orthogonal", "Orthogonal/bob-only"
    }, routes
    new.sort()
    old.sort()
    assert new[-1] <= old[-1] + 2**-53
    assert new[len(new) // 2] <= old[len(old) // 2] + 2**-53


def test_singular_weight_system_refused():
    # |kb| = 0.25 puts the level (1 - |kb|) / 3 at 0.25, so y_1 = 0.5 gives
    # z_1 == 0.0 exactly; y_0 == y_1 gives z_0 == z_1
    pair = canonicalize(FIG_K, 0.2 + 0.15j)
    assert _tie_branch(pair) is None and _offsets(pair.kb, pair.y)[0] == 0.25
    y0, _, y2 = pair.y
    for y in ((y0, y0, y2), (y0, 0.5, y2)):
        crafted = pair._replace(y=y)
        assert _tie_branch(crafted) is None
        with pytest.raises(SingularSystem):
            solve_weights(crafted)
        with pytest.raises(NotGloballyOptimal, match="weight system is singular"):
            build_sequential(crafted)


def test_generic_construction_frozen():
    report = check_global_optimality(FIG_K, FIG_K)
    pair = report.pair
    seq = build_sequential(pair)
    assert seq.branch == "Inequality"
    assert seq.weights == pytest.approx(
        (0.23123362144977078, 0.00011281093864128078, 0.26420534067346724), rel=1e-10
    )
    flat = flatten(seq)
    assert flat.dim == 9
    chk = verify_povm(flat)
    assert chk.psd_margin >= -1e-12
    assert chk.completeness <= 1e-10
    success, resid = verify_unambiguous(flat, joint_states(state_vectors(pair)))
    assert resid <= 1e-10
    assert success == pytest.approx(report.p_global, abs=1e-10)
    assert seq.alice.shape == (7, 3, 3) and seq.bob.shape == (7, 4, 3, 3)
    rep = dual_certificate(pair, seq)
    assert set(rep.psd_margin) == set(rep.kernel_residual) == set(LABELS)
    assert min(rep.psd_margin.values()) >= -1e-15
    assert max(rep.kernel_residual.values()) <= 1e-15


def test_alice_completeness_random():
    rng = np.random.default_rng(33)
    built = 0
    while built < 50:
        pair = canonicalize(*random_pair(rng))
        try:
            seq = build_sequential(pair)
        except NotGloballyOptimal:
            continue
        total = sum(seq.alice)
        assert np.max(np.abs(total - np.eye(3))) < 1e-10
        for op in seq.alice:
            w = np.linalg.eigvalsh(op)
            assert w[0] >= -1e-12
        built += 1


def test_trine_construction():
    pair = canonicalize(0.25, 0.25)
    seq = build_sequential(pair)
    assert seq.branch == "PositiveRealB"
    assert seq.weights == pytest.approx((0.25, 0.0, 0.5), abs=1e-12)
    for j in range(3):
        assert np.max(np.abs(seq.alice[LABELS.index(f"exclude{j}")])) == 0.0
    # both lower amplitudes sit at the minimum, one slot survives deferral
    assert np.linalg.matrix_rank(seq.alice[LABELS.index("defer")], tol=1e-9) == 1
    success, resid = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
    assert resid <= 1e-12
    assert success == pytest.approx(0.9375, abs=1e-12)
    dual_certificate(pair, seq)


def test_positive_real_b_generic_alice_defer_rank_two():
    # with a generic ka the deferral operator keeps two basis slots
    report = check_global_optimality(FIG_K, 0.25)
    pair = report.pair
    seq = build_sequential(pair)
    assert seq.branch == "PositiveRealB"
    assert np.linalg.matrix_rank(seq.alice[LABELS.index("defer")], tol=1e-9) == 2
    success, _ = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
    assert success == pytest.approx(report.p_global, abs=1e-10)
    dual_certificate(pair, seq)


def test_positive_real_a_construction():
    report = check_global_optimality(0.3, 0.2 * cmath.exp(1j * cmath.pi / 5))
    pair = report.pair
    seq = build_sequential(pair)
    assert seq.branch == "PositiveRealA"
    assert seq.weights[0] == pytest.approx(7 / 30, abs=1e-12)
    assert seq.weights[1] == pytest.approx(0.0, abs=1e-12)
    assert seq.weights[2] == pytest.approx(9 / 16, abs=1e-12)
    success, _ = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
    assert success == pytest.approx(report.p_global, abs=1e-10)
    dual_certificate(pair, seq)


def test_failing_pair_raises():
    pair = canonicalize(-0.2, -0.2)
    with pytest.raises(NotGloballyOptimal):
        build_sequential(pair)
    with pytest.raises(NotGloballyOptimal, match="^$"):  # the verdict refuses, bare
        construct(-0.2, -0.2)


def test_bob_only_orthogonal_bob():
    report, seq, sv, success = construct(0.3, 0.0)
    x = amplitudes_from_overlap(0.3)  # Alice runs her own optimum beside Bob's
    assert report.pair is None
    assert seq.branch == report.branch == "Orthogonal"
    defer = seq.alice[LABELS.index("defer")]
    assert seq.weights == (min(x) ** 2, 0.0, float(np.trace(defer).real))
    assert np.allclose(defer, ternary_unambiguous(x).outcomes[3])
    flat = flatten(seq)
    chk = verify_povm(flat)
    assert chk.psd_margin >= -1e-12
    assert chk.completeness <= 1e-10
    again, resid = verify_unambiguous(flat, joint_states(sv))
    assert again == success
    assert resid <= 1e-12
    assert success == pytest.approx(1.0, abs=1e-12)


def test_certificate_rejects_tampering():
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    bad = seq.alice.copy()
    bad[LABELS.index("announce0"), 0, 0] += 1e-3
    tampered = seq._replace(alice=bad)
    with pytest.raises(CertificateViolation):
        dual_certificate(pair, tampered)


@pytest.mark.parametrize("label", BRANCHES)
def test_certificate_ignores_the_branch_label(label):
    # the certificate reads the pair, never the label its measurement carries
    for pair in (canonicalize(FIG_K, 0.25), canonicalize(FIG_K, FIG_K)):
        seq = build_sequential(pair)
        assert seq.branch in ("PositiveRealB", "Inequality")
        relabelled = seq._replace(branch=label)
        assert dual_certificate(pair, relabelled) == dual_certificate(pair, seq)


def test_certificate_witness_and_kernel_gates():
    # |kb| moved from 0.30 to 0.1 raises Bob's filter level, so on every
    # exclude label the projected witness turns indefinite: gate (i)
    # refuses beside the residual gate
    pair = canonicalize(0.19 + 0.062j, 0.27 + 0.13j)
    seq = build_sequential(pair)
    with pytest.raises(CertificateViolation) as refused:
        dual_certificate(pair._replace(kb=0.1), seq)
    for j in range(3):
        assert f"exclude{j}: witness eigenvalue -7.576e-02" in str(refused.value)
        assert f"exclude{j}: kernel residual 7.577e-02" in str(refused.value)


def test_certificate_rejects_wrong_pair():
    # a valid measurement for one pair must not certify another
    seq = build_sequential(canonicalize(FIG_K, FIG_K))
    other = canonicalize(0.25 * cmath.exp(1j * cmath.pi / 7), 0.3 * cmath.exp(0.9j))
    with pytest.raises(CertificateViolation):
        dual_certificate(other, seq)


def _refused_gates(pair, seq):
    """The gates the certificate refuses, as "label: gate" without the value."""
    try:
        dual_certificate(pair, seq)
    except CertificateViolation as exc:
        return [failure.rsplit(" ", 1)[0] for failure in str(exc).split("; ")]
    return []


def test_certificate_gates_sit_at_their_tolerances():
    # each margin is set about 30x beyond or inside its TOL bound, so a bound
    # a thousand times looser or tighter changes the list of refused gates
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    excludes = [f"exclude{j}" for j in range(3)]

    # |kb| shrunk by a factor 1 - d against the pair's own y: each exclude
    # block's margin and residual read about -0.075 d and 0.075 d
    def shrunk(d):
        return pair._replace(kb=pair.kb * (1.0 - d))

    both = [f"{e}: {gate}" for e in excludes for gate in ("witness eigenvalue", "kernel residual")]
    assert _refused_gates(shrunk(1e-6), seq) == both
    assert _refused_gates(shrunk(1e-7), seq) == [f"{e}: witness eigenvalue" for e in excludes]
    assert _refused_gates(shrunk(1e-8), seq) == []

    # announce0 leaking s onto state 1 moves Alice's completeness by s too
    a1 = state_vectors(pair).a[1]
    for s, refused in ((3e-9, ["announce0: unambiguity leak", "completeness residual"]),
                       (3e-12, [])):
        alice = seq.alice.copy()
        alice[0] += s * np.outer(a1, a1.conj())
        assert _refused_gates(pair, seq._replace(alice=alice)) == refused

    # a stray exclude0 on a tie pair, whose exclude operators are exact zeros,
    # leaks nothing: TOL.active alone decides whether its residual counts
    tie = canonicalize(FIG_K, 0.25)
    seq = build_sequential(tie)
    assert not seq.alice[3:6].any()
    a0 = state_vectors(tie).a[0]
    stray = (np.eye(3) - np.outer(a0, a0.conj())) / math.sqrt(2.0)  # unit norm
    for scale, refused in ((30 * TOL.active, ["exclude0: kernel residual"]),
                           (TOL.active / 30, [])):
        alice = seq.alice.copy()
        alice[3] = scale * stray
        assert _refused_gates(tie, seq._replace(alice=alice)) == refused


def test_verify_povm_structural_errors():
    good = np.eye(3, dtype=complex)
    with pytest.raises(InvalidPovm):
        verify_povm(Povm(outcomes=(np.zeros((3, 2)),), labels=("a",)))
    with pytest.raises(InvalidPovm):
        verify_povm(Povm(outcomes=(good, np.eye(2, dtype=complex)), labels=("a", "b")))
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(InvalidPovm):
        verify_povm(Povm(outcomes=(skew,), labels=("a",)))
    with pytest.raises(InvalidPovm):  # a non-Hermitian outcome past the last label
        verify_povm(Povm(outcomes=(np.eye(2, dtype=complex), skew), labels=("a",)))
    # the stacked check names the first failing outcome by its label
    with pytest.raises(InvalidPovm, match=r"^outcome b: symmetry residual 1\.000e\+00 exceeds"):
        verify_povm(Povm(outcomes=(np.eye(2, dtype=complex), skew, skew), labels=("a", "b", "c")))
    nan = np.full((1, 3, 3), np.nan, dtype=complex)  # passes the Hermitian check
    with pytest.raises(InvalidPovm, match="Eigenvalues did not converge"):
        verify_povm(Povm(outcomes=nan, labels=("a",)))


def test_verify_povm_margins_reported():
    slightly_off = 0.5 * np.eye(2, dtype=complex)
    chk = verify_povm(Povm(outcomes=(slightly_off,), labels=("only",)))
    assert chk.psd_margin == pytest.approx(0.5, abs=1e-14)
    assert chk.completeness == pytest.approx(0.5, abs=1e-14)


def test_sample_outcomes_deterministic():
    pair = canonicalize(FIG_K, FIG_K)
    flat = flatten(build_sequential(pair))
    psi = joint_states(state_vectors(pair))[1]
    counts = sample_outcomes(flat, psi, 10_000, seed=42)
    again = sample_outcomes(flat, psi, 10_000, seed=42)
    assert counts.sum() == 10_000
    assert np.array_equal(counts, again)
    # unambiguity: the two wrong conclusive outcomes never fire
    assert counts[0] == 0 and counts[2] == 0
    different = sample_outcomes(flat, psi, 10_000, seed=43)
    assert not np.array_equal(counts, different)


def test_sample_outcomes_probability_sum_sits_at_its_tolerance():
    # TOL.prob_sum is 1e-8: outcomes scaled so the probabilities sum to
    # 1 + 1e-10 still draw, scaled to 1 + 1e-6 they are refused; a bound
    # 1e3 times wider or narrower moves one of them across
    pair = canonicalize(FIG_K, FIG_K)
    flat = flatten(build_sequential(pair))
    psi = joint_states(state_vectors(pair))[1]
    for excess, drawn in ((1e-10, True), (1e-6, False)):
        scaled = flat._replace(outcomes=(1.0 + excess) * flat.outcomes)
        if drawn:
            assert sample_outcomes(scaled, psi, 1000, seed=0).sum() == 1000
        else:
            with pytest.raises(InvalidPovm, match="^outcome probabilities sum to 1.000001"):
                sample_outcomes(scaled, psi, 1000, seed=0)


def test_sample_outcomes_validates():
    half = Povm(outcomes=(0.5 * np.eye(2, dtype=complex),), labels=("only",))
    with pytest.raises(InvalidPovm):
        sample_outcomes(half, [1, 0], 100, seed=0)
    eye = Povm(outcomes=(np.eye(2, dtype=complex),), labels=("only",))
    with pytest.raises(DomainError):
        sample_outcomes(eye, [1, 0], -5, seed=0)
    with pytest.raises(DomainError):
        sample_outcomes(eye, [1, 0], 100, seed=-1)
    with pytest.raises(DomainError):
        sample_outcomes(eye, [1, 0], _MAX_SHOTS + 1, seed=0)


def test_save_load_round_trip(tmp_path):
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    success, _ = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
    path = tmp_path / "m.povm.json"
    save_povm(path, seq, pair.ka, pair.kb, success)
    loaded = load_povm(path)
    assert loaded.meta["ka"] == pair.ka
    assert loaded.meta["kb"] == pair.kb
    assert loaded.meta["branch"] == seq.branch
    assert loaded.meta["success"] == success
    assert loaded.seq.weights == seq.weights
    flat = flatten(seq)
    for got, want in zip(loaded.povm.outcomes, flat.outcomes):
        assert np.array_equal(got, want)  # 17 digits round-trips float64 exactly
    assert np.array_equal(loaded.seq.alice, seq.alice)  # every label at once
    assert np.array_equal(loaded.seq.bob, seq.bob)
    assert loaded.povm.labels == OUTCOME_LABELS


def test_save_is_byte_stable(tmp_path):
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_povm(p1, seq, pair.ka, pair.kb, 0.5)
    save_povm(p2, seq, pair.ka, pair.kb, 0.5)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidPovm):
        load_povm(path)

    path.write_text(json.dumps({"dim": 9}))
    with pytest.raises(InvalidPovm):
        load_povm(path)


def test_load_rejects_structural_damage(tmp_path):
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    path = tmp_path / "m.json"
    save_povm(path, seq, pair.ka, pair.kb, 0.5)
    doc = json.loads(path.read_text())

    bad = dict(doc)
    bad["dim"] = 4
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)

    bad = json.loads(json.dumps(doc))
    bad["sequential"]["alice"]["weird"] = bad["sequential"]["alice"].pop("announce1")
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)

    bad = json.loads(json.dumps(doc))
    bad["sequential"]["bob"]["exclude2"][3][2] = "oops"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)

    bad = json.loads(json.dumps(doc))
    del bad["sequential"]["alice"]["defer"]
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)


def _ref_file_text(seq, ka, kb, success):
    """The measurement file, format 3, spelled element by element."""
    doc = {
        "dim": 9,
        "format": 3,
        "meta": {
            "ka": [ka.real, ka.imag],
            "kb": [kb.real, kb.imag],
            "branch": seq.branch,
            "kappa": list(seq.weights),
            "success": success,
        },
        "sequential": {
            "alice": {label: packed(op) for label, op in zip(LABELS, seq.alice)},
            "bob": {
                label: [packed(op) for op in ops]
                for label, ops in zip(LABELS, seq.bob)
            },
        },
    }
    return json_dumps(doc) + "\n"


def _ref_flatten(seq):
    """flatten as the per-label loop of 28 np.kron calls spelled it."""
    outcomes = []
    for r in range(4):
        total = np.zeros((9, 9), dtype=complex)
        for i in range(len(LABELS)):
            total += np.kron(seq.alice[i], seq.bob[i, r])
        outcomes.append(total)
    return outcomes


def _ref_vectors(x, y):
    """state_vectors as the per-index comprehensions spelled it."""
    a = np.array([[x[n] * TAU ** (r * n) for n in range(3)] for r in range(3)])
    b = np.array([[y[n] * TAU ** (r * n) for n in range(3)] for r in range(3)])
    return a, b


def _ref_joint_states(sv):
    """joint_states as the np.kron loop spelled it."""
    return np.array([np.kron(sv.a[r], sv.b[r]) for r in range(3)])


def _ref_outer(u):
    """|u><u| from np.outer, made Hermitian per index as povm._outer makes
    it: the diagonal's real part, and each entry above the diagonal
    conjugated below it."""
    prod = np.outer(u, np.conj(u))
    out = prod.copy()
    for i in range(len(u)):
        out[i, i] = prod[i, i].real
        for j in range(i + 1, len(u)):
            out[j, i] = np.conj(prod[i, j])
    return out


def _ref_ternary_detect(w):
    """ternary_unambiguous's three detect operators, per index."""
    rows = [[(min(w) / math.sqrt(3.0)) / w[n] * TAU ** (r * n) for n in range(3)]
            for r in range(3)]
    return [_ref_outer(row) for row in map(np.array, rows)]


def _ref_ternary_inconclusive(w):
    """ternary_unambiguous's inconclusive operator as the identity less the
    detect operators, off-diagonal rounding included."""
    return np.eye(3) - np.sum(_ref_ternary_detect(w), axis=0)


def _ref_alice(pair, u):
    """Alice's weight-system instrument as the per-label loop built it."""
    x, perm = pair.x, pair.perm
    _, z = _offsets(pair.kb, pair.y)
    alice = np.zeros((7, 3, 3), dtype=complex)
    for j in range(3):
        vec1 = np.array([TAU ** (j * n) / x[n] for n in range(3)])
        alice[j] = (u[0] / 3.0) * _ref_outer(vec1)
        if u[1] > 0:
            vec2 = np.array([TAU ** (j * n) / (x[n] * z[perm[n]]) for n in range(3)])
            alice[3 + j] = (u[1] / 3.0) * _ref_outer(vec2)
    slot = np.zeros(3, dtype=complex)
    slot[perm[2]] = 1.0
    alice[6] = u[2] * _ref_outer(slot)
    return alice


def _assert_bits(got, want):
    """Equal bit for bit, the sign of every zero included."""
    got = np.ascontiguousarray(got, dtype=complex).view(float)
    want = np.ascontiguousarray(want, dtype=complex).view(float)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _ref_binary(u, v):
    """binary_unambiguous's outcomes as one pair at a time spelled them."""
    c = np.vdot(u, v)
    wu = u - c.conjugate() * v
    wu = wu / np.linalg.norm(wu)
    wv = v - c * u
    wv = wv / np.linalg.norm(wv)
    detect = (1.0 / (1.0 + abs(c))) * np.array([_ref_outer(wu), _ref_outer(wv)])
    return np.stack((*detect, np.eye(len(u)) - detect[0] - detect[1]))


def _ref_bob(y, b):
    """_bob_stack as the per-label loop of three binary measurements built it."""
    bob = np.zeros((7, 4, 3, 3), dtype=complex)
    for j in range(3):
        bob[j, j] = np.eye(3)
        r1, r2 = (j + 1) % 3, (j + 2) % 3
        bob[3 + j, [r1, r2, 3]] = _ref_binary(b[r1], b[r2])
    bob[6] = ternary_unambiguous(y).outcomes
    return bob


def test_bob_stack_builds_as_the_per_pair_reference():
    # the three exclude measurements come from one batched pass: bit for bit
    # those of three one-pair calls (np.vdot, np.linalg.norm, abs of each
    # complex overlap), on the frames of drawn pairs and on random unit
    # vectors of two to four components
    rng = np.random.default_rng(79)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (near_axis(rng), random_overlap(rng)),
        lambda: (random_overlap(rng), near_axis(rng)),
        lambda: (random_overlap(rng), tiny()),  # Orthogonal, no canonical form
    )
    built = 0
    for i in range(400):
        try:
            _, sv = frame(*draws[i % len(draws)]())
        except RankDeficient:  # a near-axis draw outside the state domain
            continue
        y = sv.b[0].real.tolist()
        _assert_bits(_bob_stack(y, sv.b), _ref_bob(y, sv.b))
        built += 1
    assert built > 300
    for dim in (2, 3, 4):
        for _ in range(100):
            u, v = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
            u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
            _assert_bits(binary_unambiguous(u, v).outcomes, _ref_binary(u, v))


def test_phase_table_builds_as_the_per_index_reference():
    rng = np.random.default_rng(75)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (complex(rng.uniform(0.02, 0.95)), random_overlap(rng)),
        lambda: (random_overlap(rng), complex(rng.uniform(0.02, 0.95))),
        lambda: (random_overlap(rng), tiny()),  # Orthogonal, no canonical form: Bob alone
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal through the canonical build
    )
    routes = {}
    i = 0
    while sum(routes.values()) < 100:
        ka, kb = draws[i % len(draws)]()
        i += 1
        pair, sv = frame(ka, kb)
        if pair is None:
            x, y = amplitudes_from_overlap(ka), amplitudes_from_overlap(kb)
        else:
            x, y = pair.x, pair.y
        for got, want in zip((sv.a, sv.b), _ref_vectors(x, y)):
            _assert_bits(got, want)
        _assert_bits(joint_states(sv), _ref_joint_states(sv))
        for w in (x, y):
            _assert_bits(ternary_unambiguous(w).outcomes[:3], _ref_ternary_detect(w))
        try:
            report, seq, built, _ = construct(ka, kb)
        except NotGloballyOptimal:
            continue
        route = report.branch + ("/bob-only" if pair is None else "")
        routes[route] = routes.get(route, 0) + 1
        _assert_bits(built.a, sv.a)
        _assert_bits(built.b, sv.b)
        if report.branch == "Inequality":
            _assert_bits(seq.alice, _ref_alice(pair, seq.weights))
        else:  # the product strategy: Alice runs her own three-state optimum
            _assert_bits(seq.alice[:3], _ref_ternary_detect(x))
    assert set(routes) == {
        "Inequality", "PositiveRealA", "PositiveRealB", "Orthogonal", "Orthogonal/bob-only"
    }, routes


# the states Bob may still report after each label, in LABELS order
_REF_ALLOWED = ((0,), (1,), (2,), (1, 2), (2, 0), (0, 1), (0, 1, 2))


def _closed_form_projector(i, x, a):
    """Label i's projector off the states it blocks, in closed form:
    |w><w| / <w|w> with w_n = tau^(i n) / x_n for announce i, I - |a_j><a_j|
    for exclude j, I for defer."""
    if i < 3:
        w = np.array([TAU ** (i * n) / x[n] for n in range(3)])
        w = w / np.linalg.norm(w)
        return _ref_outer(w)
    if i < 6:
        return np.eye(3) - _ref_outer(a[i - 3])
    return np.eye(3, dtype=complex)


def _gram_projector(i, x, a):
    """Label i's projector as the certificate found it before the closed
    form, frozen: the eigenvectors of the blocked states' Gram matrix whose
    eigenvalues are below 1e-8."""
    blocked = [a[r] for r in range(3) if r not in _REF_ALLOWED[i]]
    if not blocked:
        return np.eye(3, dtype=complex)
    w, vv = hermitian_eigen(sum(np.outer(v, v.conj()) for v in blocked))
    out = np.zeros((3, 3), dtype=complex)
    for k in range(3):
        if w[k] < 1e-8:
            out += np.outer(vv[:, k], vv[:, k].conj())
    return out


def _diagonal_witness(i, pair, proj):
    """Label i's compressed witness P D P, D = diag(3 x_n^2 (y_{perm[n]}^2 - q))
    with q = 1/3 (announce), Bob's level (exclude) or y_2^2 (defer); x is
    squared as np.square does, y by float ** as _offsets does."""
    x, y, perm = pair.x, pair.y, pair.perm
    level, _ = _offsets(pair.kb, y)
    q = (1.0 / 3.0, level, y[2] ** 2)[i // 3]
    d = np.array([3.0 * (x[n] * x[n]) * (y[perm[n]] ** 2 - q) for n in range(3)])
    return (proj * d) @ proj


def _rank_one_witness(i, pair, proj):
    """Label i's compressed witness as the certificate summed it before the
    diagonal form, frozen: X = diag(3 x_n^2 y_{perm[n]}^2) less
    (p/3) |a_r><a_r| for each state r Bob may still report, in slot order,
    then P d P."""
    x, y, perm = pair.x, pair.y, pair.perm
    a = state_vectors(pair).a
    level, _ = _offsets(pair.kb, y)
    pv = (1.0, 3.0 * level, 3.0 * y[2] ** 2)[i // 3]
    d = np.diag([3.0 * x[n] ** 2 * y[perm[n]] ** 2 for n in range(3)]).astype(complex)
    for r in _REF_ALLOWED[i]:
        d -= (pv / 3.0) * np.outer(a[r], a[r].conj())
    return proj @ d @ proj


def _eigen_label(projector, witness):
    """Label i's (margin, witness) from one projector(label index, x, state
    rows), one witness(label index, pair, projector), symmetrized, and one
    eigensolve."""

    def label(i, pair):
        g = witness(i, pair, projector(i, pair.x, state_vectors(pair).a))
        g = (g + g.conj().T) / 2.0
        return float(hermitian_eigen(g)[0][0]), g

    return label


def _closed_label(i, pair):
    """Label i's (margin, witness) in closed form, per label, read off the
    diagonal D with |a_jn|^2 = x_n^2: announce <w|D|w> and its witness that
    times |w><w|; exclude the smaller eigenvalue of D on a_j's orthocomplement
    from its trace t and determinant e, and P D P; defer min D, and D."""
    x, y, perm = pair.x, pair.y, pair.perm
    level, _ = _offsets(pair.kb, y)
    q = (1.0 / 3.0, level, y[2] ** 2)[i // 3]
    sq = [x[n] * x[n] for n in range(3)]
    d = [3.0 * sq[n] * (y[perm[n]] ** 2 - q) for n in range(3)]
    if i < 3:
        inverse = [1.0 / s for s in sq]
        lam = 3.0 * (sum(y[perm[n]] ** 2 for n in range(3)) - 1.0) / sum(inverse)
        w = np.array([TAU ** (i * n) for n in range(3)]) * np.sqrt(np.divide(inverse, sum(inverse)))
        return lam, np.outer(lam * w, w.conj())
    if i < 6:
        t = sum(d[n] * (1.0 - sq[n]) for n in range(3))
        e = sum(d[(n + 1) % 3] * d[(n + 2) % 3] * sq[n] for n in range(3))
        disc = math.sqrt(max(t * t - 4.0 * e, 0.0))
        big = (t + disc) / 2.0 if t >= 0.0 else (t - disc) / 2.0
        a = state_vectors(pair).a[i - 3]
        proj = np.eye(3) - np.outer(a, a.conj())
        return (min(big, e / big) if big else 0.0), (proj * d) @ proj
    return min(d), np.diag(d)


@np.errstate(over="ignore", invalid="ignore")
def _ref_report(pair, seq, label=_closed_label):
    """dual_certificate's report as a per-label loop computes it, gates left
    out, with one label(label index, pair) giving each margin and witness."""
    sv = state_vectors(pair)
    psd_margin, kernel_residual, unambiguity = {}, {}, {}
    for i, (name, allowed, a_op) in enumerate(zip(LABELS, _REF_ALLOWED, seq.alice)):
        psd_margin[name], g = label(i, pair)
        a_norm = float(np.linalg.norm(a_op))
        active = not a_norm <= TOL.active
        kernel_residual[name] = float(np.linalg.norm(g @ a_op) / a_norm) if active else 0.0
        leaks = [abs(float(np.real(np.vdot(sv.a[r], a_op @ sv.a[r]))))
                 for r in range(3) if r not in allowed]
        unambiguity[name] = float(np.max(leaks, initial=0.0))
    completeness = float(np.max(np.abs(sum(seq.alice) - np.eye(3))))
    return CertificateReport(psd_margin, kernel_residual, completeness, unambiguity)


def _ref_margins(pair, seq, projector=_closed_form_projector, witness=_diagonal_witness):
    """The report with each margin an eigensolve of the compressed witness."""
    return _ref_report(pair, seq, _eigen_label(projector, witness))


def _ref_failures(rep):
    """The certificate's gates on a report, in the order it names them."""
    failures = []
    for label in LABELS:
        if not rep.psd_margin[label] >= -TOL.psd:
            failures.append(f"{label}: witness eigenvalue {rep.psd_margin[label]:.3e}")
        if not rep.kernel_residual[label] <= TOL.kernel_resid:
            failures.append(f"{label}: kernel residual {rep.kernel_residual[label]:.3e}")
        if not rep.unambiguity[label] <= TOL.leak:
            failures.append(f"{label}: unambiguity leak {rep.unambiguity[label]:.3e}")
    if not rep.completeness <= TOL.completeness:
        failures.append(f"completeness residual {rep.completeness:.3e}")
    return failures


def _ref_dual_certificate(pair, seq):
    """dual_certificate as a per-label loop spells it in closed form."""
    rep = _ref_report(pair, seq)
    failures = _ref_failures(rep)
    if failures:
        raise CertificateViolation("; ".join(failures))
    return rep


def _ref_unpacked(data):
    """Format 3's nine numbers as the Hermitian piece, entry by entry."""
    d0, d1, d2, r01, i01, r02, i02, r12, i12 = map(float, data)
    return np.array([[complex(d0, 0.0), complex(r01, i01), complex(r02, i02)],
                     [complex(r01, -i01), complex(d1, 0.0), complex(r12, i12)],
                     [complex(r02, -i02), complex(r12, -i12), complex(d2, 0.0)]])


def test_built_pieces_are_exactly_hermitian_and_round_trip(tmp_path):
    # every piece a build makes has a real diagonal and its conjugate
    # mirrored below it, so format 3's nine numbers hold all of it: the
    # pieces read back equal the built ones by value (a zero's sign aside)
    rng = np.random.default_rng(77)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (complex(rng.uniform(0.02, 0.95)), random_overlap(rng)),
        lambda: (random_overlap(rng), complex(rng.uniform(0.02, 0.95))),
        lambda: (random_overlap(rng), tiny()),  # Orthogonal, no canonical form: Bob alone
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal through the canonical build
    )
    path = tmp_path / "m.json"
    routes = {}
    i = 0
    while sum(routes.values()) < 200:
        ka, kb = draws[i % len(draws)]()
        i += 1
        try:
            report, seq, _, success = construct(ka, kb)
        except NotGloballyOptimal:
            continue
        route = report.branch + ("/bob-only" if frame(ka, kb)[0] is None else "")
        routes[route] = routes.get(route, 0) + 1
        for ops in (seq.alice, seq.bob):
            assert np.array_equal(ops, ops.conj().swapaxes(-1, -2)), route
        save_povm(path, seq, ka, kb, success)
        loaded = load_povm(path).seq
        assert np.array_equal(loaded.alice, seq.alice) and np.array_equal(loaded.bob, seq.bob)
        assert (loaded.weights, loaded.branch) == (seq.weights, seq.branch)
    assert set(routes) == {
        "Inequality", "PositiveRealA", "PositiveRealB", "Orthogonal", "Orthogonal/bob-only"
    }, routes


def test_codec_matches_elementwise_reference(tmp_path):
    rng = np.random.default_rng(71)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (complex(rng.uniform(0.02, 0.95)), random_overlap(rng)),
        lambda: (random_overlap(rng), complex(rng.uniform(0.02, 0.95))),
        lambda: (random_overlap(rng), tiny()),  # Orthogonal, no canonical form: Bob alone
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal through the canonical build
    )
    path = tmp_path / "m.json"
    routes = {}
    i = 0
    while sum(routes.values()) < 100:
        ka, kb = draws[i % len(draws)]()
        i += 1
        try:
            report, seq, _, success = construct(ka, kb)
        except NotGloballyOptimal:
            continue
        route = report.branch + ("/bob-only" if frame(ka, kb)[0] is None else "")
        routes[route] = routes.get(route, 0) + 1

        for got, want in zip(flatten(seq).outcomes, _ref_flatten(seq)):
            assert got.tobytes() == want.tobytes()

        save_povm(path, seq, ka, kb, success)
        text = _ref_file_text(seq, ka, kb, success)
        assert path.read_bytes() == text.encode()

        loaded, doc = load_povm(path), json.loads(text)
        for got, want in zip(loaded.povm.outcomes, _ref_flatten(seq)):
            assert got.tobytes() == want.tobytes()  # the pieces round-trip exactly
        pieces = []
        for label, alice_op, bob_ops in zip(LABELS, loaded.seq.alice, loaded.seq.bob):
            pieces.append((alice_op, doc["sequential"]["alice"][label]))
            pieces += zip(bob_ops, doc["sequential"]["bob"][label])
        for got, data in pieces:
            want = _ref_unpacked(data)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert loaded.meta["ka"] == ka and loaded.meta["kb"] == kb
        assert loaded.seq.weights == seq.weights and loaded.seq.branch == seq.branch
    assert set(routes) == {
        "Inequality", "PositiveRealA", "PositiveRealB", "Orthogonal", "Orthogonal/bob-only"
    }, routes


def _certify(certify, pair, seq):
    """The report's fields, or the failure string, as exact text."""
    try:
        return repr(certify(pair, seq))
    except CertificateViolation as exc:
        return f"violation: {exc}"


def test_certificate_matches_per_label_reference():
    rng = np.random.default_rng(72)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (complex(rng.uniform(0.02, 0.95)), random_overlap(rng)),
        lambda: (random_overlap(rng), complex(rng.uniform(0.02, 0.95))),
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal with a canonical form
    )
    branches = {}
    i = 0
    while sum(branches.values()) < 60:
        ka, kb = draws[i % len(draws)]()
        i += 1
        try:
            report, seq, _, _ = construct(ka, kb)
        except NotGloballyOptimal:
            continue
        pair = frame(ka, kb)[0]
        branches[report.branch] = branches.get(report.branch, 0) + 1
        scaled, huge = seq.alice.copy(), seq.alice.copy()
        scaled[i % 7] *= 1.001
        huge[i % 7, 0, 0] = 1e308
        cases = (
            (pair, seq),
            (pair, seq._replace(alice=scaled)),
            (canonicalize(*random_pair(rng)), seq),
            (pair, seq._replace(alice=huge)),
        )
        for case in cases:
            assert _certify(dual_certificate, *case) == _certify(_ref_dual_certificate, *case)
    assert set(branches) == {"Inequality", "PositiveRealA", "PositiveRealB", "Orthogonal"}


def test_closed_form_projectors_certify_as_the_gram_projector():
    # the closed-form projectors replace a Gram-matrix eigensolve.  On 600
    # built pairs of each branch the two give the same margins and the same
    # gate outcomes: every no-tie and tie build certifies; the Orthogonal
    # builds, which verify never certifies, are refused alike on both sides
    rng = np.random.default_rng(76)
    tiny = lambda: complex(*rng.uniform(-1e-10, 1e-10, size=2))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (complex(rng.uniform(0.02, 0.95)), random_overlap(rng)),
        lambda: (random_overlap(rng), complex(rng.uniform(0.02, 0.95))),
        lambda: (tiny(), random_overlap(rng)),  # Orthogonal with a canonical form
    )
    branches = dict.fromkeys(("Inequality", "PositiveRealA", "PositiveRealB", "Orthogonal"), 0)
    worst = 0.0
    i = 0
    while min(branches.values()) < 600:
        ka, kb = draws[i % len(draws)]()
        i += 1
        report = check_global_optimality(ka, kb)
        if not report.verdict or branches[report.branch] >= 600:
            continue
        branches[report.branch] += 1
        _, seq, _, _ = construct(ka, kb)
        pair = frame(ka, kb)[0]
        if report.branch == "Orthogonal":
            closed = _ref_report(pair, seq)
        else:
            closed = dual_certificate(pair, seq)
        gram = _ref_margins(pair, seq, _gram_projector)
        for field in ("psd_margin", "kernel_residual"):
            got, want = getattr(closed, field), getattr(gram, field)
            worst = max(worst, *(abs(got[label] - want[label]) for label in LABELS))
        refused = [[f.rsplit(" ", 1)[0] for f in _ref_failures(r)] for r in (closed, gram)]
        assert refused[0] == refused[1]
        assert (refused[0] != []) == (report.branch == "Orthogonal"), (ka, kb, refused[0])
    assert worst <= 1e-15


def test_diagonal_witness_certifies_as_the_rank_one_sum():
    # the certificate compresses the diagonal D_l where it once summed X less
    # (p/3) |a_r><a_r| over the states Bob may still report.  On 2,000 built
    # pairs each of Inequality, PositiveRealA and PositiveRealB, real overlaps
    # and draws just off a tie axis among them, and on pairs whose kb
    # disagrees with y, the two refuse with the same text (or both certify)
    # and their margins and residuals agree within 1e-15
    rng = np.random.default_rng(77)
    real = lambda: complex(rng.uniform(-0.45, 0.95))  # noqa: E731
    draws = (
        lambda: random_pair(rng),
        lambda: (real(), random_overlap(rng)),
        lambda: (random_overlap(rng), real()),
        lambda: (near_axis(rng), random_overlap(rng)),
        lambda: (random_overlap(rng), near_axis(rng)),
    )
    crafted, fig = canonicalize(0.19 + 0.062j, 0.27 + 0.13j), canonicalize(FIG_K, FIG_K)
    cases = [(crafted._replace(kb=0.1), build_sequential(crafted))]
    cases += [(fig._replace(kb=fig.kb * (1.0 - d)), build_sequential(fig))
              for d in (1e-6, 1e-7, 1e-8)]
    branches = dict.fromkeys(("Inequality", "PositiveRealA", "PositiveRealB"), 0)
    i = 0
    while min(branches.values()) < 2000:
        ka, kb = draws[i % len(draws)]()
        i += 1
        try:
            report = check_global_optimality(ka, kb)
        except RankDeficient:  # a near-axis draw outside the state domain
            continue
        if branches.get(report.branch, 2000) >= 2000:
            continue
        branches[report.branch] += 1
        cases.append((report.pair, build_sequential(report.pair)))
    worst = 0.0
    for pair, seq in cases:
        try:
            new, refused = dual_certificate(pair, seq), ""
        except CertificateViolation as exc:
            new, refused = _ref_report(pair, seq), str(exc)
        old = _ref_margins(pair, seq, witness=_rank_one_witness)
        assert refused == "; ".join(_ref_failures(old)), (pair, refused)
        for field in ("psd_margin", "kernel_residual"):
            got, want = getattr(new, field), getattr(old, field)
            worst = max(worst, *(abs(got[label] - want[label]) for label in LABELS))
    assert worst <= 1e-15


def test_built_defer_operator_sits_in_the_witness_kernel():
    # the defer witness is diagonal with an exact zero at slot perm[2], where
    # the no-tie build puts u_3, so the defer residual is 0.0, not rounding
    rng = np.random.default_rng(78)
    built = 0
    while built < 700:
        report = check_global_optimality(*random_pair(rng))
        if report.branch != "Inequality":
            continue
        built += 1
        rep = dual_certificate(report.pair, build_sequential(report.pair))
        assert rep.kernel_residual["defer"] == 0.0, report.pair


def test_quadratic_form_matches_vdot():
    # one stacked quadratic form serves verify_unambiguous, sample_outcomes
    # and the certificate's leaks; the commands score the pieces with it,
    # within budgets of the exact scoring of the same float pieces measured
    # on these draws at the flattened scoring this replaced: the success
    # within 2 spacings (1.93 there, 1.48 piece by piece), every outcome
    # probability within 2 * 2**-53 (1.33 there, 1.81 piece by piece)
    rng = np.random.default_rng(74)
    built = 0
    while built < 20:
        try:
            _, seq, sv, success = construct(*random_pair(rng))
        except NotGloballyOptimal:
            continue
        built += 1
        flat, states = flatten(seq), joint_states(sv)
        want = [[float(np.real(np.vdot(s, op @ s))) for s in states] for op in flat.outcomes]
        assert _quad(flat.outcomes, states).tolist() == want
        assert _scoring_spacings(success, seq, sv) <= 2
        exact = oracle.outcomes(seq, sv)
        table = _outcomes(seq, sv).tolist()
        miss = max(abs(exact[r][s] - table[r][s]) for r in range(4) for s in range(3))
        assert miss <= 2 * 2**-53


def test_writer_spells_edge_entries_as_the_reference(tmp_path):
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    finite = seq.alice.copy()
    finite[0, 0, 0] = -0.0
    finite[0, 1, 1] = 5e-324
    finite[0, 1, 2] = complex(1e308, -1e-300)
    finite[0, 2, 1] = complex(1e308, 1e-300)  # the mirror keeps the piece Hermitian
    path = tmp_path / "m.json"
    edited = seq._replace(alice=finite)
    save_povm(path, edited, pair.ka, pair.kb, 0.5)
    text = _ref_file_text(edited, pair.ka, pair.kb, 0.5)
    assert path.read_bytes() == text.encode()
    assert "[-0,4.9406564584124654e-324," in text and ",1e+308,-1e-300]" in text
    assert "null" not in text
    # a NaN, and an inf mirrored as its conjugate, are refused: the reader
    # refuses a non-finite entry, so the writer spells none
    bob = seq.bob.copy()
    bob[4, 1, 0, 0] = math.nan
    bob[4, 2, 1, 2] = complex(0.5, -math.inf)
    bob[4, 2, 2, 1] = complex(0.5, math.inf)
    path.unlink()
    with pytest.raises(InvalidPovm, match="^bob exclude1: non-finite entries$"):
        save_povm(path, edited._replace(bob=bob), pair.ka, pair.kb, 0.5)
    assert not path.exists()


def test_writer_refuses_a_piece_that_is_not_hermitian(tmp_path):
    # format 3 keeps only the real diagonal and the upper triangle, so a piece
    # that is not Hermitian would read back as another one: the writer refuses
    # it, names it, and writes nothing; a built measurement writes
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    path = tmp_path / "m.json"
    save_povm(path, seq, pair.ka, pair.kb, 0.5)
    assert np.array_equal(load_povm(path).seq.alice, seq.alice)
    alice, bob, diagonal, nan = (ops.copy() for ops in (seq.alice, seq.bob, seq.alice, seq.alice))
    alice[0, 1, 2] += 1e-15
    bob[4, 2, 2, 1] += 1e-15j
    diagonal[6, 0, 0] += 1e-300j
    # NaN real parts on both sides, imaginary parts that are not mirrored:
    # refused as non-finite before the Hermitian test
    nan[0, 1, 2], nan[0, 2, 1] = complex(math.nan, 1.0), complex(math.nan, 5.0)
    edits = (
        (seq._replace(alice=alice), NonHermitian, "alice announce0: not Hermitian"),
        (seq._replace(bob=bob), NonHermitian, "bob exclude1: not Hermitian"),
        (seq._replace(alice=diagonal), NonHermitian, "alice defer: not Hermitian"),
        (seq._replace(alice=nan), InvalidPovm, "alice announce0: non-finite entries"),
    )
    for edited, error, message in edits:
        path.unlink()
        with pytest.raises(error, match=f"^{message}$"):
            save_povm(path, edited, pair.ka, pair.kb, 0.5)
        assert not path.exists()
        save_povm(path, seq, pair.ka, pair.kb, 0.5)


def _edit(piece, a, b, kind, z):
    """Edit entry (a, b) of a 3x3 piece in place: set its real or imaginary
    part to z, add z there alone, or add z there and its conjugate at (b, a)."""
    if kind == "re":
        piece[a, b] = complex(z, piece[a, b].imag)
    elif kind == "im":
        piece[a, b] = complex(piece[a, b].real, z)
    elif kind == "unmirrored":
        piece[a, b] += z
    elif a == b:  # "hermitian" on the diagonal, which stays real
        piece[a, a] += z.real
    else:
        piece[a, b] += z
        piece[b, a] += z.conjugate()


def test_writer_never_writes_what_the_reader_refuses(tmp_path):
    # every label and outcome of three built measurements (the product
    # strategy among them), each edited at one seeded entry in each of eight
    # ways: save_povm refuses the edit, naming the piece as the reader would
    # and leaving no file, or writes a file that load_povm reads back equal
    rng = np.random.default_rng(41)
    built = [construct(*pair)[1] for pair in ((FIG_K, FIG_K), (0.3, 0.25), (0.25, 0.2j))]
    assert [seq.branch for seq in built] == ["Inequality", "PositiveRealB", "PositiveRealA"]
    edits = [(part, v, InvalidPovm, "non-finite entries")
             for part in ("re", "im") for v in (math.nan, math.inf, -math.inf)]
    edits += [("unmirrored", None, NonHermitian, "not Hermitian"), ("hermitian", None, None, "")]
    path = tmp_path / "m.json"
    written = 0
    for seq in built:
        for name, outcomes in (("alice", (None,)), ("bob", range(4))):
            for i, label in enumerate(LABELS):
                for r, (kind, z, error, words) in itertools.product(outcomes, edits):
                    z = complex(*rng.uniform(0.1, 1.0, 2)) if z is None else z
                    ops = getattr(seq, name).copy()
                    where = rng.choice(3, 2, replace=kind != "unmirrored")
                    _edit(ops[i] if r is None else ops[i, r], *where, kind, z)
                    edited = seq._replace(**{name: ops})
                    path.unlink(missing_ok=True)
                    if error is None:
                        save_povm(path, edited, 0.2, 0.3, 0.5)
                        loaded = load_povm(path).seq
                        assert np.array_equal(loaded.alice, edited.alice)
                        assert np.array_equal(loaded.bob, edited.bob)
                        written += 1
                    else:
                        with pytest.raises(error, match=f"^{name} {label}: {words}$"):
                            save_povm(path, edited, 0.2, 0.3, 0.5)
                        assert not path.exists()
    assert written == 3 * 7 * 5
    # so is a non-finite meta number, in either part of an overlap and at any
    # place of kappa, named as the reader names it
    seq = built[0]
    for v, i in itertools.product((math.nan, math.inf, -math.inf), range(3)):
        weights = list(seq.weights)
        weights[i] = v
        part = complex(v, 0.3) if i else complex(0.2, v)
        edits = (("ka", part, 0.3, seq, 0.5), ("kb", 0.2, part, seq, 0.5),
                 ("kappa", 0.2, 0.3, seq._replace(weights=tuple(weights)), 0.5),
                 ("success", 0.2, 0.3, seq, v))
        for name, ka, kb, edited, success in edits:
            path.unlink(missing_ok=True)
            with pytest.raises(InvalidPovm, match=f"^meta {name}: non-finite entries$"):
                save_povm(path, edited, ka, kb, success)
            assert not path.exists()


def _refused_like_the_reader(tmp_path, field, value, message, edits):
    """load_povm refuses meta `field` set to `value` with `message`; save_povm
    refuses each edit (seq, ka, success) with its message, and an existing
    target keeps its bytes."""
    seq = construct(0.3, 0.25)[1]
    path = tmp_path / "m.json"
    save_povm(path, seq, 0.3, 0.25, 0.5)
    doc = json.loads(path.read_text())
    doc["meta"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidPovm, match=f"^{message}$"):
        load_povm(path)
    old = path.read_bytes()
    for edited, ka, success, words in edits(seq):
        with pytest.raises(InvalidPovm, match=f"^{words}$"):
            save_povm(path, edited, ka, 0.25, success)
        assert path.read_bytes() == old


def test_writer_refuses_a_branch_the_reader_refuses(tmp_path):
    branch = f"meta branch: expected one of {', '.join(BRANCHES)}"
    _refused_like_the_reader(tmp_path, "branch", "Foo", branch, lambda seq: (
        (seq._replace(branch="Foo"), 0.3, 0.5, branch),
        (seq._replace(branch=None), 0.3, 0.5, branch),
        # in the reader's order: kappa, then branch, then success
        (seq._replace(branch="Foo", weights=(0.1, 0.2)), 0.3, 0.5,
         r"meta kappa: expected a \(3,\) array of numbers"),
        (seq._replace(branch="Foo"), 0.3, math.nan, branch),
    ))


def test_writer_refuses_a_kappa_the_reader_refuses(tmp_path):
    kappa = r"meta kappa: expected a \(3,\) array of numbers"
    _refused_like_the_reader(tmp_path, "kappa", [0.1, 0.2], kappa, lambda seq: (
        (seq._replace(weights=(0.1, 0.2)), 0.3, 0.5, kappa),
        (seq._replace(weights=(0.1, 0.2, 0.3, 0.4)), 0.3, 0.5, kappa),
        (seq._replace(weights=(0.1, 0.2, True)), 0.3, 0.5, kappa),
        (seq._replace(weights=(0.1, 0.2, "0.3")), 0.3, 0.5, kappa),
        (seq._replace(weights=((0.1,), (0.2,), (0.3,))), 0.3, 0.5, kappa),
        (seq._replace(weights=(0.1, 0.2, math.nan)), 0.3, 0.5, "meta kappa: non-finite entries"),
        # in the reader's order: ka and kb, then kappa; a success the
        # reader refuses, a bool, is refused too
        (seq._replace(weights=(0.1, 0.2)), math.inf, 0.5, "meta ka: non-finite entries"),
        (seq, 0.3, True, r"meta success: expected a \(\) array of numbers"),
    ))


@pytest.fixture(scope="module")
def saved_text(tmp_path_factory):
    pair = canonicalize(FIG_K, FIG_K)
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    save_povm(path, build_sequential(pair), pair.ka, pair.kb, 0.5)
    return path.read_text(), path.with_name("fuzzed.json")


# null, bool, int (one beyond float range), float (±inf and NaN included),
# string, and a short list or object of those
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.just(-(10**400)) | st.floats()
    | st.text(max_size=3)
)
_JSON_VALUES = (
    _SCALARS | st.lists(_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), value=_JSON_VALUES)
def test_load_fuzzed_file_returns_or_raises_invalid_povm(saved_text, seed, value):
    text, path = saved_text
    doc = json.loads(text)
    # a uniform walk of 0..5 levels picks the node to replace, stopping at a
    # leaf; the file is at most 5 levels deep (sequential, bob, label,
    # outcome, number)
    walk = random.Random(seed)
    parent, key, node = None, None, doc
    for _ in range(walk.randrange(6)):
        if not isinstance(node, (dict, list)) or not node:
            break
        parent = node
        key = walk.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        node = parent[key]
    if parent is None:
        doc = value
    else:
        parent[key] = value
    path.write_text(json.dumps(doc))
    try:
        load_povm(path)
    except InvalidPovm:
        pass
