"""Measurement construction, flattening, certificates, file round-trip."""

import cmath
import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_overlap, random_pair
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
    global_optimum,
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
    NotGloballyOptimal,
)
from triseq.optimality import _offsets, _tie_branch
from triseq.povm import _MAX_SHOTS, LABELS, OUTCOME_LABELS, CertificateReport, Povm, _quad
from triseq.serialize import json_dumps
from triseq.states import TAU, frame

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


def test_generic_construction_frozen():
    pair = canonicalize(FIG_K, FIG_K)
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
    assert success == pytest.approx(global_optimum(pair), abs=1e-10)
    assert seq.alice.shape == (7, 3, 3) and seq.bob.shape == (7, 4, 3, 3)
    rep = dual_certificate(pair, seq)
    assert set(rep.kernel_dim) == set(LABELS)
    assert all(d == 1 for d in rep.kernel_dim.values())


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
    pair = canonicalize(FIG_K, 0.25)
    seq = build_sequential(pair)
    assert seq.branch == "PositiveRealB"
    assert np.linalg.matrix_rank(seq.alice[LABELS.index("defer")], tol=1e-9) == 2
    success, _ = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
    assert success == pytest.approx(global_optimum(pair), abs=1e-10)
    dual_certificate(pair, seq)


def test_positive_real_a_construction():
    pair = canonicalize(0.3, 0.2 * cmath.exp(1j * cmath.pi / 5))
    seq = build_sequential(pair)
    assert seq.branch == "PositiveRealA"
    assert seq.weights[0] == pytest.approx(7 / 30, abs=1e-12)
    assert seq.weights[1] == pytest.approx(0.0, abs=1e-12)
    assert seq.weights[2] == pytest.approx(9 / 16, abs=1e-12)
    success, _ = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
    assert success == pytest.approx(global_optimum(pair), abs=1e-10)
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
    tampered = dataclasses.replace(seq, alice=bad)
    with pytest.raises(CertificateViolation):
        dual_certificate(pair, tampered)


@pytest.mark.parametrize("label", BRANCHES)
def test_certificate_ignores_the_branch_label(label):
    # the pair, not the label its measurement carries, sets the defer exemption
    for pair in (canonicalize(FIG_K, 0.25), canonicalize(FIG_K, FIG_K)):
        seq = build_sequential(pair)
        assert seq.branch in ("PositiveRealB", "Inequality")
        relabelled = dataclasses.replace(seq, branch=label)
        assert dual_certificate(pair, relabelled) == dual_certificate(pair, seq)


def test_certificate_rejects_wrong_pair():
    # a valid measurement for one pair must not certify another
    seq = build_sequential(canonicalize(FIG_K, FIG_K))
    other = canonicalize(0.25 * cmath.exp(1j * cmath.pi / 7), 0.3 * cmath.exp(0.9j))
    with pytest.raises(CertificateViolation):
        dual_certificate(other, seq)


def test_verify_povm_structural_errors():
    good = np.eye(3, dtype=complex)
    with pytest.raises(InvalidPovm):
        verify_povm(Povm(outcomes=(np.zeros((3, 2)),), labels=("a",)))
    with pytest.raises(InvalidPovm):
        verify_povm(Povm(outcomes=(good, np.eye(2, dtype=complex)), labels=("a", "b")))
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(InvalidPovm):
        verify_povm(Povm(outcomes=(skew,), labels=("a",)))


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
    bad["outcomes"][1]["label"] = "weird"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)

    bad = json.loads(json.dumps(doc))
    bad["outcomes"][0]["matrix"][2][5] = ["oops", 0.0]
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)

    bad = json.loads(json.dumps(doc))
    del bad["sequential"]["alice"]["defer"]
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidPovm):
        load_povm(path)


def _ref_matrix_to_json(op):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(op, dtype=complex)]


def _ref_file_text(seq, ka, kb, success):
    """The measurement file as the element-by-element writer spelled it."""
    flat = flatten(seq)
    doc = {
        "dim": 9,
        "outcomes": [
            {"label": label, "matrix": _ref_matrix_to_json(op)}
            for label, op in zip(flat.labels, flat.outcomes)
        ],
        "meta": {
            "ka": [ka.real, ka.imag],
            "kb": [kb.real, kb.imag],
            "branch": seq.branch,
            "kappa": list(seq.weights),
            "success": success,
        },
        "sequential": {
            "alice": {label: _ref_matrix_to_json(op) for label, op in zip(LABELS, seq.alice)},
            "bob": {
                label: [_ref_matrix_to_json(op) for op in ops]
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


@np.errstate(over="ignore", invalid="ignore")
def _ref_dual_certificate(pair, seq):
    """dual_certificate as the per-label loop spelled it, with one
    null-space projector and two eigensolves per label."""

    def null_projector(vectors):
        if not vectors:
            return np.eye(3, dtype=complex)
        gram = sum(np.outer(v, v.conj()) for v in vectors)
        w, vv = hermitian_eigen(gram)
        out = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            if w[i] < TOL.null_space:
                out += np.outer(vv[:, i], vv[:, i].conj())
        return out

    x, y, perm = pair.x, pair.y, pair.perm
    sv = state_vectors(pair)
    witness = np.diag([3.0 * x[n] ** 2 * y[perm[n]] ** 2 for n in range(3)]).astype(complex)
    level, _ = _offsets(pair.kb, y)
    p_value = (1.0,) * 3 + (3.0 * level,) * 3 + (3.0 * y[2] ** 2,)
    allowed_sets = ((0,), (1,), (2,), (1, 2), (2, 0), (0, 1), (0, 1, 2))
    psd_margin, kernel_residual, kernel_dim, unambiguity = {}, {}, {}, {}
    failures = []
    for label, allowed, pv, a_op in zip(LABELS, allowed_sets, p_value, seq.alice):
        blocked = tuple(r for r in range(3) if r not in allowed)
        d = witness.copy()
        for r in allowed:
            d -= (pv / 3.0) * np.outer(sv.a[r], sv.a[r].conj())
        proj = null_projector([sv.a[r] for r in blocked])
        g = proj @ d @ proj
        g = (g + g.conj().T) / 2.0
        w, _ = hermitian_eigen(g)
        psd_margin[label] = float(w[0])
        if not w[0] >= -TOL.psd:
            failures.append(f"{label}: witness eigenvalue {w[0]:.3e}")
        a_norm = float(np.linalg.norm(a_op))
        active = not a_norm <= TOL.active
        if active:
            kernel_residual[label] = float(np.linalg.norm(g @ a_op) / a_norm)
            if not kernel_residual[label] <= TOL.kernel_resid:
                failures.append(f"{label}: kernel residual {kernel_residual[label]:.3e}")
        else:
            kernel_residual[label] = 0.0
        if active and (label != "defer" or _tie_branch(pair) != "PositiveRealB"):
            rank_proj = int(round(float(np.trace(proj).real)))
            dim_in = int(np.sum(np.abs(w) < TOL.kernel_zero)) - (3 - rank_proj)
            kernel_dim[label] = dim_in
            if dim_in != 1:
                failures.append(f"{label}: kernel dimension {dim_in} != 1")
        leaks = [abs(float(np.real(np.vdot(sv.a[r], a_op @ sv.a[r])))) for r in blocked]
        unambiguity[label] = float(np.max(leaks, initial=0.0))
        if not unambiguity[label] <= TOL.leak:
            failures.append(f"{label}: unambiguity leak {unambiguity[label]:.3e}")
    completeness = float(np.max(np.abs(sum(seq.alice) - np.eye(3))))
    if not completeness <= TOL.completeness:
        failures.append(f"completeness residual {completeness:.3e}")
    if failures:
        raise CertificateViolation("; ".join(failures))
    return CertificateReport(psd_margin, kernel_residual, kernel_dim, completeness, unambiguity)


def _ref_matrix_from_json(data):
    return np.array([[complex(float(e[0]), float(e[1])) for e in row] for row in data])


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
        pieces = [(got, e["matrix"]) for got, e in zip(loaded.povm.outcomes, doc["outcomes"])]
        for label, alice_op, bob_ops in zip(LABELS, loaded.seq.alice, loaded.seq.bob):
            pieces.append((alice_op, doc["sequential"]["alice"][label]))
            pieces += zip(bob_ops, doc["sequential"]["bob"][label])
        for got, data in pieces:
            want = _ref_matrix_from_json(data)
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
            (pair, dataclasses.replace(seq, alice=scaled)),
            (canonicalize(*random_pair(rng)), seq),
            (pair, dataclasses.replace(seq, alice=huge)),
        )
        for case in cases:
            assert _certify(dual_certificate, *case) == _certify(_ref_dual_certificate, *case)
    assert set(branches) == {"Inequality", "PositiveRealA", "PositiveRealB", "Orthogonal"}


def test_quadratic_form_matches_vdot():
    # one table serves verify_unambiguous, the simulated probabilities and the leaks
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
        assert success == sum((1 / 3) * want[r][r] for r in range(3))


def test_writer_spells_edge_entries_as_the_reference(tmp_path):
    pair = canonicalize(FIG_K, FIG_K)
    seq = build_sequential(pair)
    finite = seq.alice.copy()
    finite[0, 0, 0] = complex(-0.0, 5e-324)
    finite[0, 1, 2] = complex(1e308, -1e-300)
    bob = seq.bob.copy()
    bob[4, 1, 0, 0] = complex(math.nan, math.inf)
    bob[4, 2, 1, 1] = -math.inf
    edges = (
        (dataclasses.replace(seq, alice=finite), False),
        (dataclasses.replace(seq, alice=finite, bob=bob), True),
    )
    path = tmp_path / "m.json"
    for edited, has_null in edges:
        with np.errstate(invalid="ignore"):  # flatten multiplies inf by zero
            save_povm(path, edited, pair.ka, pair.kb, 0.5)
            text = _ref_file_text(edited, pair.ka, pair.kb, 0.5)
        assert path.read_bytes() == text.encode()
        assert "[-0,4.9406564584124654e-324]" in text and "[1e+308,-1e-300]" in text
        assert ("null" in text) == has_null


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
    # a uniform walk of 0..7 levels picks the node to replace; the file is
    # at most 7 levels deep (sequential, bob, label, outcome, row, entry, re)
    walk = random.Random(seed)
    parent, key, node = None, None, doc
    for _ in range(walk.randrange(8)):
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
