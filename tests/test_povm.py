"""Measurement construction, flattening, certificates, file round-trip."""

import cmath
import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_overlap, random_pair
from triseq import (
    binary_unambiguous,
    build_sequential,
    canonicalize,
    check_global_optimality,
    construct,
    dual_certificate,
    flatten,
    global_optimum,
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
from triseq.povm import LABELS, OUTCOME_LABELS, Povm
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
    assert report.pair is None
    assert seq.branch == report.branch == "Orthogonal"
    assert seq.weights == (0.0, 0.0, 3.0)
    assert np.allclose(seq.alice[LABELS.index("defer")], np.eye(3))
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
