"""Acceptance suite: one test per criterion, pinned tolerances.

Each test prints a one-line summary; `pytest -v` gives the per-criterion
pass/fail listing.  Criterion 3's sample is shared with criterion 4
through a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from helpers import random_overlap
from triseq import (
    build_sequential,
    canonicalize,
    check_copies_psk,
    check_global_optimality,
    dual_certificate,
    flatten,
    identity_membership,
    in_triangle,
    joint_states,
    level_curve,
    lifted_trine_overlap,
    outcome_triangle,
    psk_overlap,
    sample_outcomes,
    solve_weights,
    state_vectors,
    verify_povm,
    verify_unambiguous,
)
from triseq.cli import main as cli_main
from triseq.errors import SingularSystem
from triseq.optimality import _offsets

BOUNDARY = 1e-7  # normalized distance to a region boundary below which
# the three verdict routes are allowed to disagree


def _boundary_margin(report):
    """Smallest normalized distance of the pair from a verdict boundary."""
    x, z = report.pair.x, report.offsets
    s1 = x[2] * abs(z[0]) + x[1] * abs(z[1])
    iz = [v**-2 for v in z]
    s2 = sum(x[k] ** 2 * (abs(iz[(1 - k) % 3]) + abs(iz[(3 - k) % 3])) for k in range(3))
    return min(abs(report.c1) / s1, abs(report.c2) / s2)


@pytest.fixture(scope="module")
def random_sample():
    """Criterion 3 sample: 10,000 pairs, both overlap moduli uniform in
    (0.02, 0.95), phases uniform, seeded; rank-deficient draws redrawn."""
    rng = np.random.default_rng(20260822)
    sample = []
    for _ in range(10_000):
        ka = random_overlap(rng, 0.02, 0.95)
        kb = random_overlap(rng, 0.02, 0.95)
        sample.append((ka, kb, check_global_optimality(ka, kb)))
    return sample


def test_criterion_01_lifted_trine_threshold():
    start = time.perf_counter()
    gs = np.arange(0.011, 0.989, 1e-3)
    verdicts = []
    for g in gs:
        k = lifted_trine_overlap(float(g))
        verdicts.append(check_global_optimality(k, k).verdict)
    flips = [i for i in range(1, len(gs)) if verdicts[i] != verdicts[i - 1]]
    elapsed = time.perf_counter() - start
    assert len(flips) == 1
    boundary = gs[flips[0]]
    assert abs(boundary - 1 / 3) <= 1e-3 + 1e-12
    assert not verdicts[0] and verdicts[-1]
    assert elapsed < 5.0
    print(f"criterion 1: threshold at g = {boundary:.6f} (target 1/3), {elapsed:.2f} s")


def test_criterion_02_psk_intervals():
    start = time.perf_counter()
    base = math.pi / (3.0 * math.sqrt(3.0))
    expected = [(0.0, base), (3.0 * base, 5.0 * base)]  # within (0, 4]
    ss = np.arange(0.011, 4.0 + 1e-12, 1e-3)
    verdicts = []
    for s in ss:
        k = psk_overlap(float(s))
        verdicts.append(check_global_optimality(k, k).verdict)
    flips = [float(ss[i]) for i in range(1, len(ss)) if verdicts[i] != verdicts[i - 1]]
    elapsed = time.perf_counter() - start
    # the k = 2 interval opens at 7*base > 4, so three boundaries are in range
    assert len(flips) == 3
    targets = [expected[0][1], expected[1][0], expected[1][1]]
    for flip, target in zip(flips, targets):
        assert abs(flip - target) <= 2e-3
    assert verdicts[0] is True
    assert elapsed < 10.0
    print(f"criterion 2: transitions at {flips}, {elapsed:.2f} s")


def test_criterion_03_three_route_agreement(random_sample):
    start = time.perf_counter()
    flagged = 0
    disagreements = 0
    for ka, kb, report in random_sample:
        if report.branch not in ("Inequality", "Fails"):
            flagged += 1  # tie or orthogonal branch: boundary by definition
            continue
        near = _boundary_margin(report) < BOUNDARY
        try:
            u = solve_weights(report.pair)
            verdict_weights = min(u) >= -1e-9
        except SingularSystem:
            flagged += 1
            continue
        verdict_membership = identity_membership(report.pair)
        if near:
            flagged += 1
            continue
        if not (report.verdict == verdict_weights == verdict_membership):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert flagged < 50  # < 0.5% of the sample
    assert elapsed < 60.0
    print(
        f"criterion 3: {flagged} boundary-flagged of {len(random_sample)}, "
        f"0 disagreements, {elapsed:.2f} s"
    )


def test_criterion_04_construction_soundness(random_sample):
    start = time.perf_counter()
    built = 0
    for _, _, report in random_sample:
        if not report.verdict or report.pair is None:
            continue
        pair = report.pair
        seq = build_sequential(pair)
        flat = flatten(seq)
        chk = verify_povm(flat)
        assert chk.completeness <= 1e-10
        assert chk.psd_margin >= -1e-12
        success, leak = verify_unambiguous(flat, joint_states(state_vectors(pair)))
        assert leak <= 1e-10
        assert abs(success - report.p_global) <= 1e-10
        dual_certificate(pair, seq)
        built += 1
    elapsed = time.perf_counter() - start
    assert built > 1000
    assert elapsed < 120.0
    print(f"criterion 4: {built} measurements built and certified, {elapsed:.2f} s")


def test_criterion_05_positive_real_closed_form():
    rng = np.random.default_rng(20260823)
    for _ in range(100):
        ka = float(rng.uniform(0.02, 0.95))
        kb = float(rng.uniform(0.02, 0.95))
        pair = canonicalize(ka, kb)
        seq = build_sequential(pair)
        success, _ = verify_unambiguous(flatten(seq), joint_states(state_vectors(pair)))
        x2, y2 = pair.x[2], pair.y[2]
        closed = 3.0 * (x2**2 + y2**2 - 3.0 * x2**2 * y2**2)
        assert abs(success - closed) <= 1e-10
    print("criterion 5: 100 positive-real pairs match the closed form")


def test_criterion_06_geometry_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(20260824)
    checked = 0
    while checked < 500:
        ka = random_overlap(rng, 0.02, 0.95)
        kb = random_overlap(rng, 0.02, 0.95)
        report = check_global_optimality(ka, kb)
        if report.branch not in ("Inequality", "Fails"):
            continue
        pair = report.pair
        level, _ = _offsets(pair.kb, pair.y)
        assert pair.y[2] ** 2 < level < pair.y[1] ** 2
        inv = [1.0 / z for z in report.offsets]
        assert abs(sum(inv)) <= 1e-8 * sum(abs(v) for v in inv)

        tri = outcome_triangle(pair)
        for q, point in level_curve(pair, 200):
            assert in_triangle(point, tri, 1e-8)
            if q == pair.y[2] ** 2:
                continue  # spliced defer level: u_2 is infinite there
            u = [1.0 / (pair.y[k] ** 2 - q) for k in range(3)]
            assert u[0] ** 2 <= u[1] ** 2 + 1e-12 * u[1] ** 2
            assert u[1] ** 2 <= u[2] ** 2 + 1e-12 * u[2] ** 2

        y = pair.y
        limit = (y[0] ** 2 - y[1] ** 2) / (y[0] ** 2 - y[2] ** 2)
        u = [1.0 / (y[k] ** 2 - level) for k in range(3)]
        at_eta = (u[1] ** 2 - u[0] ** 2) / (u[2] ** 2 - u[0] ** 2)
        assert abs(at_eta - limit) <= 1e-8
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 6: 500 pairs x 201 curve points inside, {elapsed:.2f} s")


def test_criterion_07_multipartite_reduction():
    assert check_copies_psk(0.1, 20) == (True, None)
    for s in np.linspace(0.05, 4.0, 50):
        per_copy = float(s)
        k = psk_overlap(per_copy)
        bipartite = check_global_optimality(k, k).verdict
        chained, _ = check_copies_psk(2.0 * per_copy, 2)
        assert chained == bipartite
    print("criterion 7: N = 20 weak-signal pass; N = 2 diagonal matches bipartite")


def test_criterion_08_dolinar_spot_checks():
    s_total = 4.0 * math.pi / math.sqrt(3.0)
    k = psk_overlap(s_total / 2.0)
    assert check_global_optimality(k, k).verdict is False

    t = 1e-3
    r = check_global_optimality(psk_overlap(t * 1.0), psk_overlap((1.0 - t) * 1.0))
    assert r.verdict is False
    assert r.pair.x[2] / r.pair.x[1] < 0.1  # early split leaves Alice lopsided
    assert r.offsets[1] > 0.05  # while Bob's middle offset stays bounded away
    print("criterion 8: dead-zone split and infinitesimal split both rejected")


def test_criterion_09_monte_carlo():
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 10:
        ka = random_overlap(rng, 0.05, 0.9)
        kb = random_overlap(rng, 0.05, 0.9)
        report = check_global_optimality(ka, kb)
        if report.verdict and report.branch == "Inequality":
            pairs.append(report.pair)
    shots = 100_000
    for i, pair in enumerate(pairs):
        flat = flatten(build_sequential(pair))
        states = joint_states(state_vectors(pair))
        for r in range(3):
            probs = [
                max(float(np.real(np.vdot(states[r], op @ states[r]))), 0.0)
                for op in flat.outcomes
            ]
            seed = 3000 + 10 * i + r
            counts = sample_outcomes(flat, states[r], shots, seed)
            again = sample_outcomes(flat, states[r], shots, seed)
            assert np.array_equal(counts, again)
            for c, p in zip(counts, probs):
                sigma = math.sqrt(p * (1.0 - p) / shots)
                assert abs(c / shots - p) <= 3.0 * sigma + 1e-12
    print("criterion 9: 10 measurements x 3 states within 3 sigma, seeds reproduce")


def test_criterion_10_success_curve(tmp_path):
    out = tmp_path / "curve.csv"
    assert cli_main(["curve", "--s-max", "3.0", "--step", "0.001", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3000

    base = math.pi / (3.0 * math.sqrt(3.0))
    for idx in range(0, len(rows), 97):  # spot-recompute the curve values
        s, p_global, verdict, p_seq = rows[idx]
        ref = check_global_optimality(psk_overlap(float(s)), psk_overlap(float(s)))
        assert float(p_global) == pytest.approx(ref.p_global, rel=1e-12)
        assert verdict == ("true" if ref.verdict else "false")

    for s, p_global, verdict, p_seq in rows:
        sv = float(s)
        inside = sv <= base or 3.0 * base <= sv  # k = 0 and k = 1 intervals
        if abs(sv - base) > 2e-3 and abs(sv - 3.0 * base) > 2e-3:
            assert (verdict == "true") == inside
        if verdict == "true":
            assert p_seq != ""
            assert abs(float(p_seq) - float(p_global)) <= 1e-9
        else:
            assert p_seq == ""
    print("criterion 10: 3000-row curve matches the interval structure")
