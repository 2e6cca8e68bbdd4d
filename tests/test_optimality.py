"""Sequential-optimality decision: branches, inequalities, invariances."""

import cmath
import math

import numpy as np
import pytest

from helpers import random_pair
from triseq import (
    check_global_optimality,
    psk_overlap,
)
from triseq.errors import DegenerateStates
from triseq.states import TAU


def test_filter_level_values():
    # the decision's threshold is Bob's filter level (1 - |kb|) / 3
    def threshold(kb):
        return check_global_optimality(0.5 + 0.1j, kb).threshold

    assert threshold(0.25) == 0.25
    assert threshold(-0.2) == pytest.approx(0.8 / 3, abs=1e-16)
    assert threshold(0.3 * cmath.exp(1.1j)) == pytest.approx(0.7 / 3, abs=1e-15)
    with pytest.raises(DegenerateStates):
        threshold(1.0)


def test_joint_amplitudes_trine():
    report = check_global_optimality(0.25, 0.25)
    tj, perm = report.joint, report.perm
    assert [t**2 for t in tj] == pytest.approx([0.375, 0.3125, 0.3125], abs=1e-14)
    assert perm == (2, 1, 0)
    assert report.p_global == pytest.approx(0.9375, abs=1e-14)


def test_joint_minimum_never_in_middle_slot():
    # canonical orientation forces tjoint_1 >= tjoint_2, so the minimum
    # sits in slot perm[0] which is always 0 or 2
    rng = np.random.default_rng(21)
    for _ in range(300):
        report = check_global_optimality(*random_pair(rng))
        assert report.pair is not None
        tj, perm = report.joint, report.perm
        assert tj[1] >= tj[2] - 1e-12
        assert perm[0] in (0, 2)
        assert tj[perm[0]] <= min(tj) + 1e-15


def test_report_fails_frozen():
    r = check_global_optimality(-0.2, -0.2)
    assert r.verdict is False
    assert r.branch == "Fails"
    assert r.threshold == pytest.approx(0.8 / 3, abs=1e-16)
    assert r.offsets == pytest.approx((2 / 15, 2 / 15, -1 / 15), abs=1e-14)
    assert r.c1 == pytest.approx(-0.024698924871162264, rel=1e-12)
    assert r.c2 == pytest.approx(-33.75, rel=1e-12)
    assert r.p_global == pytest.approx(0.96, abs=1e-14)
    assert r.pair.record == (2, 2, False)


def test_report_inequality_frozen():
    k = 0.2 * cmath.exp(1j * cmath.pi / 10)
    r = check_global_optimality(k, k)
    assert r.verdict is True
    assert r.branch == "Inequality"
    assert r.c1 == pytest.approx(0.07211008755157104, rel=1e-10)
    assert r.c2 == pytest.approx(76.90647672392666, rel=1e-10)
    assert r.p_global == pytest.approx(0.926916363388592, rel=1e-12)
    assert [v**2 for v in r.pair.x] == pytest.approx(
        [0.46014086883935384, 0.30561177455763205, 0.23424735660301418], abs=1e-13
    )
    assert r.offsets == pytest.approx(
        (0.19347420217268718, 0.03894510789096539, -0.03241931006365248), abs=1e-13
    )


def test_report_positive_real_b():
    r = check_global_optimality(0.25, 0.25)
    assert r.verdict is True
    assert r.branch == "PositiveRealB"
    assert r.p_global == pytest.approx(0.9375, abs=1e-14)
    # both lower offsets vanish on this branch, c2 is diagnostic only
    assert r.offsets[1] == pytest.approx(0.0, abs=1e-14)
    assert r.offsets[2] == pytest.approx(0.0, abs=1e-14)


def test_report_positive_real_a():
    r = check_global_optimality(0.3, 0.2 * cmath.exp(1j * cmath.pi / 5))
    assert r.verdict is True
    assert r.branch == "PositiveRealA"
    assert abs(r.pair.x[1] - r.pair.x[2]) < 1e-12
    assert r.p_global == pytest.approx(0.8903745450828879, rel=1e-12)


def test_report_orthogonal():
    for ka, kb in ((0.0, 0.4 * cmath.exp(0.3j)), (0.3, 0.0), (0.0, 0.0)):
        r = check_global_optimality(ka, kb)
        assert r.verdict is True
        assert r.branch == "Orthogonal"
        assert r.pair is None
        assert r.p_global == pytest.approx(1.0, abs=1e-14)


def test_gray_zone_kb_treated_as_orthogonal():
    # |kb| just above the tie cutoff but too small for a strict Bob ordering
    r = check_global_optimality(0.3, 1.05e-9)
    assert r.verdict is True
    assert r.branch == "Orthogonal"
    assert r.pair is None


def test_offset_reciprocals_sum_to_zero():
    rng = np.random.default_rng(22)
    for _ in range(200):
        r = check_global_optimality(*random_pair(rng))
        if r.branch in ("Inequality", "Fails", "PositiveRealA"):
            inv = [1.0 / z for z in r.offsets]
            assert abs(sum(inv)) < 1e-8 * sum(abs(v) for v in inv)
            # equivalent polynomial form, no reciprocals
            z = r.offsets
            sym = z[0] * z[1] + z[1] * z[2] + z[2] * z[0]
            assert abs(sym) < 1e-12 * sum(abs(a * b) for a in z for b in z)


def test_threshold_between_lower_squared_amplitudes():
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = check_global_optimality(*random_pair(rng))
        if r.branch == "PositiveRealB":
            assert r.threshold == pytest.approx(r.pair.y[1] ** 2, abs=1e-9)
        elif r.pair is not None:
            assert r.pair.y[2] ** 2 < r.threshold < r.pair.y[1] ** 2


def test_c2_rearrangement():
    rng = np.random.default_rng(24)
    for _ in range(100):
        r = check_global_optimality(*random_pair(rng))
        if r.branch not in ("Inequality", "Fails"):
            continue
        x = r.pair.x
        iz = [z**-2 for z in r.offsets]
        alt = (x[0] ** 2 - x[2] ** 2) * (iz[1] - iz[0]) - (x[1] ** 2 - x[2] ** 2) * (
            iz[2] - iz[0]
        )
        assert alt == pytest.approx(r.c2, rel=1e-9, abs=1e-9)


def test_verdict_invariant_under_relabeling():
    rng = np.random.default_rng(25)
    for _ in range(30):
        ka, kb = random_pair(rng)
        base = check_global_optimality(ka, kb)
        for sa in range(3):
            for sb in range(3):
                r = check_global_optimality(TAU**sa * ka, TAU**sb * kb)
                assert r.verdict == base.verdict
                assert r.branch == base.branch
                assert r.p_global == pytest.approx(base.p_global, rel=1e-12)
        conj = check_global_optimality(ka.conjugate(), kb.conjugate())
        assert conj.verdict == base.verdict
        assert conj.branch == base.branch


def test_psk_spot_checks():
    expected = {0.3: (True, "Inequality"), 1.0: (False, "Fails"),
                2.0: (True, "Inequality"), 3.5: (False, "Fails")}
    for s, (verdict, branch) in expected.items():
        k = psk_overlap(s)
        r = check_global_optimality(k, k)
        assert r.verdict == verdict
        assert r.branch == branch


def test_global_optimum_is_min_gram_eigenvalue():
    # the joint states are symmetric with overlap ka*kb; the squared joint
    # amplitudes are eigenvalues/3 of the circulant gram matrix, so the
    # global optimum equals that matrix's smallest eigenvalue
    rng = np.random.default_rng(26)
    for _ in range(50):
        ka, kb = random_pair(rng)
        r = check_global_optimality(ka, kb)
        kj = ka * kb
        g = np.array(
            [[1, kj, kj.conjugate()], [kj.conjugate(), 1, kj], [kj, kj.conjugate(), 1]]
        )
        w = np.linalg.eigvalsh(g)
        assert r.p_global == pytest.approx(float(w[0]), rel=1e-10)
