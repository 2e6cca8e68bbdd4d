"""Simplex-plane picture of the extremal outcomes."""

import cmath

import numpy as np
import pytest

from helpers import random_overlap, random_pair
from triseq import (
    PlanePoint,
    Triangle,
    canonicalize,
    check_global_optimality,
    chord_ratio,
    chord_ratio_limit,
    diagonal_point,
    identity_membership,
    in_triangle,
    level_curve,
    level_vector,
    outcome_triangle,
)
from triseq.errors import DomainError, TriseqError, ZeroOperator
from triseq.numerics import TOL
from triseq.optimality import _offsets, _tie_branch
from triseq.states import TAU

FIG_K = 0.2 * cmath.exp(1j * cmath.pi / 10)


def test_symmetrize_kills_off_diagonals():
    # the module's premise: averaging t over the cyclic phase rotation
    # diag(1, tau, tau^2)^k leaves diag(diagonal(t)), so the plane point of
    # a symmetrized outcome is read from the diagonal alone
    rot = [np.diag([1.0, TAU**k, TAU ** (2 * k)]) for k in range(3)]

    def symmetrize(t):
        return sum(r @ t @ r.conj().T for r in rot) / 3.0

    rng = np.random.default_rng(41)
    for _ in range(20):
        t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = symmetrize(t)
        assert np.max(np.abs(s - np.diag(np.diag(t)))) < 1e-13
        assert np.max(np.abs(symmetrize(s) - s)) < 1e-13
        assert np.max(np.abs(s[~np.eye(3, dtype=bool)])) < 1e-13
        h = t @ t.conj().T  # a positive operator, as every outcome is
        assert diagonal_point(symmetrize(h), (2, 1, 0)) == pytest.approx(
            diagonal_point(h, (2, 1, 0)), abs=1e-14
        )


def test_diagonal_point_reads_permuted_slots():
    t = np.diag([5.0, 3.0, 2.0])
    p = diagonal_point(t, (2, 1, 0))
    assert p == pytest.approx(PlanePoint(0.3, 0.2), abs=1e-14)
    q = diagonal_point(t, (0, 2, 1))
    assert q == pytest.approx(PlanePoint(0.2, 0.5), abs=1e-14)
    assert diagonal_point(np.eye(3), (2, 1, 0)) == pytest.approx((1 / 3, 1 / 3), abs=1e-15)


def test_diagonal_point_zero_trace():
    with pytest.raises(ZeroOperator):
        diagonal_point(np.zeros((3, 3)), (2, 1, 0))
    with pytest.raises(ZeroOperator):
        diagonal_point(np.diag([1.0, -1.0, 0.0]), (2, 1, 0))


def test_zero_trace_band_sits_at_its_tolerance():
    # TOL.zero_trace is 1e-14: a trace of 1e-12 normalizes, one of 1e-16
    # raises; a floor 1e3 times higher or lower moves one of them across
    assert diagonal_point(np.diag([1e-12, 0.0, 0.0]), (2, 1, 0)) == (0.0, 0.0)
    with pytest.raises(ZeroOperator):
        diagonal_point(np.diag([1e-16, 0.0, 0.0]), (2, 1, 0))


def test_outcome_triangle_frozen():
    pair = canonicalize(FIG_K, FIG_K)
    tri = outcome_triangle(pair)
    assert not tri.degenerate
    assert tri.e1 == pytest.approx((0.3368336943457277, 0.4394514608515172), abs=1e-12)
    assert tri.e2 == pytest.approx((0.4971831411614399, 0.026282790392218026), abs=1e-12)
    assert tri.e3 == (0.0, 0.0)


def test_outcome_triangle_matches_direct_formula():
    rng = np.random.default_rng(42)
    for _ in range(50):
        pair = canonicalize(*random_pair(rng))
        if pair.y[1] - pair.y[2] <= 1e-9:
            continue
        tri = outcome_triangle(pair)
        x, perm = pair.x, pair.perm
        _, z = _offsets(pair.kb, pair.y)
        d1 = [x[n] ** -2 for n in range(3)]
        d2 = [(x[n] * z[perm[n]]) ** -2 for n in range(3)]
        s1, s2 = sum(d1), sum(d2)
        assert tri.e1 == pytest.approx((d1[perm[1]] / s1, d1[perm[0]] / s1), rel=1e-12)
        assert tri.e2 == pytest.approx((d2[perm[1]] / s2, d2[perm[0]] / s2), rel=1e-12)


def test_outcome_triangle_needs_nonzero_offsets():
    with pytest.raises(DomainError):
        outcome_triangle(canonicalize(0.25, 0.25))  # lower offsets exactly 0


def test_outcome_triangle_degenerate_case():
    tri = outcome_triangle(canonicalize(-0.2, -0.2))
    assert tri.degenerate


def test_collinear_band_sits_at_its_tolerance():
    # TOL.collinear is 1e-10: Bob's overlap 0.3 e^{i(pi/3 + d)} turns the
    # triangle by |cross| ~ 0.3 d, so d = 3e-8 (|cross| ~ 9e-9) is flat only
    # under a band 1e3 times wider, and d = 3e-12 (~9e-13) is flat unless
    # the band is 1e3 times narrower
    for d, flat in ((3e-8, False), (3e-12, True)):
        tri = outcome_triangle(canonicalize(0.2, 0.3 * cmath.exp(1j * (cmath.pi / 3 + d))))
        assert 0.2 * d < abs(tri.e1.u * tri.e2.v - tri.e1.v * tri.e2.u) < 0.4 * d
        assert tri.degenerate == flat


def test_level_vector_endpoints():
    pair = canonicalize(FIG_K, FIG_K)
    tri = outcome_triangle(pair)
    # threshold level reproduces the exclude vertex
    vec = level_vector(pair, _offsets(pair.kb, pair.y)[0])
    pt = diagonal_point(np.outer(vec, vec.conj()), pair.perm)
    assert pt == pytest.approx(tri.e2, abs=1e-12)
    # deep negative level approaches the announce vertex
    vec = level_vector(pair, -1e8)
    pt = diagonal_point(np.outer(vec, vec.conj()), pair.perm)
    assert pt == pytest.approx(tri.e1, abs=1e-6)
    # the defer level collapses onto a basis slot, i.e. the origin
    vec = level_vector(pair, pair.y[2] ** 2)
    assert np.count_nonzero(vec) == 1
    assert vec[pair.perm[2]] == 1.0
    assert abs(np.linalg.norm(level_vector(pair, 0.01)) - 1) < 1e-12


def test_level_vector_rejects_pole():
    pair = canonicalize(FIG_K, FIG_K)
    with pytest.raises(DomainError):
        level_vector(pair, pair.y[1] ** 2)


def test_level_bands_sit_at_their_tolerances():
    # TOL.defer_snap is 1e-10: a level 1e-11 above y_2^2 snaps onto the
    # defer slot, one 1e-8 above does not.  TOL.pole is 1e-14: a level
    # 1e-15 above y_1^2 is refused, one 1e-12 above is not.  A band 1e3
    # times wider or narrower moves one of each pair across
    pair = canonicalize(FIG_K, FIG_K)
    assert np.count_nonzero(level_vector(pair, pair.y[2] ** 2 + 1e-11)) == 1
    assert np.count_nonzero(level_vector(pair, pair.y[2] ** 2 + 1e-8)) == 3
    with pytest.raises(DomainError, match="hits a squared amplitude"):
        level_vector(pair, pair.y[1] ** 2 + 1e-15)
    assert np.count_nonzero(level_vector(pair, pair.y[1] ** 2 + 1e-12)) == 3


def test_level_curve_shape():
    pair = canonicalize(FIG_K, FIG_K)
    pts = level_curve(pair, 100)
    assert len(pts) == 101
    qs = [q for q, _ in pts]
    assert qs == sorted(qs)
    assert qs[-1] == pytest.approx(_offsets(pair.kb, pair.y)[0], abs=1e-15)
    assert pair.y[2] ** 2 in qs
    tri = outcome_triangle(pair)
    # curve ends at the exclude vertex and passes through the origin
    assert pts[-1][1] == pytest.approx(tri.e2, abs=1e-12)
    i_defer = qs.index(pair.y[2] ** 2)
    assert pts[i_defer][1] == pytest.approx((0.0, 0.0), abs=1e-15)
    for _, p in pts:
        assert in_triangle(p, tri, 1e-8)
    with pytest.raises(DomainError):
        level_curve(pair, 1)


def test_level_curve_matches_pointwise_path():
    rng = np.random.default_rng(45)
    reports = [check_global_optimality(*random_pair(rng)) for _ in range(30)]
    reports += [check_global_optimality(random_overlap(rng), rng.uniform(0.02, 0.95))
                for _ in range(10)]
    assert {r.branch for r in reports} == {"Inequality", "Fails", "PositiveRealB"}
    pairs = [r.pair for r in reports] + [canonicalize(0.2 + 0.1j, 0.25)]
    snapped = 0
    for pair in pairs:
        curve = level_curve(pair, 200)
        level, _ = _offsets(pair.kb, pair.y)
        qs = [level - (200 / i - 1.0) for i in range(1, 201)]
        q_defer = pair.y[2] ** 2
        qs.insert(sum(1 for q in qs if q < q_defer), q_defer)
        assert [q for q, _ in curve] == qs
        for q, point in curve:
            vec = level_vector(pair, q)
            snapped += q != q_defer and np.count_nonzero(vec) == 1
            ref = diagonal_point(np.outer(vec, vec.conj()), pair.perm)
            assert max(abs(point.u - ref.u), abs(point.v - ref.v)) <= 1e-15
    assert snapped == 11  # PositiveRealB: the threshold level snaps onto the defer slot


def test_in_triangle_unit():
    tri = Triangle(PlanePoint(1, 0), PlanePoint(0, 1), PlanePoint(0, 0), False)
    assert in_triangle(PlanePoint(0.2, 0.2), tri, 1e-12)
    assert in_triangle(PlanePoint(0.5, 0.5), tri, 1e-12)  # on the hypotenuse
    assert not in_triangle(PlanePoint(0.51, 0.51), tri, 1e-12)
    assert not in_triangle(PlanePoint(-0.01, 0.2), tri, 1e-12)
    assert in_triangle(PlanePoint(-0.01, 0.2), tri, 0.02)  # slack absorbs it


def test_in_triangle_tiny_triangle():
    # the barycentric solve runs for any nonzero determinant: a triangle
    # with sides of 1e-10 (determinant 1e-20) still holds its inner points
    tri = Triangle(PlanePoint(1e-10, 0.0), PlanePoint(0.0, 1e-10), PlanePoint(0.0, 0.0), False)
    assert in_triangle(PlanePoint(2e-11, 2e-11), tri, 0.0)
    assert not in_triangle(PlanePoint(6e-11, 6e-11), tri, 0.0)


def test_in_triangle_degenerate_segment():
    tri = Triangle(PlanePoint(1, 1), PlanePoint(0.5, 0.5), PlanePoint(0, 0), True)
    assert in_triangle(PlanePoint(0.3, 0.3), tri, 1e-9)
    assert not in_triangle(PlanePoint(0.3, 0.4), tri, 1e-9)
    assert not in_triangle(PlanePoint(1.2, 1.2), tri, 1e-9)
    assert in_triangle(PlanePoint(0.3, 0.4), tri, 0.1)
    # with e1 == e3 the segment is a point, and tol a radius about it
    tri = Triangle(PlanePoint(0.2, 0.1), PlanePoint(0.5, 0.5), PlanePoint(0.2, 0.1), True)
    assert in_triangle(PlanePoint(0.2, 0.1), tri, 0.0)
    assert in_triangle(PlanePoint(0.23, 0.14), tri, 0.05 + 1e-12)
    assert not in_triangle(PlanePoint(0.23, 0.14), tri, 0.049)


def test_identity_membership_matches_verdict():
    rng = np.random.default_rng(43)
    compared = 0
    for _ in range(400):
        ka, kb = random_pair(rng)
        r = check_global_optimality(ka, kb)
        if r.branch not in ("Inequality", "Fails"):
            continue
        x, z = r.pair.x, r.offsets
        s1 = x[2] * abs(z[0]) + x[1] * abs(z[1])
        iz = [v**-2 for v in z]
        s2 = sum(
            x[k] ** 2 * (abs(iz[(1 - k) % 3]) + abs(iz[(3 - k) % 3])) for k in range(3)
        )
        if min(abs(r.c1) / s1, abs(r.c2) / s2) < 1e-6:
            continue  # too close to a region boundary for the geometric test
        assert identity_membership(r.pair) == r.verdict
        compared += 1
    assert compared > 100


def test_membership_slack_sits_at_its_tolerance():
    # TOL.membership is 1e-9: two Fails pairs whose triangles miss the
    # uniform point by a barycentric 1e-11 and 1e-7; the slack admits the
    # first, not the second, and a slack 1e3 times wider or narrower moves
    # one of them across
    ka = -0.42130999367228134 - 0.2829624816752794j
    for kb, member in ((-0.35894354366556397 - 0.1836322079855073j, True),
                       (-0.3589435519077521 - 0.18363219187460603j, False)):
        r = check_global_optimality(ka, kb)
        assert r.branch == "Fails"
        assert not in_triangle(PlanePoint(1 / 3, 1 / 3), outcome_triangle(r.pair), 0.0)
        assert identity_membership(r.pair) == member


def test_chord_ratio_identity_at_threshold():
    rng = np.random.default_rng(44)
    for _ in range(100):
        pair = canonicalize(*random_pair(rng))
        if pair.y[1] - pair.y[2] <= 1e-9:
            continue
        lim = chord_ratio_limit(pair)
        at_eta = chord_ratio(pair, _offsets(pair.kb, pair.y)[0])
        assert at_eta == pytest.approx(lim, rel=1e-9)
        assert 0.0 < lim < 1.0


def test_chord_ratio_frozen():
    pair = canonicalize(FIG_K, FIG_K)
    assert chord_ratio_limit(pair) == pytest.approx(0.6840793821473133, rel=1e-12)


# Frozen copies of the plane geometry as it was computed in numpy for every
# input size, one row per level.  The package computes one or two rows in
# Python floats, builds the curve's points without a per-point __new__
# frame, and holds the level rows as columns.
def _ref_plane_points(d, perm):
    tr = d.sum(axis=1)
    if np.abs(tr).min() < TOL.zero_trace:
        raise ZeroOperator("cannot normalize a zero-trace operator")
    d = d / tr[:, None]
    return list(map(PlanePoint, d[:, perm[1]].tolist(), d[:, perm[0]].tolist()))


def _ref_diagonal_point(t, perm):
    return _ref_plane_points(np.real(np.diagonal(np.asarray(t)))[None], perm)[0]


def _ref_outcome_triangle(pair):
    _, z = _offsets(pair.kb, pair.y)
    if _tie_branch(pair) == "PositiveRealB" or min(abs(v) for v in z) == 0.0:
        raise DomainError("extremal outcomes undefined: a Bob offset vanishes")
    x = np.array(pair.x)
    e1, e2 = _ref_plane_points(np.square(1.0 / np.array([x, x * np.take(z, pair.perm)])),
                               pair.perm)
    cross = e1.u * e2.v - e1.v * e2.u
    return Triangle(e1, e2, PlanePoint(0.0, 0.0), abs(cross) < TOL.collinear)


def _ref_level_rows(pair, qs):
    x, y, perm = pair.x, pair.y, pair.perm
    qs = np.asarray(qs, dtype=float)
    snap = np.abs(qs - y[2] ** 2) <= TOL.defer_snap
    denom = np.array([y[perm[n]] ** 2 for n in range(3)]) - qs[:, None]
    pole = ~snap & np.any(np.abs(denom) < TOL.pole, axis=1)
    if pole.any():
        raise DomainError(f"level {qs[pole][0]} hits a squared amplitude; vector undefined")
    denom[snap] = 1.0
    rows = 1.0 / (np.array(x) * denom)
    rows[snap] = np.eye(3)[perm[2]]
    return rows


def _ref_level_curve(pair, samples):
    samples = int(samples)
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    level, _ = _offsets(pair.kb, pair.y)
    qs = [level - (samples / i - 1.0) for i in range(1, samples + 1)]
    q_defer = pair.y[2] ** 2
    qs.insert(sum(1 for q in qs if q < q_defer), q_defer)
    return list(zip(qs, _ref_plane_points(np.square(_ref_level_rows(pair, qs)), pair.perm)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TriseqError as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    # repr tells -0.0 from 0.0 and a Python float from an np.float64
    assert repr(got) == repr(want)
    if isinstance(want, Triangle):
        assert type(got) is Triangle
        assert all(type(p) is PlanePoint for p in got[:3])
        assert all(type(c) is float for p in got[:3] for c in p)
    elif isinstance(want, PlanePoint):
        assert type(got) is PlanePoint and all(type(c) is float for c in got)
    elif isinstance(want, list):
        for q, point in got:
            assert type(q) is float and type(point) is PlanePoint
            assert type(point.u) is float and type(point.v) is float


def test_geometry_bit_identical_to_reference():
    rng = np.random.default_rng(2026)
    reports = [check_global_optimality(*random_pair(rng)) for _ in range(120)]
    reports += [check_global_optimality(random_overlap(rng), rng.uniform(0.02, 0.95))
                for _ in range(30)]
    assert {r.branch for r in reports} >= {"Inequality", "Fails", "PositiveRealB"}
    pairs = [r.pair for r in reports if r.pair is not None]
    # the collinear triangle; Bob's exact tie; and a hand-made pair whose
    # offset z_1 is exactly 0 (level 0.25 = y_1^2), a pole of both routines
    pairs += [canonicalize(-0.2, -0.2), canonicalize(0.25, 0.25),
              canonicalize(FIG_K, FIG_K)._replace(kb=0.25, y=(0.8, 0.5, 0.3))]
    refusals, degenerate, snapped = set(), 0, 0
    for pair in pairs:
        want = _outcome(_ref_outcome_triangle, pair)
        _assert_same(_outcome(outcome_triangle, pair), want)
        degenerate += isinstance(want, Triangle) and want.degenerate
        for samples in (2, 200, int(rng.integers(3, 1000))):
            want = _outcome(_ref_level_curve, pair, samples)
            _assert_same(_outcome(level_curve, pair, samples), want)
            if isinstance(want, list):
                snapped += sum(q != pair.y[2] ** 2 and p == (0.0, 0.0) for q, p in want)
        refusals |= {want[1].split()[0] for want in
                     (_outcome(_ref_outcome_triangle, pair), want) if type(want) is tuple}
    _assert_same(_outcome(level_curve, pairs[0], 1), _outcome(_ref_level_curve, pairs[0], 1))
    assert degenerate == 1 and snapped > 0
    assert refusals == {"extremal", "level"}  # the tie branch and the pole

    mats = [np.zeros((3, 3)), np.diag([1.0, -1.0, 0.0]), np.diag([5, 3, 2]), np.eye(3),
            np.diag([-0.0, 1e-300, 2.0])]
    mats += [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(100)]
    mats += [np.outer(v, v.conj()) for v in
             (level_vector(p, q) for p in pairs[:40] for q in (-3.0, 0.01, p.y[2] ** 2))]
    zero = 0
    for t in mats:
        for perm in ((2, 1, 0), (0, 2, 1), (1, 0, 2)):
            want = _outcome(_ref_diagonal_point, t, perm)
            _assert_same(_outcome(diagonal_point, t, perm), want)
            zero += type(want) is tuple and want[0] is ZeroOperator
    assert zero == 6
