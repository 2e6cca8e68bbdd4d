"""Plane geometry behind the optimality decision.

Averaging an operator over the cyclic phase rotation keeps exactly its
diagonal (entry (i, j) picks up tau^(k(i-j)), which sums to zero off the
diagonal), so every outcome of a symmetrized strategy is characterized
by its normalized diagonal, the squared moduli of a rank-one outcome's
components: a point in the probability simplex, drawn here in the plane
of two of its coordinates (the pair picked out by the joint-amplitude
rank permutation).

The extremal Alice outcomes map to three such points: the announce
vector, the exclude vector, and the origin (the defer slot).  A
sequential measurement reaching the global optimum exists iff the
uniform point (1/3, 1/3) lies inside their triangle; the triangle's
curved flank is traced by a one-parameter family of vectors indexed by
a level q <= threshold, recovering the announce vertex as q -> -inf and
the exclude vertex at q = threshold.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ZeroOperator
from .numerics import TOL
from .optimality import _offsets, _tie_branch
from .states import CanonicalPair


class PlanePoint(NamedTuple):
    """Two simplex coordinates of a symmetrized outcome."""

    u: float
    v: float


class Triangle(NamedTuple):
    """Extremal outcome points; degenerate marks a collinear triple."""

    e1: PlanePoint
    e2: PlanePoint
    e3: PlanePoint
    degenerate: bool


def _check_trace(smallest) -> None:
    if smallest < TOL.zero_trace:
        raise ZeroOperator("cannot normalize a zero-trace operator")


def _plane_point(d, perm) -> PlanePoint:
    """One row of _plane_points in Python floats, by the same IEEE operations."""
    tr = d[0] + d[1] + d[2]
    _check_trace(abs(tr))
    return PlanePoint(d[perm[1]] / tr, d[perm[0]] / tr)


def _plane_points(d, perm) -> list[PlanePoint]:
    """Columns of real diagonals d, shape (3, n), scaled in place to unit
    trace and read at the permuted slots.

    raises: ZeroOperator when a trace is numerically zero
    """
    tr = d.sum(axis=0)
    _check_trace(np.abs(tr).min())
    d /= tr
    u, v = d[perm[1]].tolist(), d[perm[0]].tolist()
    return list(map(tuple.__new__, repeat(PlanePoint), zip(u, v)))


def diagonal_point(t, perm) -> PlanePoint:
    """Normalized symmetrized diagonal of t, read at the permuted slots, as a
    PlanePoint of Python floats.

    raises: ZeroOperator when the trace is numerically zero
    """
    return _plane_point(np.real(np.diagonal(np.asarray(t))).tolist(), perm)


def outcome_triangle(pair: CanonicalPair) -> Triangle:
    """Triangle of extremal Alice outcomes (generic regime only): the
    normalized squared moduli of 1/x_n (announce) and 1/(x_n z_{perm[n]})
    (exclude), and the origin (defer).

    raises: DomainError off the generic regime, where Bob's lower
            amplitudes tie and both their offsets vanish
    """
    _, z = _offsets(pair.kb, pair.y)
    if _tie_branch(pair) == "PositiveRealB" or min(abs(v) for v in z) == 0.0:
        raise DomainError("extremal outcomes undefined: a Bob offset vanishes")
    xz = [pair.x[n] * z[pair.perm[n]] for n in range(3)]
    e1, e2 = (_plane_point([(1.0 / w) * (1.0 / w) for w in ws], pair.perm) for ws in (pair.x, xz))
    cross = e1.u * e2.v - e1.v * e2.u
    return Triangle(e1, e2, PlanePoint(0.0, 0.0), abs(cross) < TOL.collinear)


def _level_rows(pair: CanonicalPair, qs) -> np.ndarray:
    """Components 1/(x_n (y_{perm[n]}^2 - q)) of the extremal family, one
    column per level; a level within TOL.defer_snap of Bob's smallest squared
    amplitude degenerates to the defer basis slot perm[2].

    raises: DomainError when another level hits a squared amplitude
    """
    x, y, perm = pair.x, pair.y, pair.perm
    qs = np.asarray(qs, dtype=float)
    denom = np.array([[y[perm[0]] ** 2], [y[perm[1]] ** 2], [y[perm[2]] ** 2]]) - qs
    dist = np.abs(denom)
    snap = dist[perm[2]] <= TOL.defer_snap  # perm is an involution: row perm[2] holds y_2
    pole = (dist < TOL.pole).any(axis=0) & ~snap
    if pole.any():
        raise DomainError(f"level {qs[pole][0]} hits a squared amplitude; vector undefined")
    denom[:, snap] = np.inf  # a snapped column is 0 but in the defer slot
    cols = 1.0 / (np.array([[x[0]], [x[1]], [x[2]]]) * denom)
    cols[perm[2], snap] = 1.0
    return cols


def level_vector(pair: CanonicalPair, q: float) -> np.ndarray:
    """Unit vector of the extremal family at level q.

    Components go as 1/(x_n (y_{perm[n]}^2 - q)); at q equal to Bob's
    smallest squared amplitude (within TOL.defer_snap) the family
    degenerates to the defer basis slot.
    """
    vec = _level_rows(pair, [q])[:, 0]
    return (vec / np.linalg.norm(vec)).astype(complex)


def level_curve(pair: CanonicalPair, samples: int):
    """Points tracing the curved triangle flank, ascending in q.

    The grid maps t in (0, 1] to q = threshold - (1/t - 1), reaching the
    exclude vertex at t = 1; the defer level q = y_2^2 is spliced in.
    Every level is evaluated in one pass over the squared moduli.

    returns: list of (q, PlanePoint) in Python floats, length samples + 1
    """
    samples = int(samples)
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    level, _ = _offsets(pair.kb, pair.y)
    qs = level - (samples / np.arange(1, samples + 1) - 1.0)
    q_defer = pair.y[2] ** 2
    k = np.searchsorted(qs, q_defer)  # the grid is non-decreasing
    qs = np.concatenate((qs[:k], [q_defer], qs[k:]))
    return list(zip(qs.tolist(), _plane_points(np.square(_level_rows(pair, qs)), pair.perm)))


def in_triangle(point: PlanePoint, tri: Triangle, tol: float) -> bool:
    """Barycentric membership test with slack tol on each coordinate.

    A degenerate (collinear) triangle is tested as the segment from e3
    to e1, with tol as the transverse distance allowance.
    """
    px, py = point.u - tri.e3.u, point.v - tri.e3.v
    ax, ay = tri.e1.u - tri.e3.u, tri.e1.v - tri.e3.v
    if not tri.degenerate:
        bx, by = tri.e2.u - tri.e3.u, tri.e2.v - tri.e3.v
        det = ax * by - bx * ay
        if det != 0.0:
            w1 = (px * by - py * bx) / det
            w2 = (ax * py - ay * px) / det
            return bool(min(w1, w2, 1.0 - w1 - w2) >= -tol)
    ee = ax * ax + ay * ay
    if ee == 0.0:
        return bool(math.hypot(px, py) <= tol)
    t = (px * ax + py * ay) / ee
    return bool(math.hypot(px - t * ax, py - t * ay) <= tol and -tol <= t <= 1.0 + tol)


def identity_membership(pair: CanonicalPair) -> bool:
    """True iff the uniform point lies in the extremal-outcome triangle;
    agrees with the inequality verdict away from region boundaries."""
    return in_triangle(PlanePoint(1.0 / 3.0, 1.0 / 3.0), outcome_triangle(pair), TOL.membership)


def chord_ratio(pair: CanonicalPair, q: float) -> float:
    """Chord ratio (u_1^2 - u_0^2) / (u_2^2 - u_0^2) of the curve
    parametrization, with u_k = 1/(y_k^2 - q).  At q = threshold the
    offset-reciprocal identity makes it equal its q -> -inf limit."""
    y = pair.y
    u = [1.0 / (y[k] ** 2 - q) for k in range(3)]
    return (u[1] ** 2 - u[0] ** 2) / (u[2] ** 2 - u[0] ** 2)


def chord_ratio_limit(pair: CanonicalPair) -> float:
    """q -> -inf limit of chord_ratio: (y_0^2 - y_1^2) / (y_0^2 - y_2^2)."""
    y = pair.y
    return (y[0] ** 2 - y[1] ** 2) / (y[0] ** 2 - y[2] ** 2)
