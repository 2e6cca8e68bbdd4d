"""Small dense linear algebra with pinned tolerances.

Everything downstream funnels its matrix work through these wrappers so
the tolerance policy lives in exactly one place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonHermitian, SingularSystem


class Tolerances(NamedTuple):
    """Numerical thresholds used across the package.

    herm:       max |H - H^dag| entry accepted as Hermitian
    psd:        eigenvalue floor accepted as positive semidefinite
    tie:        amplitude gap treated as a tie
    zero_trace: trace below which a plane point cannot be normalized
    pole:       distance of a level from a squared amplitude (a pole)
    defer_snap: distance of a level from the defer level that snaps it
    collinear:  |cross product| below which the outcome triangle is flat
    det_floor:  determinant floor of the barycentric membership solve
    membership: slack of the uniform-point membership test
    degenerate: distance of |overlap| from 1 below which two states count
                as parallel
    solve_resid: relative residual bound of solve3
    null_space: Gram eigenvalue below which a direction is outside the span
    active:     norm above which an Alice operator counts as used
    kernel_resid: certificate bound on |witness @ A| / |A| per Alice label
    kernel_zero: |eigenvalue| of the projected witness counted as kernel
    leak:       unambiguity leak (certificate per label, verify on the POVM)
    completeness: max |sum - identity| entry (certificate on Alice, verify)
    prob_sum:   distance of sampled outcome probabilities' sum from 1
    povm_psd:   eigenvalue floor of verify's positivity gate
    drift:      verify's bound on the stored POVM against its re-flattening
    success_gap: verify's bound on the success probability's miss of optimum
    """

    herm: float = 1e-12
    psd: float = 1e-9
    tie: float = 1e-9
    zero_trace: float = 1e-14
    pole: float = 1e-14
    defer_snap: float = 1e-10
    collinear: float = 1e-10
    det_floor: float = 1e-18
    membership: float = 1e-9
    degenerate: float = 1e-12
    solve_resid: float = 1e-10
    null_space: float = 1e-8
    active: float = 1e-14
    kernel_resid: float = 1e-8
    kernel_zero: float = 1e-9
    leak: float = 1e-10
    completeness: float = 1e-10
    prob_sum: float = 1e-8
    povm_psd: float = 1e-12
    drift: float = 1e-12
    success_gap: float = 1e-10


TOL = Tolerances()


def hermitian_eigen(h):
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    args:    h -- array-like (..., n, n), each matrix Hermitian within TOL.herm
    returns: (w, v) with eigenvalues w[..., i] ascending and eigenvector
             columns v[..., :, i] orthonormal, h @ v[..., :, i] == w[..., i] * v[..., :, i]
    raises:  NonHermitian if a symmetry residual is above tolerance, its
             `index` the first failing matrix (0 for a single one)
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise NonHermitian(f"expected a square matrix, got shape {h.shape}")
    skew = np.abs(h - np.swapaxes(h, -2, -1).conj()).max(axis=(-2, -1))
    bad = skew > TOL.herm  # a NaN residual passes, as it always has
    if bad.any():
        i = int(np.argmax(bad))
        raise NonHermitian(f"symmetry residual {np.ravel(skew)[i]:.3e} exceeds {TOL.herm:.1e}", i)
    return np.linalg.eigh(h)


def _lu3(m):
    """LU factorization with partial pivoting of a 3x3 real matrix.

    returns: (lu, perm, det) where lu holds L (unit diagonal, below) and U
             (on and above), perm maps factored row -> original row.
    """
    lu = [[float(m[i][j]) for j in range(3)] for i in range(3)]
    perm = [0, 1, 2]
    det = 1.0
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(lu[r][col]))
        if pivot != col:
            lu[col], lu[pivot] = lu[pivot], lu[col]
            perm[col], perm[pivot] = perm[pivot], perm[col]
            det = -det
        diag = lu[col][col]
        det *= diag
        if diag == 0.0:
            return lu, perm, 0.0
        for row in range(col + 1, 3):
            factor = lu[row][col] / diag
            lu[row][col] = factor
            for k in range(col + 1, 3):
                lu[row][k] -= factor * lu[col][k]
    return lu, perm, det


def _lu3_solve(lu, perm, b):
    y = [float(b[perm[i]]) for i in range(3)]
    for i in range(1, 3):
        for j in range(i):
            y[i] -= lu[i][j] * y[j]
    x = y
    for i in (2, 1, 0):
        for j in range(i + 1, 3):
            x[i] -= lu[i][j] * x[j]
        x[i] /= lu[i][i]
    return x


def solve3(m, b):
    """Solve the real 3x3 system m @ u = b.

    One iterative-refinement step keeps the residual near machine level
    even when m mixes entries of very different magnitude.

    returns: u as a tuple of three floats with
             max |m @ u - b| <= TOL.solve_resid * max(1, max |b|)
    raises:  SingularSystem on an exactly singular matrix or if the
             residual bound cannot be met
    """
    rows = [[float(m[i][j]) for j in range(3)] for i in range(3)]
    rhs = [float(b[i]) for i in range(3)]
    # no a-priori determinant cutoff: any scale-based threshold misjudges
    # matrices whose large entries sit in a column the determinant never
    # touches.  The residual postcondition is the actual contract; a
    # degenerate system either hits a zero pivot or fails it.
    lu, perm, det = _lu3(rows)
    if det == 0.0 or not math.isfinite(det):
        raise SingularSystem(f"exact zero pivot, det {det}")
    x = _lu3_solve(lu, perm, rhs)
    if not all(math.isfinite(v) for v in x):
        raise SingularSystem("overflow while solving; matrix numerically singular")
    resid = [rhs[i] - sum(rows[i][j] * x[j] for j in range(3)) for i in range(3)]
    dx = _lu3_solve(lu, perm, resid)
    x = [x[i] + dx[i] for i in range(3)]
    resid = max(abs(rhs[i] - sum(rows[i][j] * x[j] for j in range(3))) for i in range(3))
    if not resid <= TOL.solve_resid * max(1.0, max(abs(v) for v in rhs)):
        raise SingularSystem(f"refined residual {resid:.3e} still above bound")
    return tuple(x)
