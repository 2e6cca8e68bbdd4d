"""The tolerance table and the Hermitian eigensolver.

Every threshold of the package is a field of TOL, so the tolerance policy
lives in exactly one place.  `hermitian_eigen` is the eigensolve that checks
symmetry first; `povm._local_check` calls np.linalg.eigvalsh on pieces that
are exactly Hermitian by construction.  numpy loads on the first call, not
with this module, so the decision modules that read TOL run without it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NonHermitian


class Tolerances(NamedTuple):
    """Numerical thresholds used across the package.

    herm:       max |H - H^dag| entry accepted as Hermitian
    psd:        eigenvalue floor of the build's weights and certificate gate (i)
    tie:        amplitude gap treated as a tie, and |overlap| below which a
                pair goes to the Orthogonal branch
    zero_trace: trace below which a plane point cannot be normalized
    pole:       distance of a level from a squared amplitude (a pole)
    defer_snap: distance of a level from the defer level that snaps it
    collinear:  |cross product| below which the outcome triangle is flat
    membership: slack of the uniform-point membership test
    degenerate: distance of |overlap| from 1 below which two states count
                as parallel
    active:     norm above which an Alice operator counts as used
    kernel_resid: certificate gate (ii), |witness @ A| / |A| per Alice label
    leak:       unambiguity leak (certificate per label, verify on the POVM)
    completeness: max |sum - identity| entry (certificate on Alice, verify)
    prob_sum:   distance of sampled outcome probabilities' sum from 1
    povm_psd:   eigenvalue floor of verify's positivity gate
    success_gap: verify's bound on the success probability's miss of optimum
    """

    herm: float = 1e-12
    psd: float = 1e-9
    tie: float = 1e-9
    zero_trace: float = 1e-14
    pole: float = 1e-14
    defer_snap: float = 1e-10
    collinear: float = 1e-10
    membership: float = 1e-9
    degenerate: float = 1e-12
    active: float = 1e-14
    kernel_resid: float = 1e-8
    leak: float = 1e-10
    completeness: float = 1e-10
    prob_sum: float = 1e-8
    povm_psd: float = 1e-12
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
    import numpy as np

    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise NonHermitian(f"expected a square matrix, got shape {h.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry's residual is inf or NaN
        skew = np.abs(h - np.swapaxes(h, -2, -1).conj()).max(axis=(-2, -1))
    bad = skew > TOL.herm  # a NaN residual passes, as it always has
    if bad.any():
        i = int(np.argmax(bad))
        raise NonHermitian(f"symmetry residual {np.ravel(skew)[i]:.3e} exceeds {TOL.herm:.1e}", i)
    return np.linalg.eigh(h)
