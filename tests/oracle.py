"""A 60-digit mpmath model of the sequential decision, for measuring float error.

Each function takes the floats that one stage of the package starts from and
redoes that stage in mpmath at DPS significant digits.  The distance of the
package's result from the model's is then the rounding of that stage alone,
not of the amplitudes fed into it.  So far the model covers the weight
solve.  pytest does not collect this file.
"""

import mpmath

DPS = 60


def weights(pair):
    """Alice's announce / exclude / defer weights (u_1, u_2, u_3) for a
    canonical no-tie pair, as mpf.

    Starts from the pair's float x, y, |kb| and perm, and solves the same
    completeness system as `triseq.povm.solve_weights`, row k on basis
    slot perm[k], by 60-digit LU rather than by its closed form.
    """
    with mpmath.workdps(DPS):
        level = (1 - mpmath.mpf(abs(pair.kb))) / 3
        rows = []
        for k in range(3):
            xs = mpmath.mpf(pair.x[pair.perm[k]]) ** -2
            z = mpmath.mpf(pair.y[k]) ** 2 - level
            rows.append([xs, xs / z**2, 1 if k == 2 else 0])
        return tuple(mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix([1, 1, 1])))


def relative_error(got, exact) -> float:
    """Normwise relative error max_k |got_k - exact_k| / max_k |exact_k|."""
    with mpmath.workdps(DPS):
        miss = max(abs(mpmath.mpf(g) - e) for g, e in zip(got, exact))
        return float(miss / max(abs(e) for e in exact))
