"""A 60-digit mpmath model of the sequential decision, for measuring float error.

Each function takes the floats that one stage of the package starts from and
redoes that stage in mpmath at DPS significant digits.  The distance of the
package's result from the model's is then the rounding of that stage alone,
not of the amplitudes fed into it.  The model covers the decision from the
input overlaps (canonical amplitudes, offsets, c1, c2 and p_global), the
weight solve, the success of the product strategy, and the outcome
probabilities of a measurement's pieces.  pytest does not collect this file.
"""

from typing import NamedTuple

import mpmath

DPS = 60


class Decision(NamedTuple):
    """The decision's quantities in the canonical orientation, as mpf."""

    x: tuple
    y: tuple
    offsets: tuple
    c1: object
    c2: object
    p_global: object


def _relabeled(k, shift, conj):
    # the amplitudes of tau^shift * k (of its conjugate when conj), tau exact
    tau = mpmath.expjpi(mpmath.mpf(2) / 3)
    k = tau**shift * (mpmath.conj(k) if conj else k)
    return tuple(mpmath.sqrt((1 + 2 * mpmath.re(tau ** (2 * n) * k)) / 3) for n in range(3))


def decision(ka, kb, record):
    """The decision for the float overlaps ka, kb in the orientation that the
    Transform `record` names: canonical amplitudes x, y, offsets z_k = y_k^2 -
    (1 - |kb|)/3, c1, c2 and p_global = 3 min_n tjoint_n^2, by the formulas
    of `triseq.optimality` with every operation exact to DPS digits.
    """
    sa, sb, conj = record
    with mpmath.workdps(DPS):
        x = _relabeled(mpmath.mpc(ka), sa, conj)
        y = _relabeled(mpmath.mpc(kb), sb, conj)
        level = (1 - abs(mpmath.mpc(kb))) / 3
        z = tuple(v**2 - level for v in y)
        c1 = x[2] * z[0] - x[1] * z[1]
        c2 = sum(x[k] ** 2 * (z[(1 - k) % 3] ** -2 - z[-k % 3] ** -2) for k in range(3))
        tj = [sum(x[k] ** 2 * y[(n - k) % 3] ** 2 for k in range(3)) for n in range(3)]
        return Decision(x, y, z, c1, c2, 3 * min(tj))


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


def product_success(x, y):
    """Success of the product strategy, as mpf: Alice runs her three-state
    optimum, and Bob runs his when she is inconclusive, so it is
    P_A + (1 - P_A) P_B with P = 3 min(t^2) over each party's amplitude
    triple t.  Starts from the float triples x and y the build starts from.
    """
    with mpmath.workdps(DPS):
        pa, pb = (3 * min(mpmath.mpf(v) ** 2 for v in t) for t in (x, y))
        return pa + (1 - pa) * pb


def outcomes(seq, sv):
    """The outcome table t[r][s] = sum_l <a_s|A_l|a_s> <b_s|B_l,r|b_s>, as
    mpf, for the float pieces seq.alice, seq.bob and the float state rows
    sv.a, sv.b: the probability of Bob's outcome r on state s.  Its diagonal
    over three gives the success.
    """
    with mpmath.workdps(DPS):
        a, b = ([[mpmath.mpc(c) for c in v] for v in rows.tolist()] for rows in (sv.a, sv.b))

        def quads(op, vs):  # Re <v|op|v> for each row v
            op = [[mpmath.mpc(c) for c in row] for row in op]
            return [mpmath.re(mpmath.fdot([mpmath.fdot(row, v) for row in op], v, conjugate=True))
                    for v in vs]

        alice = [quads(op, a) for op in seq.alice.tolist()]
        bob = [[quads(op, b) for op in ops] for ops in seq.bob.tolist()]
        return [[mpmath.fsum(alice[l][s] * bob[l][r][s] for l in range(7)) for s in range(3)]
                for r in range(4)]


def relative_error(got, exact) -> float:
    """Normwise relative error max_k |got_k - exact_k| / max_k |exact_k|."""
    with mpmath.workdps(DPS):
        miss = max(abs(mpmath.mpf(g) - e) for g, e in zip(got, exact))
        return float(miss / max(abs(e) for e in exact))
