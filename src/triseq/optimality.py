"""Decide whether a sequential measurement can reach the global optimum.

For three symmetric product states the best unconstrained unambiguous
measurement succeeds with probability 3 * min_n tjoint_n^2, where

    tjoint_n^2 = sum_k x_k^2 y_{(n-k) mod 3}^2

are the joint-state Fourier weights.  A one-way sequential protocol
(Alice measures, announces, Bob finishes) can sometimes match that
number.  `check_global_optimality` reports whether it can, which closed-
form regime applies, and the diagnostic quantities the decision rests on:

    threshold = (1 - |K_B|) / 3
    offsets_k = y_k^2 - threshold          (z-values; their reciprocals sum to 0)
    c1 = x_2 z_0 - x_1 z_1
    c2 = sum_k x_k^2 (z_{(1-k) mod 3}^-2 - z_{(3-k) mod 3}^-2)

In the generic regime (all Bob gaps strict, Alice's two smallest weights
strict) the verdict is c1 >= 0 and c2 >= 0.  If Bob's lower two weights
tie (K_B positive real) or Alice's lower two tie (K_A positive real) the
verdict is always yes: there the product of each party's own three-state
optimum reaches 3 * min tjoint_n^2.  If either overlap is numerically zero
one party alone discriminates perfectly.  `povm` builds the product
strategy on every tie branch and on Orthogonal; its weight system serves
only the no-tie branch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoCanonicalForm
from .numerics import TOL
from .states import CanonicalPair, _joint_squares, _orient, _rank, _validated

BRANCHES = ("Orthogonal", "PositiveRealB", "PositiveRealA", "Inequality", "Fails")


class OptimalityReport(NamedTuple):
    """Outcome of the sequential-optimality decision.

    verdict:   True iff some sequential measurement reaches the global optimum
    branch:    which regime decided it, one of BRANCHES
    threshold: (1 - |kb|) / 3
    offsets:   squared Bob amplitudes minus threshold, canonical order
    joint:     joint-state amplitudes tjoint_n, canonical order
    perm:      rank permutation of `joint` (perm[0] = index of the minimum)
    p_global:  globally optimal success probability 3 * min tjoint^2
    c1, c2:    inequality values; may be non-finite on tie branches where
               an offset vanishes (diagnostic only there)
    pair:      canonical pair, or None on the Orthogonal branch
    """

    verdict: bool
    branch: str
    threshold: float
    offsets: tuple[float, float, float]
    joint: tuple[float, float, float]
    perm: tuple[int, int, int]
    p_global: float
    c1: float
    c2: float
    pair: CanonicalPair | None


def _offsets(kb, y):
    """Bob's filter level (1 - |kb|)/3, one third of the optimal unambiguous
    filter's success between two states of overlap modulus |kb|, and the
    offsets z_k = y_k^2 - level.  The one place either is computed."""
    level = (1.0 - abs(kb)) / 3.0
    return level, (y[0] ** 2 - level, y[1] ** 2 - level, y[2] ** 2 - level)


def _tie_branch(pair: CanonicalPair):
    """The tie branch a canonical pair falls on, Bob's tie first, or None
    when neither party's amplitudes tie within TOL.tie."""
    if pair.y[1] - pair.y[2] <= TOL.tie:
        return "PositiveRealB"
    if pair.x[1] - pair.x[2] <= TOL.tie:
        return "PositiveRealA"
    return None


def _conditions(x, y, z):
    z0, z1, z2 = z
    c1 = x[2] * z0 - x[1] * z1
    iz0 = math.inf if z0 == 0.0 else z0**-2
    iz1 = math.inf if z1 == 0.0 else z1**-2
    iz2 = math.inf if z2 == 0.0 else z2**-2
    # term k is x_k^2 (iz_{(1-k) mod 3} - iz_{-k mod 3}), summed in k order
    # from 0.0 (which turns a leading -0.0 into 0.0); c2 is printed exactly
    c2 = 0.0 + x[0] ** 2 * (iz1 - iz0) + x[1] ** 2 * (iz0 - iz2) + x[2] ** 2 * (iz2 - iz1)
    return c1, c2


def check_global_optimality(ka, kb) -> OptimalityReport:
    """Full sequential-optimality decision for an overlap pair.

    raises: DegenerateStates / RankDeficient from state validation
    """
    ka, kb, x, y = _validated(ka, kb)

    pair = None
    if abs(ka) >= TOL.tie and abs(kb) >= TOL.tie:
        try:
            pair, tj_sq = _orient(ka, kb, x, y)
        except NoCanonicalForm:
            pass  # kb just above tie: Bob is near-perfect alone, as if orthogonal

    if pair is None:
        branch, level_kb, tj_sq = "Orthogonal", kb, _joint_squares(x, y)
        perm = _rank(tj_sq)
    else:
        x, y, perm = pair.x, pair.y, pair.perm
        branch, level_kb = _tie_branch(pair), pair.kb
    level, z = _offsets(level_kb, y)
    c1, c2 = _conditions(x, y, z)
    verdict = branch is not None or (c1 >= 0.0 and c2 >= 0.0)
    if branch is None:
        branch = "Inequality" if verdict else "Fails"

    joint = (math.sqrt(tj_sq[0]), math.sqrt(tj_sq[1]), math.sqrt(tj_sq[2]))
    report = (verdict, branch, level, z, joint, perm, 3.0 * min(tj_sq), c1, c2, pair)
    return tuple.__new__(OptimalityReport, report)
