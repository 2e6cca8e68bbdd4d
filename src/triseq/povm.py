"""Sequential measurement construction and verification.

A sequential strategy has Alice measure first with a seven-outcome
instrument and Bob finish on his subsystem conditioned on her label:

    announce j   Alice has identified state j; Bob reports j blindly
    exclude j    Alice has ruled out state j; Bob unambiguously separates
                 the remaining two
    defer        Alice learned nothing; Bob runs the full three-state
                 unambiguous measurement alone

Alice's announce operators are scaled rank-one projections onto vectors
with components 1/x_n (orthogonal to the other two states), the exclude
operators use components 1/(x_n z), and the defer operator sits on the
basis slot carrying the minimal joint amplitude.  The three weights
(u_1, u_2, u_3) are fixed by her completeness relation, three linear
equations solved in closed form; nonnegativity of the solution is exactly
the optimality verdict, so a negative weight raises NotGloballyOptimal.
That system serves only the no-tie branch: every tie branch, and
Orthogonal, builds the product strategy, each party running its own
three-state optimum.  `frame` decides a pair once and returns the report
with the state vectors of its canonical pair, the amplitude rows times
PHASE[r, n] = tau^(r n); `construct` and `curve` build on both.  Without
a canonical form (Bob's overlap numerically zero) it takes the raw amplitudes.

The commands read what they print off the 35 pieces themselves:
`_outcomes` gives each outcome's probability on each state, and
`_local_check` adds the least eigenvalue of every piece and the
completeness of Alice's and each of Bob's seven measurements, every label
counted, used or not.  `flatten` and its 9x9 POVM serve the library API.

`dual_certificate` re-proves optimality independently of how the
measurement was built: each label's dual witness, compressed onto the
subspace Bob can still use, is known in closed form, and so is its least
eigenvalue; it checks dual feasibility and complementary slackness.
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificateViolation,
    DegenerateStates,
    DomainError,
    InvalidPovm,
    NoCanonicalForm,
    NonHermitian,
    NotGloballyOptimal,
    SingularSystem,
)
from .numerics import TOL, hermitian_eigen
from .optimality import BRANCHES, OptimalityReport, _decide, _offsets, _tie_branch
from .serialize import Raw, float_template, json_dumps, write_text
from .states import TAU, CanonicalPair, _orient, _validated

LABELS = ("announce0", "announce1", "announce2", "exclude0", "exclude1", "exclude2", "defer")

OUTCOME_LABELS = ("0", "1", "2", "inconclusive")

# numpy's multinomial counts are int64
_MAX_SHOTS = 2**63 - 1

PHASE = np.array([[TAU ** (r * n) for n in range(3)] for r in range(3)])


class Povm(NamedTuple):
    """Labeled positive operator-valued measure: `outcomes` is one (n, d, d)
    complex array, an operator per entry of `labels`."""

    outcomes: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.outcomes.shape[-1]


class StateVectors(NamedTuple):
    """Component vectors of the three states; row r of `a` is Alice's a_r."""

    a: np.ndarray
    b: np.ndarray


class SequentialMeasurement(NamedTuple):
    """Alice's instrument plus Bob's conditioned measurements.

    alice:   (7, 3, 3) PSD operators in LABELS order, summing to the identity
    bob:     (7, 4, 3, 3) Bob's outcomes ("0", "1", "2", "inconclusive")
             after each label, in LABELS order
    weights: (u_1, u_2, u_3) announce / exclude / defer scale factors
    branch:  construction regime, matches the optimality report branch
    """

    alice: np.ndarray
    bob: np.ndarray
    weights: tuple
    branch: str


class PovmCheck(NamedTuple):
    """psd_margin: smallest eigenvalue over all outcomes (verify wants
    >= -TOL.povm_psd); completeness: max |sum of outcomes - identity| entry
    (verify wants <= TOL.completeness)."""

    psd_margin: float
    completeness: float


class CertificateReport(NamedTuple):
    """Dual-certificate diagnostics, keyed by Alice label where per-label."""

    psd_margin: dict
    kernel_residual: dict
    completeness: float
    unambiguity: dict


@functools.cache
def _triangles(n):
    return np.tri(n, k=-1, dtype=bool), np.eye(n, dtype=bool)


def _outer(vecs) -> np.ndarray:
    """|v><v| for each row v of a stack of vectors, made exactly Hermitian: fused
    multiply-adds round the product's mirrored entries apart and its diagonal off the reals."""
    m = vecs[..., :, None] * vecs.conj()[..., None, :]
    lower, diagonal = _triangles(m.shape[-1])
    np.copyto(m, np.swapaxes(m, -2, -1).conj(), where=lower)
    np.copyto(m, m.real, where=diagonal)
    return m


# a huge finite entry in a loaded file overflows to inf or NaN, which every gate fails on
_OVERFLOW_GATED = np.errstate(over="ignore", invalid="ignore")


@_OVERFLOW_GATED
def _quad(ops, states) -> np.ndarray:
    """Table q[e, s] = Re <s|E_e|s> over a stack of operators and the
    state rows; the stacked products repeat np.vdot(s, E @ s) bit for bit."""
    ops = np.asarray(ops, dtype=complex)
    states = np.asarray(states, dtype=complex)
    kets = ops[:, None] @ states[None, :, :, None]
    return (states.conj()[None, :, None, :] @ kets)[..., 0, 0].real


def _phase_over(d) -> np.ndarray:
    """PHASE / d for a real row d, part by part as Python divides a complex by
    a float: numpy's division differs in the last bit, and re + 1j * im loses -0.0."""
    return np.stack((PHASE.real / d, PHASE.imag / d), -1).view(complex)[..., 0]


def _vectors(x, y) -> StateVectors:
    return StateVectors(a=np.array(x) * PHASE, b=np.array(y) * PHASE)


def state_vectors(pair: CanonicalPair) -> StateVectors:
    """Explicit component vectors a_r, b_r for a canonical pair.

    post: rows are unit vectors and <v_r|v_{r+1}> equals the canonical
          overlap on each side
    """
    return _vectors(pair.x, pair.y)


def frame(ka, kb) -> tuple[OptimalityReport, StateVectors]:
    """The decision on an overlap pair and the states every measurement on it is
    built in, the one source of both for construct, verify, simulate and curve.

    returns: (report, state_vectors(report.pair)); on the Orthogonal branch (no
             report.pair) frame orients the pair itself, or takes the raw
             amplitudes of ka, kb when no canonical form exists
    raises:  DegenerateStates / RankDeficient from state validation
    """
    ka, kb, x, y = _validated(ka, kb)
    report = _decide(ka, kb, x, y)
    if report.pair is not None:
        return report, state_vectors(report.pair)
    try:
        return report, state_vectors(_orient(ka, kb, x, y)[0])
    except NoCanonicalForm:
        return report, _vectors(x, y)


def binary_unambiguous(u, v) -> Povm:
    """Optimal unambiguous discrimination of two pure states.

    args:    u, v -- unit vectors (any common dimension)
    returns: Povm with labels ("first", "second", "inconclusive"); the
             "first" outcome has zero probability on v and vice versa,
             each conclusive probability is 1 - |<u|v>|
    raises:  DegenerateStates if the states are numerically parallel
    """
    outcomes = _binary_stack(*np.asarray([[u], [v]], dtype=complex))[0]
    return Povm(outcomes=outcomes, labels=("first", "second", "inconclusive"))


def _binary_stack(us, vs) -> np.ndarray:
    """binary_unambiguous's outcomes for each row pair (u, v) of two stacks, bit for
    bit as one pair at a time: the stacked products repeat np.vdot, _frobenius
    np.linalg.norm, and each |<u|v>| is Python's abs (np.abs rounds some apart)."""
    cs = (us.conj()[:, None, :] @ vs[:, :, None])[:, 0, 0]
    moduli = [abs(c) for c in cs.tolist()]
    if max(moduli) >= 1.0 - TOL.degenerate:
        raise DegenerateStates(f"|<u|v>| = {max(moduli):.15g} is too close to 1")
    # the component of u orthogonal to v, and of v orthogonal to u
    w = np.stack((us - cs.conj()[:, None] * vs, vs - cs[:, None] * us), 1)
    w = w / _frobenius(w.reshape(-1, w.shape[-1])).reshape(-1, 2, 1)
    detect = np.array([1.0 / (1.0 + m) for m in moduli])[:, None, None, None] * _outer(w)
    inconclusive = np.eye(w.shape[-1]) - detect[:, 0] - detect[:, 1]
    return np.concatenate((detect, inconclusive[:, None]), 1)


def ternary_unambiguous(w) -> Povm:
    """Optimal unambiguous discrimination of three symmetric states.

    args:    w -- positive amplitude triple generating states
                  sum_n w_n tau^{rn} |n>, r = 0, 1, 2
    returns: four-outcome Povm; outcome r fires only on state r, with
             probability 3 * min(w)^2, and the inconclusive operator is
             diagonal exactly (its off-diagonal entries are 0.0)
    """
    w = tuple(float(v) for v in w)
    if not all(v > 0.0 for v in w):  # NaN fails too
        raise DomainError(f"amplitudes must be positive, got {w}")
    detect = _outer((min(w) / math.sqrt(3.0)) / np.array(w) * PHASE)
    inconclusive = np.diag(1.0 - np.diagonal(detect.sum(axis=0)))
    return Povm(outcomes=np.stack((*detect, inconclusive)), labels=OUTCOME_LABELS)


def solve_weights(pair: CanonicalPair):
    """Announce / exclude / defer weights from Alice's completeness relation.

    Row k constrains the basis slot pair.perm[k], with X_k = x_{perm[k]}^2:

        u_1 + u_2 / z_k^2 + delta_{k,2} u_3 X_k = X_k

    Rows 0 and 1 hold only u_1 and u_2, so the system solves in closed form.

    returns: (u_1, u_2, u_3); any negative entry means no globally optimal
             sequential measurement exists
    raises:  SingularSystem when a denominator vanishes: an offset z_k is
             zero, or Bob's top offsets give z_0^-2 == z_1^-2
    """
    _, z = _offsets(pair.kb, pair.y)
    if 0.0 in z or z[0] ** -2 == z[1] ** -2:
        raise SingularSystem(f"offsets z = {z} leave the weight system singular")
    x0, x1, x2 = (pair.x[p] ** 2 for p in pair.perm)
    u2 = (x0 - x1) / (z[0] ** -2 - z[1] ** -2)
    u1 = x0 - u2 / z[0] ** 2
    return u1, u2, 1.0 - (u1 + u2 / z[2] ** 2) / x2


def _bob_stack(y, b) -> np.ndarray:
    """Bob's four outcomes ("0", "1", "2", "inconclusive") after each Alice
    label, in LABELS order: after announce j he reports j blindly; after
    exclude j he unambiguously separates b_{j+1} from b_{j+2} (outcome j
    never fires); after defer he runs the three-state measurement on y."""
    bob = np.zeros((7, 4, 3, 3), dtype=complex)
    bob[[0, 1, 2], [0, 1, 2]] = np.eye(3)
    filled = np.array([[1, 2, 3], [2, 0, 3], [0, 1, 3]])  # by exclude j's binary outcomes
    bob[[[3], [4], [5]], filled] = _binary_stack(b[filled[:, 0]], b[filled[:, 1]])
    bob[6] = ternary_unambiguous(y).outcomes
    return bob


def _product_sequential(sv: StateVectors, branch: str) -> SequentialMeasurement:
    """Alice and Bob each run their own optimal three-state measurement;
    Bob only acts when Alice defers.  Row 0 of each vector triple is the
    amplitude triple itself (tau^0 = 1)."""
    x, y = sv.a[0].real.tolist(), sv.b[0].real.tolist()
    alice = np.zeros((7, 3, 3), dtype=complex)
    alice[[0, 1, 2, 6]] = ternary_unambiguous(x).outcomes
    weights = (min(x) ** 2, 0.0, float(np.trace(alice[6]).real))
    bob = _bob_stack(y, sv.b)
    return SequentialMeasurement(alice=alice, bob=bob, weights=weights, branch=branch)


def build_sequential(pair: CanonicalPair) -> SequentialMeasurement:
    """Globally optimal sequential measurement for a canonical pair.

    Every tie branch builds the product strategy, which reaches the global
    optimum there; only the no-tie branch solves the weight system.

    raises: NotGloballyOptimal when none exists (negative weight, or a
            singular weight system)
    """
    x, y, perm = pair.x, pair.y, pair.perm
    branch = _tie_branch(pair)
    if branch is not None:
        return _product_sequential(state_vectors(pair), branch)
    try:
        u = solve_weights(pair)
    except SingularSystem as exc:
        raise NotGloballyOptimal(f"weight system is singular: {exc}") from None

    if min(u) < -TOL.psd:
        raise NotGloballyOptimal(f"negative measurement weight: u = {u}")
    u = tuple(max(v, 0.0) for v in u)

    _, z = _offsets(pair.kb, y)
    alice = np.zeros((7, 3, 3), dtype=complex)
    alice[:3] = (u[0] / 3.0) * _outer(_phase_over(x))
    if u[1] > 0:
        alice[3:6] = (u[1] / 3.0) * _outer(_phase_over(x * np.array(z)[list(perm)]))
    alice[6, perm[2], perm[2]] = u[2]
    return SequentialMeasurement(
        alice=alice, bob=_bob_stack(y, state_vectors(pair).b), weights=u, branch="Inequality"
    )


def construct(ka, kb):
    """Decide, build and score the sequential measurement for an overlap
    pair: the one build path, on the decision and states `frame(ka, kb)` returns.

    On the Orthogonal branch one party alone identifies the state, so each
    party runs its own three-state optimum in that frame.

    returns: (report, seq, states, success) with seq.branch == report.branch,
             states the StateVectors seq acts on, and success its verified
             success probability
    raises:  NotGloballyOptimal with an empty message when the verdict is
             false, with the build's reason when the build refuses
    """
    report, sv = frame(ka, kb)
    if not report.verdict:
        raise NotGloballyOptimal()
    return (report, *_build(report, sv))


def _build(report, sv: StateVectors):
    """construct past its verdict gate: (seq, sv, success) for a verdict-true frame."""
    seq = (_product_sequential(sv, "Orthogonal") if report.pair is None
           else build_sequential(report.pair))
    return seq, sv, _score(_outcomes(seq, sv)[:3])[0]


@_OVERFLOW_GATED
def flatten(seq: SequentialMeasurement) -> Povm:
    """Combine Alice and Bob into one four-outcome POVM on the 9-dim space."""
    # terms[l, r] is kron(alice[l], bob[l, r]); the sum over labels runs in
    # LABELS order, and adding 0.0 turns a -0.0 total into 0.0 as a sum
    # started from zeros does: the per-label kron loop, bit for bit
    terms = seq.alice[:, None, :, None, :, None] * seq.bob[:, :, None, :, None, :]
    return Povm(outcomes=terms.reshape(7, 4, 9, 9).sum(axis=0) + 0.0, labels=OUTCOME_LABELS)


def joint_states(sv: StateVectors) -> np.ndarray:
    """Rows are the three product states a_r (x) b_r."""
    return (sv.a[:, :, None] * sv.b[:, None, :]).reshape(3, 9)


def verify_povm(p: Povm) -> PovmCheck:
    """Structural POVM validation.

    returns: PovmCheck margins
    raises:  InvalidPovm unless the outcomes form an (n, d, d) stack of
             Hermitian matrices, n >= 1, with one label each
    """
    try:
        ops = np.asarray(p.outcomes, dtype=complex)
    except ValueError as exc:  # ragged
        raise InvalidPovm(f"outcomes: {exc}") from exc
    if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
        raise InvalidPovm(f"outcomes: expected an (n, d, d) stack, got shape {ops.shape}")
    if len(p.labels) != len(ops):
        raise InvalidPovm(f"{len(p.labels)} labels for {len(ops)} outcomes")
    try:
        w, _ = hermitian_eigen(ops)
    except NonHermitian as exc:
        raise InvalidPovm(f"outcome {p.labels[exc.index]}: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise InvalidPovm(f"outcomes: {exc}") from exc
    completeness = float(np.max(np.abs(ops.sum(axis=0) - np.eye(ops.shape[1]))))
    return PovmCheck(psd_margin=float(np.min(w[:, 0])), completeness=completeness)


def verify_unambiguous(p: Povm, states):
    """Success probability under equal priors and worst misidentification leak.

    args:    states -- array with the three state vectors as rows,
             matching p's dimension
    returns: (success, residual) where residual is the largest
             probability of reporting r on a state r' != r
    """
    return _score(_quad(p.outcomes[:3], states))


_OFF_DIAGONAL = ~np.eye(3, dtype=bool)


def _score(q):
    """(success, leak) from q[r, s], the probability of conclusive outcome r on state s."""
    d0, d1, d2 = np.diagonal(q).tolist()
    success = 0.0 + (1 / 3) * d0 + (1 / 3) * d1 + (1 / 3) * d2  # as sum() adds, from 0
    return success, float(np.max(np.abs(q[_OFF_DIAGONAL])))


@_OVERFLOW_GATED
def _outcomes(seq: SequentialMeasurement, sv: StateVectors) -> np.ndarray:
    """The protocol Alice and Bob run, scored piece by piece: the (4, 3) table of
    sum_l <a_s|A_l|a_s> <b_s|B_l,r|b_s>, the probability of Bob's outcome r on state s."""
    bob = _quad(seq.bob.reshape(28, 3, 3), sv.b).reshape(7, 4, 3)
    return (_quad(seq.alice, sv.a)[:, None] * bob).sum(axis=0)


@_OVERFLOW_GATED
def _local_check(seq: SequentialMeasurement, sv: StateVectors):
    """Check the protocol Alice and Bob run piece by piece: every label counts,
    one Alice never fires too.  Every piece a file spells is exactly Hermitian
    (the reader mirrors its upper triangle, the build its products), so the
    eigenvalues need no symmetry check.

    returns: (success, leak) as _score reads them off _outcomes' table, then
             the least eigenvalue of the 35 pieces (nan when the eigensolver
             does not converge) and the largest |entry| of Alice's and each of
             Bob's seven outcome sums minus the identity
    """
    try:
        margin = float(np.linalg.eigvalsh(np.concatenate((seq.alice, seq.bob.reshape(28, 3, 3))))
                       [:, 0].min())
    except np.linalg.LinAlgError:
        margin = math.nan
    sums = np.concatenate((seq.alice.sum(axis=0)[None], seq.bob.sum(axis=1)))
    return (*_score(_outcomes(seq, sv)[:3]), margin, float(np.abs(sums - np.eye(3)).max()))


# the states Bob can no longer report after announce j (all but j), exclude j (j) and defer
_BLOCKED_MASK = np.vstack((1 - np.eye(3), np.eye(3), np.zeros(3))).astype(bool)


@_OVERFLOW_GATED
def dual_certificate(pair: CanonicalPair, seq: SequentialMeasurement) -> CertificateReport:
    """Independent optimality proof for a constructed measurement.

    Label l leaves Bob the states T, each of which he then finds with
    probability 3 q.  Its witness d_l = X - sum_{r in T} q |a_r><a_r|,
    X = diag(3 x_n^2 y_{perm[n]}^2), is compressed to g_l = P d_l P by the
    projector P off the states he may no longer report.  As P kills those and
    sum_r |a_r><a_r| = 3 diag(x^2), g_l = P D P, D = diag(d) with
    d_n = 3 x_n^2 (y_{perm[n]}^2 - q).  Gate (i) reads the least eigenvalue of
    D on P's range in closed form, 0 on a canonical pair in exact arithmetic:

        announce j  P = |w_j><w_j| / <w_j|w_j>, w_j = PHASE[j] / x, q = 1/3:
                    g_l = lam P exactly, lam = <w_j|D|w_j> / <w_j|w_j>, which
                    is 3 (sum y^2 - 1) / sum x^-2 for every j
        exclude j   P = I - |a_j><a_j|, q = level = (1 - |kb|) / 3: D on P's
                    range has trace t = sum_n d_n (1 - x_n^2) and determinant
                    e = sum_n d_{n+1} d_{n+2} x_n^2 (|a_jn|^2 = x_n^2 for all j),
                    and its smaller eigenvalue is e over the larger-modulus root
                    of s^2 - t s + e.  In the basis w_{j+1}, w_{j+2} it is
                    3 [[|kb|, s'], [s'*, |kb|]], s' = sum_n tau^n y_{perm[n]}^2,
                    |s'| = |kb| as Z_3's permutations are n -> +-n + c: rank <= 1
        defer       P = I, q = y_2^2: g_l = D, min d = 0 at slot perm[2] (y_2 is
                    Bob's minimum, perm an involution), where the build puts u_3

    Gates: (i) each margin at least -TOL.psd; (ii) residual |g_l A_l| / |A_l|
    within TOL.kernel_resid (an A_l of norm at most TOL.active is unused);
    per-label unambiguity leaks within TOL.leak; Alice completeness within
    TOL.completeness.  They prove optimality (Eldar, IEEE Trans. Inf.
    Theory 49, 446, 2003): tr X = p_global, and for PSD A_l that sum to I
    without leaking (A_l = P A_l P) the success is
    sum_l tr(A_l (X - d_l)) = tr X - sum_l tr(A_l g_l), at most tr X by (i)
    and equal to it by (ii).  The size of a kernel does not enter.  As g
    reads only the pair, (i) guards the pair's consistency (a kb that
    disagrees with y fails it); a measurement checked against another
    canonical pair fails (ii) and the leak gate.

    raises: CertificateViolation naming every failed label and margin
    """
    x, y, perm = pair.x, pair.y, pair.perm
    a = state_vectors(pair).a
    level, _ = _offsets(pair.kb, y)
    x2 = [v * v for v in x]
    y2 = [y[p] ** 2 for p in perm]  # squared by float ** as _offsets squares
    inverse = [1.0 / s for s in x2]  # |w_jn|^2
    lam = 3.0 * (y2[0] + y2[1] + y2[2] - 1.0) / (inverse[0] + inverse[1] + inverse[2])
    exclude, defer = ([3.0 * s * (v - q) for s, v in zip(x2, y2)] for q in (level, y[2] ** 2))
    d0, d1, d2 = exclude
    t = d0 * (1.0 - x2[0]) + d1 * (1.0 - x2[1]) + d2 * (1.0 - x2[2])
    e = d1 * d2 * x2[0] + d2 * d0 * x2[1] + d0 * d1 * x2[2]
    root = (t + math.copysign(math.sqrt(max(t * t - 4.0 * e, 0.0)), t)) / 2.0
    margins = [lam] * 3 + [min(root, e / root) if root else 0.0] * 3 + [min(defer)]
    w = PHASE * np.sqrt(np.divide(inverse, sum(inverse)))  # row j is w_j / |w_j|
    proj = np.eye(3) - a[:, :, None] * a.conj()[:, None, :]
    g = np.concatenate(((lam * w)[:, :, None] * w.conj()[:, None, :], (proj * exclude) @ proj,
                        np.diag(defer)[None]))
    norms = _frobenius(np.concatenate((g @ seq.alice, seq.alice)))  # |g_l A_l|, then |A_l|
    residual = np.divide(norms[:7], norms[7:], out=np.zeros(7), where=~(norms[7:] <= TOL.active))
    leaks = np.abs(_quad(seq.alice, a), out=np.zeros((7, 3)), where=_BLOCKED_MASK).max(axis=1)
    completeness = float(np.abs(seq.alice.sum(axis=0) - np.eye(3)).max())
    residual, leaks = residual.tolist(), leaks.tolist()

    failures = []
    for i, label in enumerate(LABELS):
        if not margins[i] >= -TOL.psd:
            failures.append(f"{label}: witness eigenvalue {margins[i]:.3e}")
        if not residual[i] <= TOL.kernel_resid:  # 0.0 for an unused operator
            failures.append(f"{label}: kernel residual {residual[i]:.3e}")
        if not leaks[i] <= TOL.leak:
            failures.append(f"{label}: unambiguity leak {leaks[i]:.3e}")
    if not completeness <= TOL.completeness:
        failures.append(f"completeness residual {completeness:.3e}")

    if failures:
        raise CertificateViolation("; ".join(failures))
    return CertificateReport(
        psd_margin=dict(zip(LABELS, margins)),
        kernel_residual=dict(zip(LABELS, residual)),
        completeness=completeness,
        unambiguity=dict(zip(LABELS, leaks)),
    )


def _frobenius(ops) -> np.ndarray:
    """np.linalg.norm of each matrix in a stack, bit for bit: the square
    root of re.re + im.im as dot products."""
    flat = ops.reshape(len(ops), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0]


def sample_outcomes(p: Povm, state, shots, seed):
    """Multinomial outcome counts for repeated measurement of one state.

    returns: integer array, one count per outcome, summing to shots
    raises:  DomainError unless 0 <= shots <= _MAX_SHOTS and seed >= 0;
             InvalidPovm if the outcome probabilities do not sum to 1
    """
    shots, seed = int(shots), int(seed)
    if not 0 <= shots <= _MAX_SHOTS:
        raise DomainError(f"shots must be in [0, {_MAX_SHOTS}], got {shots}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return _draw(_quad(p.outcomes, np.asarray(state)[None])[:, 0], shots, seed)[0]


def _draw(probs, shots: int, seed: int):
    """sample_outcomes past its argument checks, from the outcome probabilities
    probs; returns (counts, probs clipped at 0.0 as max(p, 0.0) clips: NaN and
    -0.0 pass)."""
    probs = np.where(0.0 > probs, 0.0, probs)
    total = float(probs.sum())
    if not abs(total - 1.0) <= TOL.prob_sum:  # NaN fails too
        raise InvalidPovm(f"outcome probabilities sum to {total:.12g}")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / total), probs


# format 3 spells a Hermitian 3x3 piece as nine numbers, H00, H11, H22 and then
# Re and Im of H01, H02, H12: these places among its 18 row-major floats
_PACKED = np.array([0, 8, 16, 2, 3, 4, 5, 10, 11])


_NUMBER_TYPES = frozenset((int, float, np.float64))


def _numbers(data, shape, context):
    """Floats from nested lists of JSON numbers (not bools or strings) or numpy
    floats, exactly `shape` deep, every entry finite: a float array, or for a
    flat shape, () or (n,) as the meta numbers have, a float or a list of floats
    checked in plain Python (a numpy array is read as its tolist()).

    raises: InvalidPovm naming `context`
    """
    if len(shape) < 2:
        values = data.tolist() if isinstance(data, np.ndarray) else data
        values = values if shape else [values]
        if (not isinstance(values, (list, tuple)) or len(values) != math.prod(shape)
                or not all(type(v) in _NUMBER_TYPES for v in values)):
            raise InvalidPovm(f"{context}: expected a {shape} array of numbers")
        values = [float(v) for v in values]  # OverflowError on an integer beyond float range
        if not all(map(math.isfinite, values)):
            raise InvalidPovm(f"{context}: non-finite entries")
        return values if shape else values[0]
    arr = np.array(data, dtype=object)
    if arr.shape != shape or not set(map(type, arr.flat)) <= _NUMBER_TYPES:
        raise InvalidPovm(f"{context}: expected a {shape} array of numbers")
    arr = arr.astype(float)  # OverflowError on an integer beyond float range
    if not np.isfinite(arr).all():
        raise InvalidPovm(f"{context}: non-finite entries")
    return arr


def _meta_fields(meta):
    """(ka, kb, kappa) from meta, ka and kb as [re, im]: the reader's and the writer's
    checks, each field looked up only when checked, in the order ka, kb, kappa,
    branch, success.  raises: InvalidPovm naming the first bad field
    """
    ka = complex(*_numbers(meta["ka"], (2,), "meta ka"))
    kb = complex(*_numbers(meta["kb"], (2,), "meta kb"))
    kappa = tuple(_numbers(meta["kappa"], (3,), "meta kappa"))
    if meta["branch"] not in BRANCHES:
        raise InvalidPovm(f"meta branch: expected one of {', '.join(BRANCHES)}")
    _numbers(meta["success"], (), "meta success")
    return ka, kb, kappa


def _from_packed(data, shape, context) -> np.ndarray:
    """Hermitian pieces of `shape` (..., 3, 3) from format 3's nine numbers each."""
    packed = np.asarray(_numbers(data, (*shape[:-2], 9), context))  # a list for one piece
    floats = np.zeros((*shape[:-2], 18))
    floats[..., _PACKED] = packed
    floats[..., [6, 7, 12, 13, 14, 15]] = packed[..., 3:] * [1, -1, 1, -1, 1, -1]  # H10, H20, H21
    return floats.view(complex).reshape(shape)


def _pieces(block) -> np.ndarray:
    """The 35 pieces of a sequential block as one (35, 3, 3) stack, Alice's seven
    and then Bob's four per label, in LABELS order, decoded by one _from_packed
    call.  When that fails, every piece is decoded on its own, label by label and
    Alice's before Bob's within a label, so the error names the first bad piece
    in that order, as "alice label" or "bob label"."""
    try:
        bob = [block["bob"][label] for label in LABELS]
        # three rows under one label and five under another would still make 28
        if all(len(outcomes) == 4 for outcomes in bob):
            rows = [block["alice"][label] for label in LABELS] + [r for o in bob for r in o]
            return _from_packed(rows, (35, 3, 3), "block")
    except (InvalidPovm, LookupError, TypeError, ValueError, OverflowError):
        pass
    alice, bob = zip(*((_from_packed(block["alice"][label], (3, 3), f"alice {label}"),
                        _from_packed(block["bob"][label], (4, 3, 3), f"bob {label}"))
                       for label in LABELS))
    return np.concatenate((np.stack(alice), *bob))


@functools.cache
def _block_template() -> str:
    """The sequential block as save_povm spells it, one '%.17g' slot per packed
    number: Alice's seven pieces, then Bob's four per label, in LABELS order."""
    return json_dumps({"alice": dict.fromkeys(LABELS, Raw(float_template((9,)))),
                       "bob": dict.fromkeys(LABELS, Raw(float_template((4, 9))))})


def save_povm(path, seq: SequentialMeasurement, ka: complex, kb: complex, success: float):
    """Write a measurement file, format 3: meta and the pieces Alice and Bob run.
    The 35 pieces, Alice's seven and then Bob's 28, are checked as one stack,
    and the numbers written are read off it.

    raises: InvalidPovm, writing nothing (an existing target keeps its bytes),
            when meta is what load_povm refuses or a piece has a non-finite
            entry; NonHermitian, writing nothing, when a finite piece is not
            Hermitian; each names the first bad field or piece in load_povm's
            words and order: meta ka, kb, kappa, branch and success, then Alice's
            seven pieces before Bob's, a party's non-finite piece first
    """
    ka, kb = complex(ka), complex(kb)
    meta = {"ka": (ka.real, ka.imag), "kb": (kb.real, kb.imag), "branch": seq.branch,
            "kappa": seq.weights, "success": success}
    _meta_fields(meta)
    # format 3 spells each piece's upper triangle only
    pieces = np.concatenate((np.asarray(seq.alice, dtype=complex),
                             np.asarray(seq.bob, dtype=complex).reshape(28, 3, 3)))
    finite = np.isfinite(pieces).all(axis=(1, 2))
    hermitian = (pieces == np.swapaxes(pieces, 1, 2).conj()).all(axis=(1, 2))
    # name Alice's pieces before Bob's, and a party's non-finite piece before
    # one that is not Hermitian; Bob has four pieces per label
    for name, rows, per_label in (("alice", slice(0, 7), 1), ("bob", slice(7, 35), 4)):
        if not finite[rows].all():
            i = int(np.argmin(finite[rows])) // per_label
            raise InvalidPovm(f"{name} {LABELS[i]}: non-finite entries")
        if not hermitian[rows].all():
            i = int(np.argmin(hermitian[rows])) // per_label
            raise NonHermitian(f"{name} {LABELS[i]}: not Hermitian", i)
    numbers = pieces.view(float).reshape(35, 18)[:, _PACKED].ravel()
    doc = {
        "dim": 9,
        "format": 3,
        "meta": meta,
        "sequential": Raw(_block_template() % tuple(numbers.tolist())),
    }
    write_text(path, json_dumps(doc) + "\n")


class LoadedMeasurement(NamedTuple):
    """A measurement file as load_povm reads it; meta has ka, kb complex."""

    seq: SequentialMeasurement
    meta: dict

    @property
    def povm(self) -> Povm:
        """flatten(seq), derived on each access: the commands read the pieces."""
        return flatten(self.seq)


def load_povm(path) -> LoadedMeasurement:
    """Read a save_povm file back.  The 35 pieces are decoded as one block
    (_pieces), and `seq.alice` and `seq.bob` are views of it.

    raises: InvalidPovm on any structural problem (missing keys, wrong shapes,
            entries that are not finite numbers, a meta branch outside
            BRANCHES, a format other than 3)
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, deep nesting
        raise InvalidPovm(f"not valid JSON: {exc}") from exc
    try:
        if doc["dim"] != 9:
            raise InvalidPovm(f"expected dim 9, got {doc['dim']!r}")
        fmt = doc.get("format")
        if fmt != 3:
            raise InvalidPovm(f"format: expected 3, got {'no key' if fmt is None else repr(fmt)};"
                              f" construct with the file's meta overlaps writes format 3")
        meta = doc["meta"]
        if not isinstance(meta, dict):
            raise InvalidPovm("meta: expected a JSON object")
        meta["ka"], meta["kb"], weights = _meta_fields(meta)
        pieces = _pieces(doc["sequential"])
        seq = SequentialMeasurement(alice=pieces[:7], bob=pieces[7:].reshape(7, 4, 3, 3),
                                    weights=weights, branch=meta["branch"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidPovm(f"missing or malformed field: {exc}") from exc
    return LoadedMeasurement(seq=seq, meta=meta)
