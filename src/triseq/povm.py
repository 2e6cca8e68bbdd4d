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
(u_1, u_2, u_3) are fixed by her completeness relation, a real 3x3
system; nonnegativity of its solution is exactly the optimality verdict,
so a negative weight raises NotGloballyOptimal.

`dual_certificate` re-proves optimality independently of how the
measurement was built: for each label it projects the dual witness
operator onto the subspace Bob can still use and checks positivity plus
the zero-eigenvalue structure the optimum forces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateViolation,
    DegenerateStates,
    DomainError,
    InvalidPovm,
    NonHermitian,
    NotGloballyOptimal,
    SingularSystem,
)
from .numerics import TOL, hermitian_eigen, solve3
from .optimality import BRANCHES, _offsets, _tie_branch, check_global_optimality, global_optimum
from .serialize import array_json, json_dumps
from .states import TAU, CanonicalPair, StateVectors, frame, state_vectors

LABELS = (
    "announce0",
    "announce1",
    "announce2",
    "exclude0",
    "exclude1",
    "exclude2",
    "defer",
)

OUTCOME_LABELS = ("0", "1", "2", "inconclusive")

# numpy's multinomial counts are int64
_MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class Povm:
    """Labeled positive operator-valued measure: `outcomes` is one (n, d, d)
    complex array, an operator per entry of `labels`."""

    outcomes: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.outcomes.shape[-1]


@dataclass(frozen=True)
class SequentialMeasurement:
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


@dataclass(frozen=True)
class PovmCheck:
    """psd_margin: smallest eigenvalue over all outcomes (verify wants
    >= -TOL.povm_psd); completeness: max |sum of outcomes - identity| entry
    (verify wants <= TOL.completeness)."""

    psd_margin: float
    completeness: float


@dataclass(frozen=True)
class CertificateReport:
    """Dual-certificate diagnostics, keyed by Alice label where per-label."""

    psd_margin: dict
    kernel_residual: dict
    kernel_dim: dict
    completeness: float
    unambiguity: dict


def _outer(vecs) -> np.ndarray:
    """|v><v| for each row v of a stack of vectors."""
    return vecs[..., :, None] * vecs.conj()[..., None, :]


def _quad(ops, states) -> np.ndarray:
    """Table q[e, s] = Re <s|E_e|s> over a stack of operators and the
    state rows; the stacked products repeat np.vdot(s, E @ s) bit for bit."""
    ops = np.asarray(ops, dtype=complex)
    states = np.asarray(states, dtype=complex)
    kets = ops[:, None] @ states[None, :, :, None]
    return (states.conj()[None, :, None, :] @ kets)[..., 0, 0].real


def binary_unambiguous(u, v) -> Povm:
    """Optimal unambiguous discrimination of two pure states.

    args:    u, v -- unit vectors (any common dimension)
    returns: Povm with labels ("first", "second", "inconclusive"); the
             "first" outcome has zero probability on v and vice versa,
             each conclusive probability is 1 - |<u|v>|
    raises:  DegenerateStates if the states are numerically parallel
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    c = np.vdot(u, v)
    if abs(c) >= 1.0 - TOL.degenerate:
        raise DegenerateStates(f"|<u|v>| = {abs(c):.15g} is too close to 1")
    wu = u - c.conjugate() * v  # component of u orthogonal to v
    wu = wu / np.linalg.norm(wu)
    wv = v - c * u
    wv = wv / np.linalg.norm(wv)
    detect = (1.0 / (1.0 + abs(c))) * _outer(np.stack((wu, wv)))
    inconclusive = np.eye(len(u)) - detect[0] - detect[1]
    labels = ("first", "second", "inconclusive")
    return Povm(outcomes=np.stack((*detect, inconclusive)), labels=labels)


def ternary_unambiguous(w) -> Povm:
    """Optimal unambiguous discrimination of three symmetric states.

    args:    w -- positive amplitude triple generating states
                  sum_n w_n tau^{rn} |n>, r = 0, 1, 2
    returns: four-outcome Povm; outcome r fires only on state r, with
             probability 3 * min(w)^2, and the inconclusive operator is
             diagonal
    """
    w = tuple(float(v) for v in w)
    if min(w) <= 0.0:
        raise DomainError(f"amplitudes must be positive, got {w}")
    wmin = min(w)
    detect = _outer(np.array(
        [[(wmin / math.sqrt(3.0)) / w[n] * TAU ** (r * n) for n in range(3)] for r in range(3)]
    ))
    inconclusive = np.eye(3) - detect.sum(axis=0)
    return Povm(outcomes=np.stack((*detect, inconclusive)), labels=OUTCOME_LABELS)


def solve_weights(pair: CanonicalPair):
    """Announce / exclude / defer weights from Alice's completeness relation.

    Row k of the system constrains the basis slot pair.perm[k]:

        u_1 / x_pk^2 + u_2 / (x_pk^2 z_k^2) + delta_{k,2} u_3 = 1

    returns: (u_1, u_2, u_3); any negative entry means no globally optimal
             sequential measurement exists
    raises:  SingularSystem when Bob's top offsets tie (z_0 == z_1)
    """
    _, z = _offsets(pair.kb, pair.y)
    if min(abs(v) for v in z) == 0.0:
        raise SingularSystem("an offset z_k vanishes; weight system undefined")
    rows = []
    for k in range(3):
        xs = pair.x[pair.perm[k]] ** -2
        rows.append([xs, xs * z[k] ** -2, 1.0 if k == 2 else 0.0])
    return solve3(rows, (1.0, 1.0, 1.0))


def _bob_stack(y, b) -> np.ndarray:
    """Bob's four outcomes ("0", "1", "2", "inconclusive") after each Alice
    label, in LABELS order: after announce j he reports j blindly; after
    exclude j he unambiguously separates b_{j+1} from b_{j+2} (outcome j
    never fires); after defer he runs the three-state measurement on y."""
    bob = np.zeros((7, 4, 3, 3), dtype=complex)
    for j in range(3):
        bob[j, j] = np.eye(3)
        r1, r2 = (j + 1) % 3, (j + 2) % 3
        bob[3 + j, [r1, r2, 3]] = binary_unambiguous(b[r1], b[r2]).outcomes
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
    return SequentialMeasurement(
        alice=alice, bob=_bob_stack(y, sv.b), weights=weights, branch=branch
    )


def _product_success(pair: CanonicalPair) -> float:
    px = 3.0 * min(pair.x) ** 2
    py = 3.0 * min(pair.y) ** 2
    return px + py - px * py


def build_sequential(pair: CanonicalPair) -> SequentialMeasurement:
    """Globally optimal sequential measurement for a canonical pair.

    raises: NotGloballyOptimal when none exists (negative weight, or an
            underdetermined weight system whose product fallback misses
            the global optimum)
    """
    x, y, perm = pair.x, pair.y, pair.perm
    branch = _tie_branch(pair) or "Inequality"
    if branch == "PositiveRealB":
        return _product_sequential(state_vectors(pair), branch)
    try:
        u = solve_weights(pair)
    except SingularSystem:
        # Bob's top offsets tie; the weight system degenerates.  The
        # product strategy is the only candidate left.
        if abs(_product_success(pair) - global_optimum(pair)) <= TOL.product_gap:
            return _product_sequential(state_vectors(pair), branch)
        raise NotGloballyOptimal(
            "weight system is singular and the product strategy is suboptimal"
        ) from None

    if min(u) < -TOL.psd:
        raise NotGloballyOptimal(f"negative measurement weight: u = {u}")
    u = tuple(max(v, 0.0) for v in u)

    _, z = _offsets(pair.kb, y)
    alice = np.zeros((7, 3, 3), dtype=complex)
    for j in range(3):
        vec1 = np.array([TAU ** (j * n) / x[n] for n in range(3)])
        alice[j] = (u[0] / 3.0) * np.outer(vec1, vec1.conj())
        if u[1] > 0:
            vec2 = np.array([TAU ** (j * n) / (x[n] * z[perm[n]]) for n in range(3)])
            alice[3 + j] = (u[1] / 3.0) * np.outer(vec2, vec2.conj())
    slot = np.zeros(3, dtype=complex)
    slot[perm[2]] = 1.0
    alice[6] = u[2] * np.outer(slot, slot.conj())
    return SequentialMeasurement(
        alice=alice, bob=_bob_stack(y, state_vectors(pair).b), weights=u, branch=branch
    )


def construct(ka, kb):
    """Decide, build and score the sequential measurement for an overlap pair.

    On the Orthogonal branch one party alone identifies the state, so each
    party runs its own three-state optimum in the frame of `frame(ka, kb)`.

    returns: (report, seq, states, success) with seq.branch == report.branch,
             states the StateVectors seq acts on, and success its verified
             success probability
    raises:  NotGloballyOptimal with an empty message when the verdict is
             false, with the build's reason when the build refuses
    """
    report = check_global_optimality(ka, kb)
    return (report, *_realize(report, ka, kb))


def _realize(report, ka, kb):
    """construct's build-and-score tail, for a pair already decided.

    returns: (seq, states, success) as in construct
    """
    if not report.verdict:
        raise NotGloballyOptimal()
    if report.pair is None:
        _, sv = frame(ka, kb)
        seq = _product_sequential(sv, "Orthogonal")
    else:
        sv = state_vectors(report.pair)
        seq = build_sequential(report.pair)
    success, _ = verify_unambiguous(flatten(seq), joint_states(sv))
    return seq, sv, success


def flatten(seq: SequentialMeasurement) -> Povm:
    """Combine Alice and Bob into one four-outcome POVM on the 9-dim space."""
    # terms[l, r] is kron(alice[l], bob[l, r]); adding the labels into zeros
    # in LABELS order repeats the per-label kron loop bit for bit
    terms = seq.alice[:, None, :, None, :, None] * seq.bob[:, :, None, :, None, :]
    total = np.zeros((4, 9, 9), dtype=complex)
    for term in terms.reshape(7, 4, 9, 9):
        total += term
    return Povm(outcomes=total, labels=OUTCOME_LABELS)


def joint_states(sv: StateVectors) -> np.ndarray:
    """Rows are the three product states a_r (x) b_r."""
    return np.array([np.kron(sv.a[r], sv.b[r]) for r in range(3)])


def verify_povm(p: Povm) -> PovmCheck:
    """Structural POVM validation.

    returns: PovmCheck margins
    raises:  InvalidPovm unless the outcomes form an (n, d, d) stack of
             Hermitian matrices, n >= 1
    """
    try:
        ops = np.asarray(p.outcomes, dtype=complex)
    except ValueError as exc:  # ragged
        raise InvalidPovm(f"outcomes: {exc}") from exc
    if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
        raise InvalidPovm(f"outcomes: expected an (n, d, d) stack, got shape {ops.shape}")
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
    q = _quad(p.outcomes[:3], states)
    success = float(sum((1 / 3) * np.diagonal(q)))  # from 0.0, in outcome order
    residual = float(np.max(np.abs(q[~np.eye(3, dtype=bool)])))
    return success, residual


# states Bob may still report after each Alice label, in LABELS order, as
# rows of slot indices padded with 3 (a zero vector); exclude j lists
# (j+1, j+2), the order the witness is summed in
_ALLOWED = np.array([(0, 3, 3), (1, 3, 3), (2, 3, 3), (1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 1, 2)])
# the states he can no longer report, likewise padded
_BLOCKED = np.array([(1, 2), (0, 2), (0, 1), (0, 3), (1, 3), (2, 3), (3, 3)])
_BLOCKED_MASK = (_BLOCKED[:, :, None] == np.arange(3)).any(axis=1)


# A huge finite entry in a loaded file can overflow a margin to inf or NaN.
# Every gate below fails on NaN, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def dual_certificate(pair: CanonicalPair, seq: SequentialMeasurement) -> CertificateReport:
    """Independent optimality proof for a constructed measurement.

    For each Alice label the witness X - sum_{r in T} (p_r/3) |a_r><a_r|
    is projected onto the orthocomplement of the states Bob can no longer
    report (T is the set he still may).  Checks per label:

      (i)   projected witness PSD within TOL.psd
      (ii)  it annihilates Alice's operator range (residual within
            TOL.kernel_resid)
      (iii) its kernel inside the projected subspace is one-dimensional
            (skipped where the construction legitimately has a larger
            kernel: the defer label when the pair's own tie branch is
            PositiveRealB, whatever branch seq is labelled with)

    plus Alice completeness (TOL.completeness) and per-label unambiguity
    leaks (TOL.leak).  An Alice operator of norm at most TOL.active counts
    as unused; kernel eigenvalues are those within TOL.kernel_zero of 0.

    raises: CertificateViolation naming every failed label and margin
    """
    x, y, perm = pair.x, pair.y, pair.perm
    a = np.vstack([state_vectors(pair).a, np.zeros(3)])  # row 3 pads the slot tables
    rank_one = _outer(a)
    witness = np.diag([3.0 * x[n] ** 2 * y[perm[n]] ** 2 for n in range(3)]).astype(complex)
    level, _ = _offsets(pair.kb, y)
    p_value = np.array((1.0,) * 3 + (3.0 * level,) * 3 + (3.0 * y[2] ** 2,))

    # sums start from zero in slot order: bit-equal to the tests' per-label reference
    terms = (p_value / 3.0)[:, None, None, None] * rank_one[_ALLOWED]
    d = witness - terms[:, 0] - terms[:, 1] - terms[:, 2]
    # the zero Gram matrix of defer has eigenvectors e_0, e_1, e_2: its
    # projector is the identity exactly
    w_gram, v_gram = hermitian_eigen(0.0 + rank_one[_BLOCKED[:, 0]] + rank_one[_BLOCKED[:, 1]])
    free = w_gram < TOL.null_space
    kept = np.where(free[:, :, None, None], _outer(np.swapaxes(v_gram, -2, -1)), 0.0)
    proj = 0.0 + kept[:, 0] + kept[:, 1] + kept[:, 2]
    g = proj @ d @ proj
    g = (g + np.swapaxes(g, -2, -1).conj()) / 2.0
    w, _ = hermitian_eigen(g)

    a_norm = _frobenius(seq.alice)
    active = ~(a_norm <= TOL.active)
    residual = np.divide(_frobenius(g @ seq.alice), a_norm, out=np.zeros(7), where=active)
    check_dim = active.copy()
    check_dim[-1] &= _tie_branch(pair) != "PositiveRealB"  # defer keeps a larger kernel there
    # the projector's rank is its count of free directions
    dims = (np.abs(w) < TOL.kernel_zero).sum(axis=1) - (3 - free.sum(axis=1))
    leaks = np.max(np.abs(_quad(seq.alice, a[:3])), axis=1, where=_BLOCKED_MASK, initial=0.0)
    completeness = float(np.max(np.abs(seq.alice.sum(axis=0) - np.eye(3))))

    failures = []
    for i, label in enumerate(LABELS):
        if not w[i, 0] >= -TOL.psd:
            failures.append(f"{label}: witness eigenvalue {w[i, 0]:.3e}")
        if not residual[i] <= TOL.kernel_resid:  # 0.0 for an unused operator
            failures.append(f"{label}: kernel residual {residual[i]:.3e}")
        if check_dim[i] and dims[i] != 1:
            failures.append(f"{label}: kernel dimension {dims[i]} != 1")
        if not leaks[i] <= TOL.leak:
            failures.append(f"{label}: unambiguity leak {leaks[i]:.3e}")
    if not completeness <= TOL.completeness:
        failures.append(f"completeness residual {completeness:.3e}")

    if failures:
        raise CertificateViolation("; ".join(failures))
    return CertificateReport(
        psd_margin=dict(zip(LABELS, w[:, 0].tolist())),
        kernel_residual=dict(zip(LABELS, residual.tolist())),
        kernel_dim={label: int(n) for label, n, c in zip(LABELS, dims, check_dim) if c},
        completeness=completeness,
        unambiguity=dict(zip(LABELS, leaks.tolist())),
    )


def _frobenius(ops) -> np.ndarray:
    """np.linalg.norm of each matrix in a stack, bit for bit: the square
    root of re.re + im.im as dot products."""
    flat = ops.reshape(len(ops), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ np.swapaxes(re, -2, -1) + im @ np.swapaxes(im, -2, -1))[:, 0, 0]


def _outcome_probs(p: Povm, state) -> np.ndarray:
    """<state|E|state> per outcome E, rounding noise below zero clipped
    (as max(prob, 0.0) clips: a NaN or a -0.0 passes through)."""
    probs = _quad(p.outcomes, np.asarray(state)[None])[:, 0]
    return np.where(0.0 > probs, 0.0, probs)


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
    probs = _outcome_probs(p, state)
    total = float(probs.sum())
    if not abs(total - 1.0) <= TOL.prob_sum:  # NaN fails too
        raise InvalidPovm(f"outcome probabilities sum to {total:.12g}")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / total)


def _to_json(ops) -> str:
    """Complex array of any shape as the JSON text of nested [re, im] pairs."""
    ops = np.ascontiguousarray(ops, dtype=complex)
    return array_json(ops.view(float).ravel().tolist(), (*ops.shape, 2))


def _numbers(data, shape, context) -> np.ndarray:
    """Float array from nested lists of JSON numbers (not bools or
    strings), exactly `shape` deep, every entry finite.

    raises: InvalidPovm naming `context`
    """
    arr = np.array(data, dtype=object)
    if arr.shape != shape or not set(map(type, arr.flat)) <= {int, float}:
        raise InvalidPovm(f"{context}: expected a {shape} array of numbers")
    arr = arr.astype(float)  # OverflowError on an integer beyond float range
    if not np.isfinite(arr).all():
        raise InvalidPovm(f"{context}: non-finite entries")
    return arr


def _from_json(data, shape, context) -> np.ndarray:
    """Inverse of _to_json: nested [re, im] pairs, exactly `shape` deep."""
    return _numbers(data, (*shape, 2), context).view(complex)[..., 0]


def save_povm(path, seq: SequentialMeasurement, ka: complex, kb: complex, success: float):
    """Write a measurement file: flattened POVM, per-label pieces, meta."""
    flat = flatten(seq)
    doc = {
        "dim": 9,
        "outcomes": [
            {"label": label, "matrix": _to_json(op)}
            for label, op in zip(flat.labels, flat.outcomes)
        ],
        "meta": {
            "ka": [ka.real, ka.imag],
            "kb": [kb.real, kb.imag],
            "branch": seq.branch,
            "kappa": list(seq.weights),
            "success": success,
        },
        "sequential": {
            "alice": dict(zip(LABELS, map(_to_json, seq.alice))),
            "bob": dict(zip(LABELS, map(_to_json, seq.bob))),
        },
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(json_dumps(doc))
        fh.write("\n")


@dataclass(frozen=True)
class LoadedMeasurement:
    povm: Povm
    seq: SequentialMeasurement
    meta: dict


def load_povm(path) -> LoadedMeasurement:
    """Read a measurement file back; inverse of save_povm.

    raises: InvalidPovm on any structural problem (missing keys, wrong
            shapes, entries that are not finite numbers, a meta branch
            outside BRANCHES)
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, deep nesting
        raise InvalidPovm(f"not valid JSON: {exc}") from exc
    try:
        if doc["dim"] != 9:
            raise InvalidPovm(f"expected dim 9, got {doc['dim']!r}")
        raw_outcomes = doc["outcomes"]
        labels = tuple(entry["label"] for entry in raw_outcomes)
        if labels != OUTCOME_LABELS:
            raise InvalidPovm(f"unexpected outcome labels {list(labels)}")
        outcomes = np.stack([
            _from_json(entry["matrix"], (9, 9), f"outcome {i}")
            for i, entry in enumerate(raw_outcomes)
        ])
        meta = doc["meta"]
        if not isinstance(meta, dict):
            raise InvalidPovm("meta: expected a JSON object")
        meta["ka"] = complex(_from_json(meta["ka"], (), "meta ka"))
        meta["kb"] = complex(_from_json(meta["kb"], (), "meta kb"))
        weights = tuple(_numbers(meta["kappa"], (3,), "meta kappa").tolist())
        branch = meta["branch"]
        if branch not in BRANCHES:
            raise InvalidPovm(f"meta branch: expected one of {', '.join(BRANCHES)}")
        _numbers(meta["success"], (), "meta success")
        block = doc["sequential"]
        pieces = [
            (_from_json(block["alice"][label], (3, 3), f"alice {label}"),
             _from_json(block["bob"][label], (4, 3, 3), f"bob {label}"))
            for label in LABELS
        ]
        alice, bob = (np.stack(stack) for stack in zip(*pieces))
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidPovm(f"missing or malformed field: {exc}") from exc

    povm = Povm(outcomes=outcomes, labels=OUTCOME_LABELS)
    seq = SequentialMeasurement(alice=alice, bob=bob, weights=weights, branch=branch)
    return LoadedMeasurement(povm=povm, seq=seq, meta=meta)
