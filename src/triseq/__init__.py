"""Sequential unambiguous discrimination of three symmetric pure states.

Given the two complex overlaps characterizing a symmetric ternary
ensemble on a bipartite system, this package decides whether a local
measure-and-relay strategy (Alice first, Bob conditioned on her result)
can match the globally optimal unambiguous measurement, constructs the
measurement when it can, and certifies the construction independently.
"""

from .errors import (
    CertificateViolation,
    DegenerateStates,
    DomainError,
    InvalidPovm,
    NoCanonicalForm,
    NonHermitian,
    NotGloballyOptimal,
    RankDeficient,
    SingularSystem,
    TriseqError,
    ZeroOperator,
)
from .geometry import (
    PlanePoint,
    Triangle,
    chord_ratio,
    chord_ratio_limit,
    diagonal_point,
    identity_membership,
    in_triangle,
    level_curve,
    level_vector,
    outcome_triangle,
)
from .multipartite import check_copies_psk, check_multipartite
from .numerics import TOL, Tolerances, hermitian_eigen
from .optimality import BRANCHES, OptimalityReport, check_global_optimality
from .povm import (
    LABELS,
    CertificateReport,
    LoadedMeasurement,
    Povm,
    PovmCheck,
    SequentialMeasurement,
    StateVectors,
    binary_unambiguous,
    build_sequential,
    construct,
    dual_certificate,
    flatten,
    frame,
    joint_states,
    load_povm,
    sample_outcomes,
    save_povm,
    solve_weights,
    state_vectors,
    ternary_unambiguous,
    verify_povm,
    verify_unambiguous,
)
from .states import (
    CanonicalPair,
    Transform,
    amplitudes_from_overlap,
    canonicalize,
    coherent_overlap,
    lifted_trine_overlap,
    ppm_overlap,
    psk_overlap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
