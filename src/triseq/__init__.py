"""Sequential unambiguous discrimination of three symmetric pure states.

Given the two complex overlaps characterizing a symmetric ternary
ensemble on a bipartite system, this package decides whether a local
measure-and-relay strategy (Alice first, Bob conditioned on her result)
can match the globally optimal unambiguous measurement, constructs the
measurement when it can, and certifies the construction independently.

`import triseq` loads only the numpy-free modules (errors, numerics,
states, optimality, multipartite, serialize), so a decision runs without
numpy.  The names of `povm` and `geometry`, and those modules themselves,
resolve on first access through the module `__getattr__` (PEP 562); that
first access imports the module and numpy with it.
"""

from . import serialize
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
from .multipartite import check_copies_psk, check_multipartite
from .numerics import TOL, Tolerances, hermitian_eigen
from .optimality import BRANCHES, OptimalityReport, check_global_optimality
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

# public name -> the numpy module defining it, imported on first access
_LAZY = dict.fromkeys((
    "PlanePoint",
    "Triangle",
    "chord_ratio",
    "chord_ratio_limit",
    "diagonal_point",
    "identity_membership",
    "in_triangle",
    "level_curve",
    "level_vector",
    "outcome_triangle",
), "geometry") | dict.fromkeys((
    "LABELS",
    "CertificateReport",
    "LoadedMeasurement",
    "Povm",
    "PovmCheck",
    "SequentialMeasurement",
    "StateVectors",
    "binary_unambiguous",
    "build_sequential",
    "construct",
    "dual_certificate",
    "flatten",
    "frame",
    "joint_states",
    "load_povm",
    "sample_outcomes",
    "save_povm",
    "solve_weights",
    "state_vectors",
    "ternary_unambiguous",
    "verify_povm",
    "verify_unambiguous",
), "povm") | {"geometry": "geometry", "povm": "povm"}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
