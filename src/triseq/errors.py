"""Exception types shared across the package."""


class TriseqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TriseqError):
    """A parameter lies outside its physical range."""


class DegenerateStates(TriseqError):
    """Overlap magnitude at (or numerically at) 1: the states coincide."""


class RankDeficient(TriseqError):
    """No three states with this overlap span the space: a squared amplitude
    is exactly zero, or it is negative and no states have the overlap."""


class NoCanonicalForm(TriseqError):
    """No symmetry transform separates Bob's amplitudes; only happens
    when his overlap is (numerically) zero."""


class NonHermitian(TriseqError):
    """Matrix handed to a Hermitian routine is not Hermitian within tolerance;
    `index` is the first failing matrix of a stack, in C order."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularSystem(TriseqError):
    """A denominator of the measurement-weight closed form is exactly zero."""


class NotGloballyOptimal(TriseqError):
    """No globally optimal sequential measurement exists for this pair."""


class InvalidPovm(TriseqError):
    """Operator set fails a structural POVM requirement."""


class CertificateViolation(TriseqError):
    """A dual-certificate check failed; message names the label and margin."""


class ZeroOperator(TriseqError):
    """Operator with (numerically) zero trace cannot be projected to the
    diagonal simplex."""
