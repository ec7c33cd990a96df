"""Exception hierarchy.

Every exception carries a stable machine-readable ``code`` so the CLI can
mirror library errors into structured error documents.
"""


def printable(x) -> str:
    """str(x), or a fixed text where str() refuses an int past the digit limit."""
    try:
        return str(x)
    except ValueError:
        return "<a number too long to print>"


class LatticeError(Exception):
    """Base class for all library errors."""

    code = "lattice_error"

    def __init__(self, message: str = "", **payload):
        super().__init__(message or self.__doc__)
        self.payload = payload


class RankMismatch(LatticeError):
    """Vector or matrix dimensions disagree with the host rank."""

    code = "rank_mismatch"


class NotNegativeDefinite(LatticeError):
    """Operation requires a negative definite lattice."""

    code = "not_negative_definite"


class NotPositive(LatticeError):
    """Operation requires a vector of positive self-intersection."""

    code = "not_positive"


class NotIsotropic(LatticeError):
    """Operation requires a vector of square zero."""

    code = "not_isotropic"


class NotOrthogonal(LatticeError):
    """Transvection data must satisfy u.a = 0."""

    code = "not_orthogonal"


class ParityFailure(LatticeError):
    """Half of an odd square appeared where an integer is required."""

    code = "parity_failure"


class NotPrimitive(LatticeError):
    """Vector coordinates have a common divisor > 1."""

    code = "not_primitive"


class NegativeNorm(LatticeError):
    """Canonical forms are only defined for squares >= 0."""

    code = "negative_norm"


class UnsupportedLattice(LatticeError):
    """Host lattice lacks the U + U + (even unimodular) block shape."""

    code = "unsupported_lattice"


class InvalidPeriod(LatticeError):
    """Period data violates one of its defining identities."""

    code = "invalid_period"

    def __init__(self, reason: str, **payload):
        super().__init__(f"invalid period data: {reason}", **payload)
        self.reason = reason


class NotLagrangian(LatticeError):
    """Class pairs nontrivially with the Kaehler direction."""

    code = "not_lagrangian"


class TypeOneOne(LatticeError):
    """gamma.theta = 0: the class is already of type (1,1)."""

    code = "type_one_one"


class FormalOmegaUnsupported(LatticeError):
    """Phase and rotation operations need a rational Kaehler direction."""

    code = "formal_omega_unsupported"


class ZeroOmega(LatticeError):
    """The Kaehler direction must be nonzero."""

    code = "zero_omega"


class ZeroVector(LatticeError):
    """A nonzero vector is required."""

    code = "zero_vector"


class NotMember(LatticeError):
    """Vector does not belong to the given sublattice."""

    code = "not_member"


class NotCoupled(LatticeError):
    """The isotropic vector pairs to zero with the auxiliary class."""

    code = "not_coupled"


class HasPositive(LatticeError):
    """Split decomposition requires the absence of positive vectors."""

    code = "has_positive"


class ImpossibleState(LatticeError):
    """Internal consistency violation; indicates a bug, not bad input."""

    code = "impossible_state"


class NotDecomposable(LatticeError):
    """The class cannot be written over generators of square >= -2."""

    code = "not_decomposable"


class NotRealizable(LatticeError):
    """Sublattice fails the proper/saturated/positive-complement test."""

    code = "not_realizable"


class WrongSide(LatticeError):
    """The isotropic class pairs non-positively with the Kaehler class."""

    code = "wrong_side"


class DegenerateLattice(LatticeError):
    """Operation requires a nondegenerate ambient lattice."""

    code = "degenerate_lattice"


class AnswerTooLarge(LatticeError):
    """An integer in the answer has more decimal digits than the wire allows."""

    code = "answer_too_large"
