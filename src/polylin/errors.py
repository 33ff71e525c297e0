"""Typed errors shared across the package."""


class PolylinError(Exception):
    """Base class for all library errors."""


class InputError(PolylinError):
    """Malformed or unreadable input (CLI exit code 2)."""


class PreconditionError(PolylinError):
    """A documented precondition was violated (CLI exit code 3)."""


class DimensionMismatch(PreconditionError):
    pass


class DuplicateNodes(PreconditionError):
    pass


class ZeroAlpha(PreconditionError):
    pass


class GradeTooSmall(PreconditionError):
    pass


class WrongBasis(PreconditionError):
    pass


class NotUnimodular(PreconditionError):
    pass


class GenericityFailure(PreconditionError):
    """The leading coefficient block is singular, so the generic
    triangular construction does not apply."""


class SingularAtOne(PreconditionError):
    """P(1) is singular; the strict-equivalence route has no such
    restriction and should be used instead."""


class SingularNodeValue(PreconditionError):
    """Some interpolation value P(tau_k) is singular."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"matrix value at node index {k} is singular")


class ConjectureFailure(PolylinError):
    """A general-size closed form could not be carried through (a linear
    system without a solution, or a factor to invert that is singular or
    not unimodular); nothing was returned."""
