"""Exception types shared across the package."""

from __future__ import annotations


class QAlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateQ(QAlgebraError):
    """q - 1/q is (numerically) zero, so q-numbers are undefined."""


class BadModulus(QAlgebraError):
    """Invalid root-of-unity order (p in {1, 2} or non-primitive exponent)."""


class BadParam(QAlgebraError):
    """A family parameter violates its constructor's domain."""


class BadRange(QAlgebraError):
    """A dimension/label parameter is outside the admissible range."""


class BadParity(QAlgebraError):
    """A label has the wrong integer/half-odd parity for the family."""


class BadDescriptor(QAlgebraError):
    """Unknown component-family descriptor."""


class ParityMismatch(QAlgebraError):
    """Component descriptor does not match the parity of p' in the context."""


class CtxMismatch(QAlgebraError):
    """Operands were built over different deformation contexts."""


class EmptyWindow(QAlgebraError):
    """A truncation window contains no basis labels."""


class SpecialEpsilon(QAlgebraError):
    """The basis offset hits a special value handled by a dedicated constructor."""


class SingularBasisChange(QAlgebraError):
    """A basis change is numerically singular: a diagonal rescaling factor
    vanishes, or a first generator has no well-conditioned eigenbasis."""


class NoSolution(QAlgebraError):
    """An oracle has nothing to work from: no simple eigenvalue to spin from."""


class NotExtendable(QAlgebraError):
    """The operators q^k*K + q^{-k}*Kinv are not all invertible.

    Carries the failing (k, eigenvalue) pair as ``witness`` when known.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
