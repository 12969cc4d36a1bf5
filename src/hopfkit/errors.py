"""Exception hierarchy.

Two families matter to callers (and to the CLI's exit codes):

* ``InputError`` -- the input itself is malformed or out of bounds
  (bad files, bad shapes, unknown names, refused search sizes);
* ``MathFailure`` -- the input is well-formed but the mathematics says no
  (a law fails, a map is not invertible, a precondition of a theorem does
  not hold on this instance).
"""
from __future__ import annotations


class HopfkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(HopfkitError):
    """Malformed or out-of-bounds input (CLI exit code 2)."""


class MathFailure(HopfkitError):
    """A mathematical condition failed on well-formed input (CLI exit code 1);
    ``report`` is the check report that shows it, if there is one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# -- input family -----------------------------------------------------------

class ShapeMismatch(InputError):
    """Tensor shapes do not line up factor-wise."""


class BoundExceeded(InputError):
    """A search or enumeration exceeds its configured budget."""


class InvalidGroupTable(InputError):
    """A multiplication table is not a group."""


class InvalidAction(InputError):
    """A purported group action is not by automorphisms / not an action."""


class UnknownGroup(InputError):
    """Group name not in the built-in catalog."""


class CharTwo(InputError):
    """Construction undefined in characteristic 2."""


class ParseError(InputError):
    """Structure file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownKind(InputError):
    """Structure kind is not one of hopf/truss/wtph/wtrb."""


class DomainMismatch(InputError):
    """A constructor was applied to a structure kind outside its domain."""


# -- math family --------------------------------------------------------------

class LawViolation(MathFailure):
    """A construction's self-check failed; carries the offending report."""


class NotInvertible(MathFailure):
    """A map has no (convolution or composition) inverse."""


class NoAntipode(NotInvertible):
    """The identity has no convolution inverse: not a Hopf algebra."""


class TNotInvertible(NotInvertible):
    """The operator of a Rota-Baxter structure is not an isomorphism."""


class NonSymmetricBraiding(MathFailure):
    """A duality-based construction needs the flip braiding."""


class PreconditionNotMet(MathFailure):
    """A theorem hypothesis fails on this instance."""


class ClassConditionFailed(PreconditionNotMet):
    """The cocommutativity-class condition fails, so the functor refuses."""


class NotCocommutative(PreconditionNotMet):
    pass


class NotIdempotent(MathFailure):
    """Asked to split a map that is not idempotent."""


class ConditionBFailed(MathFailure):
    """The idempotent-product condition fails for the supplied q."""


class NotPhiTwisted(MathFailure):
    """The twisted-operator identity fails for the supplied maps."""


class NotATrussMorphism(MathFailure):
    """A supplied map is not a truss morphism; carries the report."""


class NotAnRBMorphism(MathFailure):
    """A supplied pair is not a morphism of operators; carries the report."""
