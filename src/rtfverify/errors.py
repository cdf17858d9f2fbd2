"""Exception types shared across the toolkit."""


class RTFError(Exception):
    """Base class for all toolkit errors."""


class InputError(RTFError, ValueError):
    """An argument lies outside the domain its function accepts; the message
    names the argument and its value."""


class CoprimalityError(RTFError):
    """An ideal meets a prime set it was required to avoid."""


class DomainError(RTFError):
    """Evaluation requested outside a declared domain."""


class NonRationalPower(RTFError):
    """norm(n)^t is irrational but exact arithmetic was requested."""


class InertViolation(RTFError):
    """A prime dividing the level is not inert for the quadratic character."""


class SignClassError(RTFError):
    """The level lies in the wrong sign class for the requested main term."""


class ConvergenceError(RTFError):
    """A numeric oracle failed its self-consistency refinement check."""

    which: int | None = None    # the quad_many integral whose own refinement failed


class UnsupportedField(RTFError):
    """Only the rational field and real quadratic fields are supported."""
