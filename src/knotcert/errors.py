"""Exception types shared across the library.

Every domain error derives from KnotcertError so callers (and the CLI) can
distinguish invalid mathematical input from genuine bugs.
"""


class KnotcertError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParams(KnotcertError, ValueError):
    """Arguments violate a documented precondition (coprimality, parity, range...)."""


class IntegralityFailure(KnotcertError, ArithmeticError):
    """A quantity expected to round to an integer did not, even at maximal precision."""


class UnsupportedSlope(KnotcertError, ValueError):
    """Surgery slope outside the family this library identifies."""


class AllZeroCoefficients(KnotcertError, ValueError):
    """A linear combination needs at least one nonzero coefficient."""
