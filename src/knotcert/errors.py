"""Exception types shared across the library, and the one integer-input rule.

Every domain error derives from KnotcertError so callers (and the CLI) can
distinguish invalid mathematical input from genuine bugs.  The integer rule
sits in this lowest layer so that every module can apply it.
"""

import operator
from typing import Iterable


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


def _validate_ints(values: Iterable, name: str) -> list[int]:
    """The one rule for integer input: each value passes operator.index, so
    int, bool and numpy integers become ints, and a float, str or Fraction
    raises InvalidParams instead of being truncated."""
    values = tuple(values)  # an iterator is read once; a tuple is not copied
    try:
        return list(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(type(v), "__index__")), None)
        raise InvalidParams(f"{name} must be an integer, got {bad!r}") from None
