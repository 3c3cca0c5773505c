"""Exception types shared across the library, the one integer-input rule, and
_shown, the one way a message shows a caller's value.

Every domain error derives from KnotcertError so callers (and the CLI) can
distinguish invalid mathematical input from genuine bugs.  Both helpers sit
in this lowest layer so that every module can use them.
"""

import operator
from typing import Iterable


class KnotcertError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParams(KnotcertError, ValueError):
    """Arguments violate a documented precondition (coprimality, parity, range...)."""


class IntegralityFailure(KnotcertError, ArithmeticError):
    """R's cotangent sum missed its proven error bound around r_exact: a broken
    kernel, never a non-integral R (R is 1 or -1, lemma L4)."""


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
        raise InvalidParams(f"{name} must be an integer, got {_shown(bad, repr)}") from None


def _shown(value, show=str) -> str:
    """show(value), str or repr, for a message.  A tuple shows its items by repr,
    and a value that cannot be printed (an int past the 4,300-digit print limit)
    shows its type and its numerator's bit length, so no message raises."""
    if type(value) is tuple:  # as repr shows it: "()", "(x,)" or "(x, y)"
        return f"({', '.join(_shown(v, repr) for v in value)}{',' * (len(value) == 1)})"
    try:
        return show(value)
    except Exception:
        bits = getattr(getattr(value, "numerator", None), "bit_length", None)
        return f"<{type(value).__name__} of {bits()} bits>" if bits else f"<unprintable {type(value).__name__}>"
