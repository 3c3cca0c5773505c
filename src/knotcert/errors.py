"""The layer every module shares: the exception types, the one integer-input
rule and its sequence rule, _shown (the one way a message shows a caller's
value), _Value (the base of every value type) and Definiteness.

Every domain error derives from KnotcertError so callers (and the CLI) can
distinguish invalid mathematical input from genuine bugs.  All of it sits in
this lowest layer so that every module can use it without loading another.
"""

import operator
from collections.abc import Iterable
from enum import Enum


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


def _sequence(values: Iterable, name: str) -> tuple:
    """values as a tuple, or InvalidParams naming them when values is not
    iterable (an int where a sequence belongs)."""
    try:
        return tuple(values)  # an iterator is read once; a tuple is not copied
    except TypeError:
        try:
            iter(values)
        except TypeError:
            raise InvalidParams(f"{name} must come in a sequence, got {_shown(values, repr)}") from None
        raise


def _validate_ints(values: Iterable, name: str) -> list[int]:
    """The one rule for integer input: each value passes operator.index, so
    int, bool and numpy integers become ints, and a float, str or Fraction
    raises InvalidParams instead of being truncated.  So does values itself
    when it is not iterable (_sequence)."""
    values = _sequence(values, name)
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


class Definiteness(Enum):
    """Sign type of a symmetric integer bilinear form."""

    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"

    def __str__(self) -> str:
        return self.value


class _Value:
    """Base of the value types: immutable, equal and hashed field by field.

    A subclass lists its fields in __slots__, and its __init__ validates them
    and stores them with one _set call; copy and pickle go through _rebuilt.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuilt, (type(self), self._values())


def _rebuilt(cls: type, values: tuple) -> _Value:
    """A value of cls with these fields, as copy and pickle rebuild it."""
    value = object.__new__(cls)
    value._set(*values)
    return value
