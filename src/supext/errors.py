"""The base of supext's value types, the check result, the input errors
shared by all supext modules, the one reader of input files, the reads
of JSON integer, rational, list and hex-mask fields that raise them, and
the one writer of each text kind: exact rationals and hex masks."""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


class Value(tuple):
    """The base of every supext value type: an immutable tuple of its fields.

    A value type also derives from a ``namedtuple`` of its fields, which
    reads each field through a property that cannot be assigned, and
    validates its arguments in its own ``__init__``; one that normalises a
    field (to Fractions, to sorted order) does so in ``__new__``, and its
    ``__init__`` validates the stored field.  A value equals only a
    value of the same class, never a plain tuple or a value of a sibling
    class with the same fields; equal values are equal tuples, so the
    tuple's hash agrees with this equality.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class Check(Value, namedtuple("Check", "ok axiom witness", defaults=(None, None))):
    """Outcome of a property check: it holds, or it fails with a witness.

    ``axiom`` names the failed property and ``witness`` is the offending
    input; both stay None when the check passes.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class InputError(Exception):
    """A caller's arguments break a precondition: bad input, never a failed check.

    The CLI exits 2 on it.  A mathematical failure is not an exception: it
    is a ``Check`` or a report entry that carries its witness.
    """


class TooLarge(InputError):
    """An input above a size cap, refused before any work on it starts."""


def read_json(data: bytes | str, what: str, build: Callable[[object], object]):
    """``build`` applied to an input file read as JSON.  Bytes that do not
    decode, text that is not JSON and a missing or mistyped field are all
    "malformed <what>"; an ``InputError`` from ``build`` passes through."""
    try:
        return build(json.loads(data))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def json_int(value: object, field: str) -> int:
    """A JSON integer read from an input file; a float, a bool or a string is an input error."""
    if type(value) is not int:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


# The written forms of an exact rational: an integer, "p/q" or a decimal
# such as "-0.25".  Fraction also reads an exponent, and builds the value of
# "1e10000000" digit by digit (15 s) before any size check can run, so a
# string is matched against these forms first.
_RATIONAL = re.compile(r"\s*[+-]?(\d+(/\d+|\.\d*)?|\.\d+)\s*")


def parse_rational(text: str, field: str) -> Fraction:
    """An exact rational written as an integer, "p/q" or a decimal; any
    other string, an exponent or a zero denominator is an input error."""
    from fractions import Fraction  # here: most commands read no rationals

    if not _RATIONAL.fullmatch(text):
        raise InputError(f"bad rational {text!r} in {field}: write an integer, p/q or a decimal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r} in {field}: {exc}") from exc


def _exact(value: Fraction) -> str:
    """An exact rational as text.  Python writes no integer of more digits
    than its conversion limit, so a rational past it is refused."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"result has more than {limit} digits, the integer string conversion limit") from None


def json_rational(value: object, field: str) -> Fraction:
    """An exact rational read from an input file: a string that
    ``parse_rational`` reads, or an integer; a float or a bool is an input error."""
    if type(value) is str:
        return parse_rational(value, field)
    if type(value) is not int:
        raise InputError(f"{field} must be a rational string or an integer, got {value!r}")
    from fractions import Fraction

    return Fraction(value)


def json_list(value: object, field: str) -> list:
    """A JSON list read from an input file; a string or a number is an input error."""
    if type(value) is not list:
        raise InputError(f"{field} must be a list, got {value!r}")
    return value


def hex_mask(mask: int) -> str:
    """A subset mask as report text: lower-case hex digits, no prefix."""
    return format(mask, "x")


def hex_masks(masks: Iterable[int]) -> list[str]:
    """A list of masks, each written by ``hex_mask``."""
    return list(map(hex_mask, masks))


# The digits hex_mask writes; int(s, 16) alone also reads a sign, "0x",
# "_", spaces, upper case and other scripts' digits.
_MASK = re.compile(r"[0-9a-f]+")


def json_mask(value: object, field: str) -> int:
    """A subset mask read from an input file: a JSON string of the hex
    digits 0-9a-f, leading zeros allowed; anything else is an input error."""
    if type(value) is not str or not _MASK.fullmatch(value):
        raise InputError(f"a mask in {field} must be hex digits 0-9a-f, got {value!r}")
    return int(value, 16)


def json_masks(value: object, field: str) -> tuple[int, ...]:
    """A JSON list of masks, each read by ``json_mask``."""
    return tuple(json_mask(s, field) for s in json_list(value, field))
