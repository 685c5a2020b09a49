"""The check result, the input errors shared by all supext modules, and the
reads of JSON integer and list fields that raise them."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Outcome of a property check: it holds, or it fails with a witness.

    ``axiom`` names the failed property and ``witness`` is the offending
    input; both stay None when the check passes.
    """

    ok: bool
    axiom: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


class InputError(Exception):
    """A caller's arguments break a precondition: bad input, never a failed check.

    The CLI exits 2 on it.  A mathematical failure is not an exception: it
    is a ``Check`` or a report entry that carries its witness.
    """


class TooLarge(InputError):
    """An input above a size cap, refused before any work on it starts."""


def json_int(value: object, field: str) -> int:
    """A JSON integer read from an input file; a float, a bool or a string is an input error."""
    if type(value) is not int:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def json_list(value: object, field: str) -> list:
    """A JSON list read from an input file; a string or a number is an input error."""
    if type(value) is not list:
        raise InputError(f"{field} must be a list, got {value!r}")
    return value
