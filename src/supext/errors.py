"""The check result and the input errors shared by all supext modules."""

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
