"""Exception hierarchy and the check result shared by all supext modules."""

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


class SupextError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SupextError):
    """Malformed input file or CLI argument."""


class PointOutOfRange(InputError):
    """A point or a subset mask outside the ground set."""


class GroundMismatch(SupextError):
    pass


class NotLinked(SupextError):
    pass


class EmptySet(SupextError):
    pass


class EqualSystems(SupextError):
    pass


class InSubspace(SupextError):
    pass


class Inconsistent(SupextError):
    pass


class NotSurjective(SupextError):
    pass


class NotAnExtender(SupextError):
    pass


class TooLarge(InputError):
    """An input above a size cap, refused before any work on it starts."""


class InvalidOperator(SupextError):
    pass


class CarrierMismatch(SupextError):
    pass


class NotUsco(SupextError):
    pass


class NotPointFixed(SupextError):
    pass


class UnknownSuite(InputError):
    pass
