"""Inclusion hyperspaces: nonempty up-closed families of nonempty subsets.

They strictly contain the maximal linked systems (which are exactly the
self-dual ones) and carry their own functor on point maps, mirroring the
superextension machinery on the same antichain representation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InputError, TooLarge
from .setkit import (
    Antichain,
    GroundSet,
    PointMap,
    _plus_columns,
    _pushforward_bits,
    _supersets,
    _trusted,
    canonical_key,
    minimal_members,
)
from .superext import MaxLinkedSystem

if TYPE_CHECKING:
    from .subbase import Subbase

MAX_IH_GROUND = 5
MAX_GX_GROUND = 4


class InclusionHyperspace(Antichain):
    """An up-closed family of nonempty subsets, stored as its minimal antichain."""

    __slots__ = ()

    def as_mls(self) -> MaxLinkedSystem:
        return MaxLinkedSystem(self.ground, self.minimal)


def enumerate_ih(ground: GroundSet) -> tuple[InclusionHyperspace, ...]:
    """All inclusion hyperspaces, via antichains of nonempty subsets."""
    if ground.n > MAX_IH_GROUND:
        raise TooLarge(f"hyperspace enumeration capped at n <= {MAX_IH_GROUND}")
    n = ground.n
    subsets = sorted(ground.nonempty_subsets(), key=canonical_key)
    supersets = _supersets(n)
    out: list[tuple[int, ...]] = []

    def extend(start: int, chain: list[int], up: int) -> None:
        # ``up`` is the up-closure of ``chain`` as a bitset over the subsets
        if chain:
            out.append(tuple(chain))
        for i in range(start, len(subsets)):
            s = subsets[i]
            # canonical order never puts a superset before its subsets,
            # so only the superset direction needs exclusion
            if up >> s & 1:
                continue
            chain.append(s)
            extend(i + 1, chain, up | supersets[s])
            chain.pop()

    extend(0, [], 0)
    out.sort()
    return _trusted(InclusionHyperspace, ground, out)


def g_map(pm: PointMap, a: InclusionHyperspace) -> InclusionHyperspace:
    """Push a hyperspace forward along a point map: {B : preimage(B) in A}."""
    if a.ground != pm.dom:
        raise InputError("hyperspace does not live on the map's domain")
    return InclusionHyperspace(pm.cod, minimal_members(_pushforward_bits(pm, a.minimal), pm.cod.n))


def candidate_subbase_gx(
    ground: GroundSet,
) -> tuple[Subbase, tuple[InclusionHyperspace, ...]]:
    """A candidate subbase over the enumerated hyperspace carrier.

    Members are the containment sets {A : F in A} for every nonempty F
    and the transversal sets {A : every member of A meets U} for every
    nonempty U.  Emitted for checking, never asserted binary a priori.
    """
    from .subbase import Subbase  # here: ghyper has no use for subbases

    if ground.n > MAX_GX_GROUND:
        raise TooLarge(f"candidate subbase capped at n <= {MAX_GX_GROUND}")
    carrier = enumerate_ih(ground)
    plus = _plus_columns((a.minimal for a in carrier), ground.n)
    subsets = sorted(ground.nonempty_subsets(), key=canonical_key)
    everything = (1 << len(carrier)) - 1
    # a member of an up-closed A misses U iff A holds the complement of U
    members = [plus[f] for f in subsets] + [everything ^ plus[ground.full ^ u] for u in subsets]
    members = [m for m in members if m]
    return Subbase(len(carrier), tuple(members)), carrier
