"""Maximal linked systems and their enumeration.

A maximal linked system on a finite discrete ground set is an up-closed
family of nonempty subsets containing exactly one of every complementary
pair {A, complement(A)}.  We store only the antichain of inclusion-minimal
members; the full family is its up-closure.

Enumeration assigns one side of each complementary pair by backtracking,
pairs ordered small-side-first so the hardest constraints land early.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import ClassVar

from . import parallel
from .errors import EmptySet, GroundMismatch, GroundTooLarge, InputError, NotLinked
from .setkit import (
    Antichain,
    GroundSet,
    PointMap,
    SetFamily,
    _image_bits,
    _is_self_dual_upclosed_bits,
    _minimal_bits,
    _pushforward_bits,
    _up_bits,
    canonical_key,
    is_linked,
)

DEFAULT_MAX_N = 7


def enumeration_cap() -> int:
    raw = os.environ.get("SUPEXT_MAX_N", str(DEFAULT_MAX_N))
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SUPEXT_MAX_N must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class MaxLinkedSystem(Antichain):
    """A maximal linked system, canonically represented by its minimal antichain.

    Construction checks that the antichain is linked (``NotLinked``
    otherwise); ``is_maximal_linked`` checks maximality.
    """

    linked: ClassVar[bool] = True


@dataclass(frozen=True)
class Superextension:
    """All maximal linked systems on a ground set, canonically ordered."""

    ground: GroundSet
    systems: tuple[MaxLinkedSystem, ...]

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)

    def index(self, eta: MaxLinkedSystem) -> int:
        return self.systems.index(eta)


def _pair_order(n: int) -> list[tuple[int, int]]:
    """Complementary pairs {A, A^c}, small side first, hardest pairs earliest."""
    full = (1 << n) - 1
    pairs = []
    for a in range(1, full):
        b = full ^ a
        if canonical_key(a) < canonical_key(b):
            pairs.append((a, b))
    pairs.sort(key=lambda p: canonical_key(p[0]))
    return pairs


def _backtrack(pairs: list[tuple[int, int]], chosen: list[int], stop: int, out: list[tuple[int, ...]]) -> None:
    """Append every linked extension of ``chosen`` by one side of each pair up to index ``stop``."""
    idx = len(chosen)
    if idx == stop:
        out.append(tuple(chosen))
        return
    for s in pairs[idx]:
        if all(s & c for c in chosen):
            chosen.append(s)
            _backtrack(pairs, chosen, stop, out)
            chosen.pop()


def _enum_subtree(args: tuple[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Worker: the minimal antichains of all assignments below a fixed prefix of pair choices."""
    n, prefix = args
    pairs = _pair_order(n)
    full = (1 << n) - 1
    leaves: list[tuple[int, ...]] = []
    _backtrack(pairs, list(prefix), len(pairs), leaves)
    # leaves omit the full set, the only member when n = 1
    return [_minimal_bits(_up_bits(leaf + (full,), n), n) for leaf in leaves]


_SPLIT_DEPTH = 2


def enumerate_mls(ground: GroundSet, workers: int = 1) -> Superextension:
    """Enumerate every maximal linked system on the ground set.

    With workers > 1 the backtracking tree is split at a fixed depth and
    the subtrees are processed independently; the canonical merge makes
    the output identical regardless of scheduling.
    """
    cap = enumeration_cap()
    if ground.n > cap:
        raise GroundTooLarge(f"enumeration capped at n <= {cap} (set SUPEXT_MAX_N to override)")
    pairs = _pair_order(ground.n)
    prefixes: list[tuple[int, ...]] = []
    _backtrack(pairs, [], min(_SPLIT_DEPTH, len(pairs)), prefixes)
    results = parallel.map_chunks(_enum_subtree, [(ground.n, p) for p in prefixes], workers)
    antichains = sorted({ac for chunk in results for ac in chunk})
    systems = tuple(MaxLinkedSystem(ground, ac) for ac in antichains)
    return Superextension(ground, systems)


def eta_point(ground: GroundSet, x: int) -> MaxLinkedSystem:
    """The principal system of all sets containing the point x."""
    ground.check_point(x)
    return MaxLinkedSystem(ground, (1 << x,))


def complete_linked(fam: SetFamily) -> MaxLinkedSystem:
    """Deterministically extend a linked family to a maximal linked system.

    Complementary pairs are visited in canonical order; the side
    consistent with linkedness is added, preferring the numerically
    smaller mask when both sides are consistent.  A linked family never
    dead-ends: once one side conflicts, the other is forced and safe.
    """
    if not is_linked(fam) or 0 in fam.masks:
        raise NotLinked("input family must be linked and free of the empty set")
    n = fam.ground.n
    chosen = list(fam.masks)
    if fam.ground.full not in chosen:
        chosen.append(fam.ground.full)
    for a, b in _pair_order(n):
        lo, hi = (a, b) if a < b else (b, a)
        pick = hi if any(not lo & c for c in chosen) else lo
        if pick not in chosen:
            chosen.append(pick)
    return MaxLinkedSystem(fam.ground, _minimal_bits(_up_bits(chosen, n), n))


def lambda_map(pm: PointMap, eta: MaxLinkedSystem) -> MaxLinkedSystem:
    """Push a system forward along a point map: {B : preimage(B) in eta}."""
    if eta.ground != pm.dom:
        raise GroundMismatch("system does not live on the map's domain")
    fam = _pushforward_bits(pm, eta.minimal)
    if not _is_self_dual_upclosed_bits(fam, pm.cod.n):
        raise NotLinked("pushforward is not a maximal linked system")
    return MaxLinkedSystem(pm.cod, _minimal_bits(fam, pm.cod.n))


def lambda_map_image(pm: PointMap, eta: MaxLinkedSystem) -> MaxLinkedSystem:
    """Image-based pushforward: up-closure of {f(F) : F in eta}.

    Agrees with lambda_map for surjective maps; kept as an independent
    cross-check of the preimage formula.
    """
    if eta.ground != pm.dom:
        raise GroundMismatch("system does not live on the map's domain")
    return MaxLinkedSystem(pm.cod, _minimal_bits(_image_bits(pm, eta.minimal), pm.cod.n))


def plus_set(f_mask: int, lam: Superextension) -> tuple[MaxLinkedSystem, ...]:
    """All systems of the superextension containing the given nonempty set."""
    if f_mask == 0:
        raise EmptySet("plus_set of the empty set is undefined")
    lam.ground.check_mask(f_mask)
    return tuple(eta for eta in lam.systems if eta.contains(f_mask))


EXPECTED_MLS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646, 7: 1422564}
