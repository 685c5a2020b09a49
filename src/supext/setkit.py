"""Bit-encoded subsets and set families over a small finite ground set.

Points are 0-indexed; a subset of an n-point ground set is an int mask
with bit i standing for point i.  A family is a 2^n-bit family bitset,
bit A standing for the subset with mask A, or an ``Antichain`` of its
minimal members, kept in the canonical (cardinality, mask) order, which
makes every enumeration downstream deterministic and diffable.

Every layer reads family bitsets through the private helpers here: the
sets one point above the members, the members' complements, the sets in
canonical order, and the subsets of a set.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import InputError, TooLarge, Value

# All family-level operations stay exact and fast up to this width, on
# ground sets and on finite spaces (embed); enumeration of maximal linked
# systems is capped separately (see superext).
MAX_GROUND = 16


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_key(mask: int) -> tuple[int, int]:
    return (popcount(mask), mask)


def _ascending(masks: Sequence[int]) -> bool:
    """Whether ``masks`` rise strictly in canonical order, which also rules
    out repeats; only neighbours are compared."""
    keys = list(map(canonical_key, masks))
    return all(p < q for p, q in zip(keys, keys[1:]))


class GroundSet(Value, namedtuple("GroundSet", "n")):
    """An n-point ground set, n >= 1.

    Finite compact Hausdorff spaces are discrete, so every subset is
    closed; the ground set is all the topology we need here.
    """

    __slots__ = ()

    def __init__(self, n: int) -> None:
        if n < 1:
            raise InputError("ground set must have at least one point")
        if n > MAX_GROUND:
            raise TooLarge(f"ground set size {n} exceeds {MAX_GROUND}")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def points(self) -> range:
        return range(self.n)

    def check_point(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise InputError(f"point {x} outside ground set of size {self.n}")

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full:
            raise InputError(f"mask {mask:#x} uses bits outside ground set")

    def nonempty_subsets(self) -> range:
        return range(1, self.full + 1)


def check_injection(image: Sequence[int], n: int, ambient: int, field: str) -> None:
    """Refuse ``image`` unless it sends n points to distinct points of range(ambient)."""
    if len(image) != n or len(set(image)) != n or not all(0 <= y < ambient for y in image):
        raise InputError(f"{field} must be an injection of {n} points into {ambient}, got {list(image)}")


class SetFamily(Value, namedtuple("SetFamily", "ground masks")):
    """A duplicate-free, canonically ordered family of subsets: the checked
    input of ``superext.complete_linked``.  Every other family operation
    works on masks and family bitsets."""

    __slots__ = ()

    def __init__(self, ground: GroundSet, masks: tuple[int, ...]) -> None:
        for m in masks:
            ground.check_mask(m)
        if not _ascending(masks):
            raise InputError("family masks must be duplicate-free and canonically ordered")

    @classmethod
    def of(cls, ground: GroundSet, masks: Iterable[int]) -> "SetFamily":
        return cls(ground, tuple(sorted(set(masks), key=canonical_key)))


class PointMap(Value, namedtuple("PointMap", "dom cod image")):
    """A total map between ground sets, image[x] = f(x)."""

    __slots__ = ()

    def __init__(self, dom: GroundSet, cod: GroundSet, image: tuple[int, ...]) -> None:
        if len(image) != dom.n:
            raise InputError("point map must assign every domain point")
        for y in image:
            cod.check_point(y)

    def __call__(self, x: int) -> int:
        self.dom.check_point(x)
        return self.image[x]

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.cod.n

    def image_mask(self, mask: int) -> int:
        out = 0
        for x in bits(mask):
            out |= 1 << self.image[x]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for x in range(self.dom.n):
            if mask >> self.image[x] & 1:
                out |= 1 << x
        return out

    @classmethod
    def identity(cls, ground: GroundSet) -> "PointMap":
        return cls(ground, ground, tuple(range(ground.n)))

    def compose(self, inner: "PointMap") -> "PointMap":
        """self after inner: x -> self(inner(x))."""
        if inner.cod != self.dom:
            raise InputError("maps not composable")
        return PointMap(inner.dom, self.cod, tuple(self.image[y] for y in inner.image))


def _down(m: int) -> int:
    """The subsets of ``m``, as a family bitset."""
    word = 1  # the empty set
    for x in bits(m):
        word |= word << (1 << x)
    return word


@functools.lru_cache(maxsize=MAX_GROUND)
def _lacks(n: int) -> tuple[tuple[int, int], ...]:
    """Per point x, the bitset over the 2^n subsets of those lacking x, and 2^x.

    Bit B of a family bitset stands for the subset with mask B, so
    ``(fam & lacks) << step`` adds x to every member lacking it.
    """
    full = (1 << n) - 1
    return tuple((_down(full ^ 1 << x), 1 << x) for x in range(n))


@functools.lru_cache(maxsize=MAX_GROUND)
def _supersets(n: int) -> tuple[int, ...]:
    """Per subset s, the bitset over the 2^n subsets of the supersets of s."""
    return tuple(up_closure((s,), n) for s in range(1 << n))


@functools.lru_cache(maxsize=MAX_GROUND)
def _disjoint(n: int) -> tuple[int, ...]:
    """Per subset s, the bitset over the 2^n subsets of those disjoint from s.

    A family bitset meets ``_disjoint(n)[s]`` iff one of its members is disjoint from s.
    """
    full = (1 << n) - 1
    return tuple(_down(full ^ s) for s in range(full + 1))


def _covered(fam: int, n: int) -> int:
    """The sets T | {x} for each member T of ``fam`` that lacks the point x."""
    covered = 0
    for lacks, step in _lacks(n):
        covered |= (fam & lacks) << step
    return covered


# each byte with its 8 bits in reverse order
_FLIP = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _complements(fam: int, n: int) -> int:
    """The complements of the members: bit A moves to bit 2^n - 1 - A, so the
    2^n-bit word is reversed, byte by byte (below n = 3, within one byte)."""
    size = 1 << n
    nbytes = (size + 7) // 8
    return int.from_bytes(fam.to_bytes(nbytes, "little").translate(_FLIP), "big") >> (8 * nbytes - size)


@functools.lru_cache(maxsize=MAX_GROUND)
def _levels(n: int) -> tuple[int, ...]:
    """Per size k, the bitset over the 2^n subsets of those with k points."""
    levels = [1]  # on no points: the empty set
    for x in range(n):
        # a subset of points 0..x has x or not
        levels = [lo | hi << (1 << x) for lo, hi in zip(levels + [0], [0] + levels)]
    return tuple(levels)


def _canonical(word: int, n: int) -> tuple[int, ...]:
    """The sets of a family bitset in canonical order: by size, then by mask."""
    out = []
    for level in _levels(n):
        sets = word & level
        if sets:
            word ^= sets
            while sets:
                low = sets & -sets
                out.append(low.bit_length() - 1)
                sets ^= low
            if not word:
                break
    return tuple(out)


def up_closure(masks: Iterable[int], n: int) -> int:
    """The up-closure of ``masks`` within an n-point ground, as a family bitset."""
    fam = 0
    for m in masks:
        fam |= 1 << m
    for lacks, step in _lacks(n):
        fam |= (fam & lacks) << step
    return fam


def minimal_members(fam: int, n: int) -> tuple[int, ...]:
    """The minimal members of an up-closed family bitset, in canonical order.

    In an up-closed family a member is minimal iff removing any one of its
    points leaves the family, so the non-minimal members are exactly the
    covered sets.
    """
    return _canonical(fam & ~_covered(fam, n), n)


def is_self_dual_upclosed(fam: int, n: int) -> bool:
    """Up-closed, empty-set-free, and containing exactly one of A / complement(A).

    This is the combinatorial characterization of maximal linked
    families on a finite discrete space: no covered set lies outside the
    family, and the family and its complements together hold every set
    exactly once.
    """
    return not fam & 1 and not _covered(fam, n) & ~fam and fam ^ _complements(fam, n) == (1 << (1 << n)) - 1


def _plus_columns(minimals: Iterable[tuple[int, ...]], n: int) -> list[int]:
    """Column f, for every subset f of an n-point ground: the bitset over a
    nonempty carrier of antichains with bit i set iff family i contains f.

    One row per family, last family first: its up-closure as 2^n binary
    digits, subset f at digit 2^n - 1 - f.  Digit string f of the
    transposed table, read as a binary number, is then column f.
    """
    size = 1 << n
    rows = [format(up_closure(m, n), f"0{size}b") for m in minimals][::-1]
    columns = list(zip(*rows))
    return [int("".join(columns[size - 1 - f]), 2) for f in range(size)]


@functools.lru_cache(maxsize=256)
def _preimage_table(image: tuple[int, ...], m: int) -> tuple[int, ...]:
    """preimage_mask(B) of the map with this image, for every B below 2^m."""
    pm = PointMap(GroundSet(len(image)), GroundSet(m), image)
    return tuple(pm.preimage_mask(b) for b in range(1 << m))


def _pushforward_bits(pm: PointMap, minimal: Iterable[int]) -> int:
    """{B : preimage(B) in the up-closure of ``minimal``}, as a bitset over pm.cod."""
    up = up_closure(minimal, pm.dom.n)
    out = 0
    for b, pre in enumerate(_preimage_table(pm.image, pm.cod.n)):
        if up >> pre & 1:
            out |= 1 << b
    return out


def _image_bits(pm: PointMap, minimal: Iterable[int]) -> int:
    """The up-closure of {pm(F) : F in ``minimal``}, as a bitset over pm.cod."""
    return up_closure((pm.image_mask(m) for m in minimal), pm.cod.n)


class Antichain(Value, namedtuple("Antichain", "ground minimal")):
    """An up-closed family of nonempty subsets, stored as its minimal antichain.

    The members must be nonempty subsets of the ground set, canonically
    ordered and pairwise incomparable.  A subclass that sets ``linked``
    also requires them to meet pairwise.  Order is checked on neighbouring
    members; each other rule is one test on the members' family bitset and
    its up-closure, with no pair of members compared: no member lies one
    point above a set of the up-closure, and no member has its complement
    in it.
    """

    __slots__ = ()
    linked = False

    def __init__(self, ground: GroundSet, minimal: tuple[int, ...]) -> None:
        if not minimal:
            raise InputError("an antichain needs at least one member")
        full = ground.full
        fam = 0
        for a in minimal:
            if not 0 < a <= full:
                raise InputError(f"member {a:#x} is empty or leaves the ground set")
            fam |= 1 << a
        n = ground.n
        if not _ascending(minimal):
            raise InputError("minimal members must be canonically ordered")
        up = up_closure(minimal, n)
        # a member above another member is one point above the up-closure
        if fam & _covered(up, n):
            raise InputError("minimal members must form an antichain")
        # a member disjoint from another member has its complement above it
        if self.linked and up & _complements(fam, n):
            raise InputError("minimal members must be pairwise intersecting")

    def contains(self, mask: int) -> bool:
        """Membership of a subset in the full (up-closed) family; for many
        subsets, read the up-closure word ``up_closure(self.minimal, n)`` once."""
        return any(m & mask == m for m in self.minimal)

    def is_maximal_linked(self) -> bool:
        """Whether the full family is a maximal linked system (exponential in n)."""
        n = self.ground.n
        return is_self_dual_upclosed(up_closure(self.minimal, n), n)


_A = TypeVar("_A", bound=Antichain)


def _trusted(cls: type[_A], ground: GroundSet, minimals: list[tuple[int, ...]]) -> tuple[_A, ...]:
    """Antichains of class ``cls`` from minimal members that the caller built
    and checked itself, made in place of them in the list.

    The objects skip ``__init__``, whose bitset tests validate outside input.
    """
    new = tuple.__new__
    for i, minimal in enumerate(minimals):
        minimals[i] = new(cls, (ground, minimal))
    return tuple(minimals)
