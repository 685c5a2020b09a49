"""Bit-encoded subsets and set families over a small finite ground set.

Points are 0-indexed; a subset of an n-point ground set is an int mask
with bit i standing for point i.  A family is a 2^n-bit family bitset,
bit A standing for the subset with mask A, or an ``Antichain`` of its
minimal members, kept in the canonical (cardinality, mask) order, which
makes every enumeration downstream deterministic and diffable.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Iterable, Iterator, TypeVar

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


class SetFamily(Value, namedtuple("SetFamily", "ground masks")):
    """A duplicate-free, canonically ordered family of subsets: the checked
    input of ``superext.complete_linked``.  Every other family operation
    works on masks and family bitsets."""

    __slots__ = ()

    def __init__(self, ground: GroundSet, masks: tuple[int, ...]) -> None:
        for m in masks:
            ground.check_mask(m)
        ordered = tuple(sorted(set(masks), key=canonical_key))
        if ordered != masks:
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


def is_linked(fam: SetFamily) -> bool:
    """True iff every pair of members intersects.

    The empty family and singleton families are linked; any family
    containing the empty set is not (the empty set meets nothing).
    """
    ms = fam.masks
    if 0 in ms:
        return False
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if not ms[i] & ms[j]:
                return False
    return True


@functools.lru_cache(maxsize=MAX_GROUND)
def _lacks(n: int) -> tuple[int, ...]:
    """Per point x, the bitset over the 2^n subsets of those not containing x.

    Bit B of a family bitset stands for the subset with mask B, so
    ``(fam & _lacks(n)[x]) << (1 << x)`` adds x to every member lacking it.
    """
    size = 1 << n
    out = []
    for x in range(n):
        word, width = (1 << (1 << x)) - 1, 2 << x
        while width < size:
            word |= word << width
            width <<= 1
        out.append(word)
    return tuple(out)


@functools.lru_cache(maxsize=MAX_GROUND)
def _supersets(n: int) -> tuple[int, ...]:
    """Per subset s, the bitset over the 2^n subsets of the supersets of s."""
    return tuple(up_closure((s,), n) for s in range(1 << n))


def up_closure(masks: Iterable[int], n: int) -> int:
    """The up-closure of ``masks`` within an n-point ground, as a family bitset."""
    fam = 0
    for m in masks:
        fam |= 1 << m
    for x, lacks in enumerate(_lacks(n)):
        fam |= (fam & lacks) << (1 << x)
    return fam


def minimal_members(fam: int, n: int) -> tuple[int, ...]:
    """The minimal members of an up-closed family bitset, in canonical order.

    In an up-closed family a member is minimal iff removing any one of its
    points leaves the family, so the non-minimal members are exactly the
    sets T | {x} with T a member lacking x.
    """
    covered = 0
    for x, lacks in enumerate(_lacks(n)):
        covered |= (fam & lacks) << (1 << x)
    return tuple(sorted(bits(fam & ~covered), key=canonical_key))


def is_self_dual_upclosed(fam: int, n: int) -> bool:
    """Up-closed, empty-set-free, and containing exactly one of A / complement(A).

    This is the combinatorial characterization of maximal linked
    families on a finite discrete space.  Complementation sends bit A to
    bit full ^ A = 2^n - 1 - A, so the complements of the members are the
    2^n-bit word read backwards.
    """
    if fam & 1:
        return False
    for x, lacks in enumerate(_lacks(n)):
        if (fam & lacks) << (1 << x) & ~fam:
            return False
    size = 1 << n
    flipped = int(format(fam, f"0{size}b")[::-1], 2)
    return fam ^ flipped == (1 << size) - 1


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


def up_contains(minimal: tuple[int, ...], mask: int) -> bool:
    """Whether ``mask`` lies in the up-closure generated by ``minimal``."""
    return any(m & mask == m for m in minimal)


class Antichain(Value, namedtuple("Antichain", "ground minimal")):
    """An up-closed family of nonempty subsets, stored as its minimal antichain.

    The members must be nonempty subsets of the ground set, canonically
    ordered and pairwise incomparable.  A subclass that sets ``linked``
    also requires them to meet pairwise; the same scan over the pairs
    checks both rules.
    """

    __slots__ = ()
    linked = False

    def __init__(self, ground: GroundSet, minimal: tuple[int, ...]) -> None:
        if not minimal:
            raise InputError("an antichain needs at least one member")
        if minimal != tuple(sorted(set(minimal), key=canonical_key)):
            raise InputError("minimal members must be canonically ordered")
        full = ground.full
        for i, a in enumerate(minimal):
            if not 0 < a <= full:
                raise InputError(f"member {a:#x} is empty or leaves the ground set")
            for b in minimal[i + 1 :]:
                ab = a & b
                if ab == a or ab == b:
                    raise InputError("minimal members must form an antichain")
                if not ab and self.linked:
                    raise InputError("minimal members must be pairwise intersecting")

    def contains(self, mask: int) -> bool:
        """Membership of a subset in the full (up-closed) family."""
        return up_contains(self.minimal, mask)

    def is_maximal_linked(self) -> bool:
        """Whether the full family is a maximal linked system (exponential in n)."""
        n = self.ground.n
        return is_self_dual_upclosed(up_closure(self.minimal, n), n)


_A = TypeVar("_A", bound=Antichain)


def _trusted(cls: type[_A], ground: GroundSet, minimals: list[tuple[int, ...]]) -> tuple[_A, ...]:
    """Antichains of class ``cls`` from minimal members that the caller built
    and checked itself, made in place of them in the list.

    The objects skip ``__init__``, whose pair scan validates outside input.
    """
    new = tuple.__new__
    for i, minimal in enumerate(minimals):
        minimals[i] = new(cls, (ground, minimal))
    return tuple(minimals)
