"""Bit-encoded subsets and set families over a small finite ground set.

Points are 0-indexed; a subset of an n-point ground set is an int mask
with bit i standing for point i.  Families are duplicate-free and kept
in the canonical (cardinality, mask) order, which makes every
enumeration downstream deterministic and diffable.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

from .errors import InputError, TooLarge, json_int, json_list

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


@dataclass(frozen=True)
class GroundSet:
    """An n-point ground set, n >= 1.

    Finite compact Hausdorff spaces are discrete, so every subset is
    closed; the ground set is all the topology we need here.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("ground set must have at least one point")
        if self.n > MAX_GROUND:
            raise TooLarge(f"ground set size {self.n} exceeds {MAX_GROUND}")

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


@dataclass(frozen=True)
class Subset:
    """A subset of a ground set, encoded as a bitmask."""

    ground: GroundSet
    mask: int

    def __post_init__(self) -> None:
        self.ground.check_mask(self.mask)

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def complement(self) -> "Subset":
        return Subset(self.ground, self.ground.full ^ self.mask)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free, canonically ordered family of subsets."""

    ground: GroundSet
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        for m in self.masks:
            self.ground.check_mask(m)
        ordered = tuple(sorted(set(self.masks), key=canonical_key))
        if ordered != self.masks:
            raise InputError("family masks must be duplicate-free and canonically ordered")

    @classmethod
    def of(cls, ground: GroundSet, masks: Iterable[int]) -> "SetFamily":
        return cls(ground, tuple(sorted(set(masks), key=canonical_key)))

    def subsets(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.ground, m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.masks)


@dataclass(frozen=True)
class PointMap:
    """A total map between ground sets, image[x] = f(x)."""

    dom: GroundSet
    cod: GroundSet
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.dom.n:
            raise InputError("point map must assign every domain point")
        for y in self.image:
            self.cod.check_point(y)

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


def _up_bits(masks: Iterable[int], n: int) -> int:
    """The up-closure of ``masks`` within an n-point ground, as a bitset."""
    fam = 0
    for m in masks:
        fam |= 1 << m
    for x, lacks in enumerate(_lacks(n)):
        fam |= (fam & lacks) << (1 << x)
    return fam


def _minimal_bits(fam: int, n: int) -> tuple[int, ...]:
    """The minimal members of an up-closed family bitset, in canonical order.

    In an up-closed family a member is minimal iff removing any one of its
    points leaves the family, so the non-minimal members are exactly the
    sets T | {x} with T a member lacking x.
    """
    covered = 0
    for x, lacks in enumerate(_lacks(n)):
        covered |= (fam & lacks) << (1 << x)
    return tuple(sorted(bits(fam & ~covered), key=canonical_key))


def _is_self_dual_upclosed_bits(fam: int, n: int) -> bool:
    """is_self_dual_upclosed on a family bitset.

    Complementation sends bit A to bit full ^ A = 2^n - 1 - A, so the
    complements of the members are the 2^n-bit word read backwards.
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
    rows = [format(_up_bits(m, n), f"0{size}b") for m in minimals][::-1]
    columns = list(zip(*rows))
    return [int("".join(columns[size - 1 - f]), 2) for f in range(size)]


@functools.lru_cache(maxsize=256)
def _preimage_table(image: tuple[int, ...], m: int) -> tuple[int, ...]:
    """preimage_mask(B) of the map with this image, for every B below 2^m."""
    pm = PointMap(GroundSet(len(image)), GroundSet(m), image)
    return tuple(pm.preimage_mask(b) for b in range(1 << m))


def _pushforward_bits(pm: PointMap, minimal: Iterable[int]) -> int:
    """{B : preimage(B) in the up-closure of ``minimal``}, as a bitset over pm.cod."""
    up = _up_bits(minimal, pm.dom.n)
    out = 0
    for b, pre in enumerate(_preimage_table(pm.image, pm.cod.n)):
        if up >> pre & 1:
            out |= 1 << b
    return out


def _image_bits(pm: PointMap, minimal: Iterable[int]) -> int:
    """The up-closure of {pm(F) : F in ``minimal``}, as a bitset over pm.cod."""
    return _up_bits((pm.image_mask(m) for m in minimal), pm.cod.n)


def up_closure(fam: SetFamily) -> SetFamily:
    """All supersets (within the ground set) of members of the family."""
    return SetFamily.of(fam.ground, bits(_up_bits(fam.masks, fam.ground.n)))


def minimal_members(fam: SetFamily) -> SetFamily:
    """The inclusion-minimal members; an antichain with the same up-closure."""
    n = fam.ground.n
    return SetFamily(fam.ground, _minimal_bits(_up_bits(fam.masks, n), n))


def up_contains(minimal: tuple[int, ...], mask: int) -> bool:
    """Whether ``mask`` lies in the up-closure generated by ``minimal``."""
    return any(m & mask == m for m in minimal)


def is_self_dual_upclosed(fam: SetFamily) -> bool:
    """Up-closed, empty-set-free, and containing exactly one of A / complement(A).

    This is the combinatorial characterization of maximal linked
    families on a finite discrete space.
    """
    return _is_self_dual_upclosed_bits(sum(1 << m for m in fam.masks), fam.ground.n)


@dataclass(frozen=True, slots=True)
class Antichain:
    """An up-closed family of nonempty subsets, stored as its minimal antichain.

    The members must be nonempty subsets of the ground set, canonically
    ordered and pairwise incomparable.  A subclass that sets ``linked``
    also requires them to meet pairwise; the same scan over the pairs
    checks both rules.
    """

    ground: GroundSet
    minimal: tuple[int, ...]

    linked: ClassVar[bool] = False

    def __post_init__(self) -> None:
        ms = self.minimal
        if not ms:
            raise InputError("an antichain needs at least one member")
        if ms != tuple(sorted(set(ms), key=canonical_key)):
            raise InputError("minimal members must be canonically ordered")
        full = self.ground.full
        for i, a in enumerate(ms):
            if not 0 < a <= full:
                raise InputError(f"member {a:#x} is empty or leaves the ground set")
            for b in ms[i + 1 :]:
                ab = a & b
                if ab == a or ab == b:
                    raise InputError("minimal members must form an antichain")
                if not ab and self.linked:
                    raise InputError("minimal members must be pairwise intersecting")

    def contains(self, mask: int) -> bool:
        """Membership of a subset in the full (up-closed) family."""
        return up_contains(self.minimal, mask)

    def full_family(self) -> SetFamily:
        return up_closure(SetFamily.of(self.ground, self.minimal))

    def is_maximal_linked(self) -> bool:
        """Whether the full family is a maximal linked system (exponential in n)."""
        n = self.ground.n
        return _is_self_dual_upclosed_bits(_up_bits(self.minimal, n), n)


def family_to_json(fam: SetFamily) -> str:
    """Serialize as {"n": int, "sets": [lowercase hex masks]}."""
    return json.dumps(
        {"n": fam.ground.n, "sets": [format(m, "x") for m in fam.masks]},
        sort_keys=True,
    )


def family_from_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text)
        ground = GroundSet(json_int(obj["n"], "n"))
        masks = [int(s, 16) for s in json_list(obj["sets"], "sets")]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed family file: {exc}") from exc
    return SetFamily.of(ground, masks)
