"""Finite topological spaces, regular-embedding operators, and the two
conversions between regular operators and usco maps into the superextension.

A finite (Alexandrov) topology is determined by minimal open neighborhoods;
opens are exactly the sets closed under them.  A regular operator e sends
opens of an embedded space X to opens of the ambient space Y with
e(empty) = empty, trace e(U) & X = U, and disjointness preservation.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple

from .errors import Check, InputError, TooLarge, Value, hex_masks, json_int, json_list, json_masks, read_json
from .setkit import MAX_GROUND, GroundSet, _canonical, _down, _image_mask, bits, canonical_key, check_injection, up_closure
from .superext import MaxLinkedSystem, enumerate_mls, eta_point


class FiniteTopSpace(Value, namedtuple("FiniteTopSpace", "n min_nbhd")):
    """A finite topological space given by minimal open neighborhoods."""

    __slots__ = ()

    def __init__(self, n: int, min_nbhd: tuple[int, ...]) -> None:
        GroundSet(n)  # the size bounds of a ground set
        if len(min_nbhd) != n:
            raise InputError("one minimal neighborhood per point required")
        full = (1 << n) - 1
        for x, nb in enumerate(min_nbhd):
            if nb & ~full or not (nb >> x & 1):
                raise InputError(f"minimal neighborhood of {x} must contain {x}")
        for x in range(n):
            for y in bits(min_nbhd[x]):
                if min_nbhd[y] & ~min_nbhd[x]:
                    raise InputError("minimal neighborhoods violate preorder consistency")

    @classmethod
    def discrete(cls, n: int) -> "FiniteTopSpace":
        return cls(n, tuple(1 << x for x in range(n)))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        """A mask with bits outside the space, a negative one included, is not open."""
        return not mask & ~self.full and all(self.min_nbhd[x] & ~mask == 0 for x in bits(mask))

    def opens(self) -> tuple[int, ...]:
        """All open sets, the unions of minimal neighborhoods, in (cardinality, mask) order."""
        found = {0}
        for nb in self.min_nbhd:
            found |= {u | nb for u in found}
        return tuple(sorted(found, key=canonical_key))

    def closure(self, mask: int) -> int:
        """Topological closure: points whose every neighborhood meets the set."""
        return sum(1 << y for y in range(self.n) if self.min_nbhd[y] & mask)

    def product(self, other: "FiniteTopSpace") -> "FiniteTopSpace":
        """Product space; point (x, y) gets index x * other.n + y."""
        if self.n * other.n > MAX_GROUND:
            raise TooLarge(f"product space size {self.n * other.n} exceeds {MAX_GROUND}")
        nb = tuple(
            _box(self.min_nbhd[x], other.min_nbhd[y], other.n)
            for x in range(self.n)
            for y in range(other.n)
        )
        return FiniteTopSpace(self.n * other.n, nb)


def _box(m1: int, m2: int, width: int) -> int:
    """The product set m1 x m2, point (a, b) at index a * width + b."""
    out = 0
    for a in bits(m1):
        for b in bits(m2):
            out |= 1 << (a * width + b)
    return out


class RegularOperator(Value, namedtuple("RegularOperator", "domain codomain inject table")):
    """An open-set operator witnessing a regular embedding of X into Y.

    ``table`` lists pairs (open of X, its image open of Y), kept sorted by
    the canonical order of the opens of X.
    """

    __slots__ = ()

    def __new__(cls, domain: FiniteTopSpace, codomain: FiniteTopSpace, inject: tuple[int, ...],
                table: tuple[tuple[int, int], ...]) -> "RegularOperator":
        ordered = tuple(sorted(table, key=lambda p: canonical_key(p[0])))
        return super().__new__(cls, domain, codomain, inject, ordered)

    def __init__(self, domain: FiniteTopSpace, codomain: FiniteTopSpace, inject: tuple[int, ...],
                 table: tuple[tuple[int, int], ...]) -> None:
        check_injection(inject, domain.n, codomain.n, "inject")

    def image_mask(self, x_mask: int) -> int:
        return _image_mask(self.inject, x_mask)

    @property
    def x_image(self) -> int:
        return self.image_mask(self.domain.full)

    def lookup(self) -> dict[int, int]:
        return dict(self.table)

    @classmethod
    def identity(cls, space: FiniteTopSpace) -> "RegularOperator":
        return cls(
            space,
            space,
            tuple(range(space.n)),
            tuple((u, u) for u in space.opens()),
        )


def validate_regular(e: RegularOperator) -> Check:
    """Exhaustive check of the three regular-operator axioms."""
    opens_x = e.domain.opens()
    keys = [u for u, _ in e.table]  # in the canonical order of opens_x
    if keys != list(opens_x):
        # the least open the table lacks, else the least key that is not open,
        # else the least open it lists twice
        twice = {u for u, v in zip(keys, keys[1:]) if u == v}
        stray = set(opens_x) - set(keys) or set(keys) - set(opens_x) or twice
        return Check(False, "table must cover exactly the opens of the domain", (min(stray),))
    for u, eu in e.table:
        if not e.codomain.is_open(eu):
            return Check(False, "image not open", (u, eu))
    if e.table[0][1] != 0:  # the empty set, the least open, comes first
        return Check(False, "empty set must map to the empty set", e.table[0])
    x_image = e.x_image
    holders = [0] * e.codomain.n  # per point y, the family bitset of the opens whose image holds y
    for u, eu in e.table:
        if eu & x_image != e.image_mask(u):
            return Check(False, "trace", (u, eu))
        for y in bits(eu):
            holders[y] |= 1 << u
    for u, eu in e.table:
        # the opens disjoint from u whose image meets e(u); one before u would
        # have failed first, so the least of them is the pair scan's partner
        clash = 0
        for y in bits(eu):
            clash |= holders[y]
        clash &= _down(e.domain.full ^ u)
        if clash:
            return Check(False, "disjointness", (u, _canonical(clash, e.domain.n)[0]))
    return Check(True)


def product_operator(parts: list[RegularOperator]) -> RegularOperator:
    """The box-product operator of finitely many regular operators.

    Basic boxes of domain opens map to boxes of their images; a general
    open maps to the union over the basic boxes it contains.
    """
    if not parts:
        raise InputError("need at least one operator")
    op = parts[0]
    for nxt in parts[1:]:
        op = _product2(op, nxt)
    return op


def _product2(e1: RegularOperator, e2: RegularOperator) -> RegularOperator:
    dx = e1.domain.product(e2.domain)
    dy = e1.codomain.product(e2.codomain)
    inject = tuple(
        e1.inject[x1] * e2.codomain.n + e2.inject[x2]
        for x1 in range(e1.domain.n)
        for x2 in range(e2.domain.n)
    )
    boxes = [
        (_box(u1, u2, e2.domain.n), _box(eu1, eu2, e2.codomain.n))
        for u1, eu1 in e1.table
        for u2, eu2 in e2.table
    ]
    table = []
    for g in dx.opens():
        theta = 0
        for bx, by in boxes:
            if bx & ~g == 0:
                theta |= by
        table.append((g, theta))
    return RegularOperator(dx, dy, inject, tuple(table))


def compose_operators(outer: RegularOperator, inner: RegularOperator) -> RegularOperator:
    """W -> outer(inner(W)), for X embedded in X' embedded in Z."""
    if inner.codomain != outer.domain:
        raise InputError("inner codomain must be the outer domain")
    out_tab = outer.lookup()
    table = []
    for u, eu in inner.table:
        if eu not in out_tab:
            raise InputError("inner image is not an open the outer operator covers")
        table.append((u, out_tab[eu]))
    inject = tuple(outer.inject[y] for y in inner.inject)
    return RegularOperator(inner.domain, outer.codomain, inject, tuple(table))


def find_regular_operator(
    x: FiniteTopSpace, y: FiniteTopSpace, inject: tuple[int, ...]
) -> RegularOperator | None:
    """The least regular operator witnessing the embedding, or None if there is none.

    A regular e(U) is open and holds the image of U, so it holds e_min(U), the
    union of the minimal neighborhoods in Y of that image's points.  So e_min
    inherits trace and disjointness from any regular e, and is regular iff one
    exists.  e_min(U) is the least open with the trace of U, the first open a
    search over the opens of Y in canonical order would give U.
    """
    check_injection(inject, x.n, y.n, "inject")
    table = []
    for u in x.opens():
        eu = 0
        for p in bits(u):
            eu |= y.min_nbhd[inject[p]]
        table.append((u, eu))
    e = RegularOperator(x, y, inject, tuple(table))
    return e if validate_regular(e).ok else None


# --------------------------------------------------------------------------
# Conversions between regular operators and usco maps into the superextension


class UscoMap(Value, namedtuple("UscoMap", "space values inject")):
    """A set-valued map from an ambient space into the superextension of
    the embedded discrete space, whose points ``inject`` places."""

    __slots__ = ()

    def __init__(self, space: FiniteTopSpace, values: tuple[tuple[MaxLinkedSystem, ...], ...],
                 inject: tuple[int, ...]) -> None:
        if len(values) != space.n:
            raise InputError("one value per ambient point required")
        n = len(inject)
        check_injection(inject, n, space.n, "inject")
        # a system on another ground would be read as sets of the wrong points
        if not all(type(vals) is tuple and all(type(eta) is MaxLinkedSystem and eta.ground.n == n for eta in vals)
                   for vals in values):
            raise InputError(f"each value must be a tuple of maximal linked systems on {n} points")

    def is_usc_at(self, y: int) -> bool:
        """r(z) lies inside r(y) for every z in the minimal neighborhood of y."""
        ry = set(self.values[y])
        return all(set(self.values[z]) <= ry for z in bits(self.space.min_nbhd[y]))

    def is_usc(self) -> bool:
        """Finite usc criterion: r shrinks along minimal neighborhoods."""
        return all(self.is_usc_at(y) for y in range(self.space.n))


def usco_from_regular(e: RegularOperator) -> UscoMap:
    """r(y) = all systems containing every U with y in e(U).

    Points outside every e(U) get the whole superextension; embedded
    points get exactly their principal system.  The embedded space must be
    T1, which for a finite space means discrete: if some U containing x has
    a closure with a second point y, the principal system of y lies in r(x)
    too.  On the discrete domain each U is its own closure, and the result
    always passes check_usco_map.  Each system is read once as its
    up-closure word, which must hold every U with y in e(U).
    """
    check = validate_regular(e)
    if not check.ok:
        raise InputError(f"operator fails {check.axiom}")
    for x, nb in enumerate(e.domain.min_nbhd):
        if nb != 1 << x:
            raise InputError(f"domain is not T1: point {x} has a larger minimal neighborhood")
    n = e.domain.n
    lam = enumerate_mls(GroundSet(n))
    words = [up_closure(eta.minimal, n) for eta in lam]
    need = [0] * e.codomain.n  # validated: e(empty) holds no y
    for u, eu in e.table:
        for y in bits(eu):
            need[y] |= 1 << u
    values = tuple(tuple(eta for eta, up in zip(lam, words) if not opens & ~up) for opens in need)
    return UscoMap(e.codomain, values, e.inject)


def check_usco_map(r: UscoMap) -> Check:
    """Whether r has nonempty values, fixes embedded points, and is usc.

    The witness is the offending point: an ambient point with an empty
    value, an embedded point of the domain, or an ambient point whose
    value does not contain a neighbor's value.
    """
    ground = GroundSet(len(r.inject))
    for y, vals in enumerate(r.values):
        if not vals:
            return Check(False, "nonempty", y)
    for x in range(ground.n):
        if r.values[r.inject[x]] != (eta_point(ground, x),):
            return Check(False, "point-fixed", x)
    for y in range(r.space.n):
        if not r.is_usc_at(y):
            return Check(False, "usc", y)
    return Check(True)


def regular_from_usco(r: UscoMap) -> RegularOperator:
    """e(U) = points whose value lands inside U-plus, on the discrete domain.

    U-plus holds the systems with a closed member inside U; every subset of
    the domain is closed and systems are up-closed, so it holds the systems
    that contain U.  None contains the empty set, so e(empty) = empty.  The
    map must pass check_usco_map, which refuses an empty value.  y lies in
    e(U) iff U is in the AND of the up-closure words of the systems in r(y).
    """
    check = check_usco_map(r)
    if not check.ok:
        raise InputError(f"usco map fails {check.axiom} at point {check.witness}")
    n = len(r.inject)
    common = [functools.reduce(int.__and__, (up_closure(eta.minimal, n) for eta in vals)) for vals in r.values]
    domain = FiniteTopSpace.discrete(n)
    table = tuple((u, sum(1 << y for y, word in enumerate(common) if word >> u & 1)) for u in domain.opens())
    return RegularOperator(domain, r.space, r.inject, table)


# --------------------------------------------------------------------------
# Serialization


def space_to_obj(space: FiniteTopSpace) -> dict:
    return {"n": space.n, "min_nbhd": hex_masks(space.min_nbhd)}


def space_from_obj(obj: dict) -> FiniteTopSpace:
    return FiniteTopSpace(json_int(obj["n"], "n"), json_masks(obj["min_nbhd"], "min_nbhd"))


def operator_to_json(e: RegularOperator) -> str:
    return json.dumps(
        {
            "X": space_to_obj(e.domain),
            "Y": space_to_obj(e.codomain),
            "inject": list(e.inject),
            "table": [hex_masks(pair) for pair in e.table],
        },
        sort_keys=True,
    )


def _table_entry(entry: object) -> tuple[int, ...]:
    """One (open of X, its image) pair of an operator file, each in hex."""
    pair = json_list(entry, "table entry")
    if len(pair) != 2:
        raise InputError(f"table entry must have two items, got {pair!r}")
    return json_masks(pair, "table entry")


def operator_from_json(data: bytes | str) -> RegularOperator:
    return read_json(data, "operator file", lambda obj: RegularOperator(
        space_from_obj(obj["X"]),
        space_from_obj(obj["Y"]),
        tuple(json_int(i, "inject") for i in json_list(obj["inject"], "inject")),
        tuple(map(_table_entry, json_list(obj["table"], "table"))),
    ))
