"""Binary and normal subbase checkers, hulls, convexity, and the retraction
built from a regular operator and a subbase.

A subbase here is a list of nonempty subsets of an abstract finite carrier
(plain points, or the systems of a superextension re-indexed as carrier
elements).  Binary: every linked subfamily has a common point.  Normal:
disjoint members are screened by a covering pair.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import Check, InputError, TooLarge, Value, hex_masks, json_int, json_masks, read_json
from .setkit import bits

MAX_CARRIER = 1 << 16

# The checks build bitsets over the pairs of members, and is_binary recurses
# once per member of a clique, so this also keeps it well inside Python's
# recursion limit.  Measured on 2 vCPU, Python 3.11, on the singletons of a
# carrier and their complements: 400 members take 0.03 s to check normal and
# 0.37 s binary, 512 take 0.06 s and 0.79 s, 800 take 0.15 s and 3.6 s.
MAX_MEMBERS = 512


def check_carrier(carrier: int) -> None:
    """Reject an empty carrier, or one above MAX_CARRIER points."""
    if carrier < 1:
        raise InputError("carrier must be nonempty")
    if carrier > MAX_CARRIER:
        raise TooLarge(f"carrier size {carrier} exceeds {MAX_CARRIER}")


class Subbase(Value, namedtuple("Subbase", "carrier members")):
    """Nonempty subsets of an m-element carrier, encoded as bitmasks."""

    __slots__ = ()

    def __init__(self, carrier: int, members: tuple[int, ...]) -> None:
        check_carrier(carrier)
        if len(members) > MAX_MEMBERS:
            raise TooLarge(f"{len(members)} subbase members exceed {MAX_MEMBERS}")
        full = (1 << carrier) - 1
        for m in members:
            if m == 0:
                raise InputError("subbase members must be nonempty")
            if m & ~full:
                raise InputError("member uses points outside the carrier")

    @property
    def full(self) -> int:
        return (1 << self.carrier) - 1


def is_binary(sb: Subbase) -> Check:
    """Every linked subfamily must have a common point.

    Only inclusion-maximal linked subfamilies are scanned: any linked
    subfamily extends to a maximal one whose intersection is no larger.
    They are the maximal cliques of the pairwise-intersection graph on the
    distinct members, listed by Bron-Kerbosch with a pivot, each branch
    carrying the intersection of its clique.  The witness of a failure is
    the first maximal clique listed whose intersection is empty.
    """
    uniq = sorted(set(sb.members))
    adj = [0] * len(uniq)
    for i, a in enumerate(uniq):
        for j in range(i + 1, len(uniq)):
            if a & uniq[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    def first_empty(r: int, p: int, x: int, common: int) -> int | None:
        # the first maximal clique with an empty intersection among those
        # that add vertices of p to r and that no vertex of x extends;
        # common is the intersection of r
        if not p and not x:
            return None if common else r
        # the pivot: the vertex of p | x with most neighbours in p, the first on a tie
        pivot, most = 0, -1
        rest = p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            k = (adj[u] & p).bit_count()
            if k > most:
                pivot, most = u, k
            rest ^= low
        rest = p & ~adj[pivot]
        while rest:
            vb = rest & -rest
            v = vb.bit_length() - 1
            found = first_empty(r | vb, p & adj[v], x & adj[v], common & uniq[v])
            if found is not None:
                return found
            p ^= vb
            x |= vb
            rest ^= vb
        return None

    clique = first_empty(0, (1 << len(uniq)) - 1, 0, sb.full)
    if clique is None:
        return Check(True)
    return Check(False, "binary", tuple(uniq[i] for i in bits(clique)))


def is_normal(sb: Subbase) -> Check:
    """Disjoint members S0, S1 need T0, T1 with S0&T1 = 0 = T0&S1 and T0|T1 = carrier.

    Per member, two bitsets over the member indices: the members it misses,
    and the members it covers the carrier with.  Then (S0, S1) is screened
    iff some T0 missing S1 has a cover partner missing S0.  The witness of
    a failure is the first disjoint pair, in member order, with no such cover.
    """
    ms = sb.members
    full = sb.full
    miss = [sum(1 << j for j, t in enumerate(ms) if not s & t) for s in ms]
    cover = [sum(1 << j for j, t in enumerate(ms) if s | t == full) for s in ms]
    for i, s0 in enumerate(ms):
        later = miss[i] >> i + 1 << i + 1
        if not later:
            continue
        # the members T0 with a cover partner that misses S0
        screening = sum(1 << t for t, c in enumerate(cover) if c & miss[i])
        for j in bits(later):
            if not screening & miss[j]:
                return Check(False, "normal", (s0, ms[j]))
    return Check(True)


def s_hull(sb: Subbase, a: int) -> int:
    """Intersection of all members containing ``a``; the carrier if none does."""
    hull = sb.full
    for m in sb.members:
        if a & ~m == 0:
            hull &= m
    return hull


def is_s_convex(sb: Subbase, a: int) -> bool:
    """Hulls of point pairs drawn from ``a`` must stay inside ``a``."""
    pts = list(bits(a))
    for i, x in enumerate(pts):
        for y in pts[i:]:
            if s_hull(sb, (1 << x) | (1 << y)) & ~a:
                return False
    return True


def sconvex_retraction(e, sb: Subbase) -> tuple[int, ...]:
    """Retraction values r(y) from a regular operator and a subbase on its domain.

    r(y) intersects the hulls of the closures of every open U with
    y in e(U); points outside all e(U) fall back to the whole carrier.
    """
    from .embed import RegularOperator, validate_regular  # here: `subbase --check` needs no embed

    if not isinstance(e, RegularOperator):
        raise InputError("a regular operator is required")
    if sb.carrier != e.domain.n:
        raise InputError("subbase carrier must match the operator domain")
    check = validate_regular(e)
    if not check.ok:
        raise InputError(f"operator fails {check.axiom}")
    hulls = [(eu, s_hull(sb, e.domain.closure(u))) for u, eu in e.table if u]
    values = []
    for y in range(e.codomain.n):
        acc = sb.full
        for eu, hull in hulls:
            if eu >> y & 1:
                acc &= hull
        values.append(acc)
    return tuple(values)


def subbase_to_json(sb: Subbase) -> str:
    return json.dumps(
        {"carrier": sb.carrier, "members": hex_masks(sb.members)},
        sort_keys=True,
    )


def subbase_from_json(data: bytes | str) -> Subbase:
    return read_json(data, "subbase file", lambda obj: Subbase(
        json_int(obj["carrier"], "carrier"), json_masks(obj["members"], "members")
    ))
