"""Binary and normal subbase checkers, hulls, convexity, and the retraction
built from a regular operator and a subbase.

A subbase here is a list of nonempty subsets of an abstract finite carrier
(plain points, or the systems of a superextension re-indexed as carrier
elements).  Binary: every linked subfamily has a common point.  Normal:
disjoint members are screened by a covering pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import Check, InputError, TooLarge, json_int, json_masks, read_json
from .setkit import bits, popcount

MAX_CARRIER = 1 << 16


def check_carrier(carrier: int) -> None:
    """Reject an empty carrier, or one above MAX_CARRIER points."""
    if carrier < 1:
        raise InputError("carrier must be nonempty")
    if carrier > MAX_CARRIER:
        raise TooLarge(f"carrier size {carrier} exceeds {MAX_CARRIER}")


@dataclass(frozen=True)
class Subbase:
    """Nonempty subsets of an m-element carrier, encoded as bitmasks."""

    carrier: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        check_carrier(self.carrier)
        full = (1 << self.carrier) - 1
        for m in self.members:
            if m == 0:
                raise InputError("subbase members must be nonempty")
            if m & ~full:
                raise InputError("member uses points outside the carrier")

    @property
    def full(self) -> int:
        return (1 << self.carrier) - 1


def _maximal_linked_subfamilies(members: tuple[int, ...]):
    """Maximal cliques of the pairwise-intersection graph (Bron-Kerbosch)."""
    uniq = sorted(set(members))
    n = len(uniq)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if uniq[i] & uniq[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    out: list[tuple[int, ...]] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(tuple(uniq[i] for i in bits(r)))
            return
        pivot = max(bits(p | x), key=lambda v: popcount(adj[v] & p))
        for v in bits(p & ~adj[pivot]):
            vb = 1 << v
            bk(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    bk(0, (1 << n) - 1, 0)
    return out


def is_binary(sb: Subbase) -> Check:
    """Every linked subfamily must have a common point.

    Only inclusion-maximal linked subfamilies are scanned: any linked
    subfamily extends to a maximal one whose intersection is no larger.
    The witness of a failure is a linked subfamily with empty intersection.
    """
    for fam in _maximal_linked_subfamilies(sb.members):
        common = sb.full
        for m in fam:
            common &= m
        if common == 0:
            return Check(False, "binary", fam)
    return Check(True)


def is_normal(sb: Subbase) -> Check:
    """Disjoint members S0, S1 need T0, T1 with S0&T1 = 0 = T0&S1 and T0|T1 = carrier.

    The witness of a failure is a disjoint pair (S0, S1) with no such cover.
    """
    ms = sb.members
    for i, s0 in enumerate(ms):
        for s1 in ms[i + 1 :]:
            if s0 & s1:
                continue
            if not any(
                not (s0 & t1) and not (t0 & s1) and (t0 | t1) == sb.full
                for t0 in ms
                for t1 in ms
            ):
                return Check(False, "normal", (s0, s1))
    return Check(True)


def s_hull(sb: Subbase, a: int) -> int:
    """Intersection of all members containing ``a``; the carrier if none does."""
    hull = sb.full
    covered = False
    for m in sb.members:
        if a & ~m == 0:
            hull &= m
            covered = True
    return hull if covered else sb.full


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
    from .embed import RegularOperator, validate_regular  # local: avoid cycle

    if not isinstance(e, RegularOperator):
        raise InputError("a regular operator is required")
    if sb.carrier != e.domain.n:
        raise InputError("subbase carrier must match the operator domain")
    check = validate_regular(e)
    if not check.ok:
        raise InputError(f"operator fails {check.axiom}")
    values = []
    for y in range(e.codomain.n):
        acc = sb.full
        hit = False
        for u, eu in e.table:
            if u and (eu >> y & 1):
                acc &= s_hull(sb, e.domain.closure(u))
                hit = True
        values.append(acc if hit else sb.full)
    return tuple(values)


def subbase_to_json(sb: Subbase) -> str:
    return json.dumps(
        {"carrier": sb.carrier, "members": [format(m, "x") for m in sb.members]},
        sort_keys=True,
    )


def subbase_from_json(data: bytes | str) -> Subbase:
    return read_json(data, "subbase file", lambda obj: Subbase(
        json_int(obj["carrier"], "carrier"), json_masks(obj["members"], "members")
    ))
