"""Maximal linked systems and their enumeration.

A maximal linked system on a finite discrete ground set is an up-closed
family of nonempty subsets containing exactly one of every complementary
pair {A, complement(A)}.  We store only the antichain of inclusion-minimal
members; the full family is its up-closure.

Enumeration assigns one side of each complementary pair by backtracking,
pairs ordered small-side-first so the hardest constraints land early.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Iterator

from . import parallel
from .errors import InputError, TooLarge
from .setkit import (
    MAX_GROUND,
    Antichain,
    GroundSet,
    PointMap,
    SetFamily,
    _canonical,
    _complements,
    _covered,
    _disjoint,
    _image_bits,
    _pushforward_bits,
    _trusted,
    minimal_members,
    up_closure,
)

# Enumeration cap: the last n in EXPECTED_MLS_COUNTS.  n = 8 has
# 229,809,982,112 systems, too many to list.
MAX_N = 7


class MaxLinkedSystem(Antichain):
    """A maximal linked system, canonically represented by its minimal antichain.

    Construction checks that the antichain's up-closure is maximal linked,
    with the bitset tests of ``Antichain``.  ``enumerate_mls`` builds its
    systems from kernel leaves, maximal linked by construction, without
    those tests.
    """

    __slots__ = ()
    maximal = True
    # an entry of its own, so that wrapping it (as perfbench's tracer does)
    # leaves the other antichain classes alone
    __init__ = Antichain.__init__


@functools.lru_cache(maxsize=MAX_GROUND)
def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Complementary pairs {A, A^c}, small side first, hardest pairs earliest."""
    full = (1 << n) - 1
    sides = _canonical((1 << full) - 2, n)  # every set but the empty and the full one
    # the small sides come first: fewer than n/2 points, then the n/2-point sets lacking point n - 1
    return tuple((a, full ^ a) for a in sides[: (1 << n - 1) - 1])


def _backtrack(n: int, fam: int, depth: int, stop: int) -> Iterator[int]:
    """Every linked extension of ``fam`` by one side of each pair with index in [depth, stop).

    ``fam`` is a family bitset, bit A for the chosen set A, and linked: the
    root {full set} or a prefix the walk yielded.  A linked family never has
    both sides of a pair {a, b} disjoint from its sets, as such sets C1 <= b
    and C2 <= a would be disjoint; so one side, or both, keeps it linked.
    Depth-first, smaller side first; only branch points go on the stack.
    """
    pairs = _pair_order(n)
    disjoint = _disjoint(n)
    stack = [(fam, depth)]
    while stack:
        fam, depth = stack.pop()
        while depth < stop:
            a, b = pairs[depth]
            depth += 1
            if fam & disjoint[a]:
                a = b
            elif not fam & disjoint[b]:
                stack.append((fam | 1 << b, depth))
            fam |= 1 << a
        yield fam


def _subtree_words(args: tuple[int, int, int]) -> list[int]:
    """Worker: every leaf below a family bitset whose pair sides are chosen up
    to ``depth``, in the order the tree yields them.

    A leaf holds one side of every complementary pair and is linked, so it is
    maximal linked, hence up-closed: it is its system's up-closure word; the
    tests check every leaf for n <= 7.  The result is a list: the benchmark
    reads a list's length as its leaves.
    """
    n, fam, depth = args
    return list(_backtrack(n, fam, depth, len(_pair_order(n))))


def _enum_subtree(args: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """Worker: the minimal members of every leaf of ``_subtree_words``, in its order.

    In an up-closed family the minimal members are the members not one
    point above another member.
    """
    n = args[0]
    return [_canonical(leaf & ~_covered(leaf, n), n) for leaf in _subtree_words(args)]


# A two-process pool costs more than the work it shares below this n.
# Measured on 2 vCPU, Python 3.11, at n=6, with the forked pool: the
# enumeration took 15-16 ms through a pool at split depths 2 to 14 and
# 10 ms serially; the eq1 suite took 17 ms with its enumeration pooled and
# 11 ms serially.  A process's first pool costs about 5-7 ms to import,
# fork and reap before any work.  So the eq1 and counts suites enumerate
# serially below it, whatever their worker count.
_POOL_FROM_N = 7


def _split_depth(n: int) -> int:
    """Pair depth at which enumeration cuts the tree into subtrees.

    At n=7 depths 32, 36 and 40 give 858, 2105 and 6566 subtrees, the largest
    with 39, 18.5 and 8.3 % of the leaves; a 2-worker count took 8.1-10.5,
    7.5-10.4 and 8.2-9.8 s, none fastest in all 6 alternating rounds (2 vCPU,
    Python 3.11).  Below ``_POOL_FROM_N`` no pool pays, so the cut is shallow.
    """
    return min(36 if n >= _POOL_FROM_N else 2, len(_pair_order(n)))


def _split(ground: GroundSet) -> list[tuple[int, int, int]]:
    """The subtrees the enumeration is cut into, as ``(n, family, depth)`` items
    in tree order, so that their leaves in item order are the tree's."""
    n = ground.n
    if n > MAX_N:
        raise TooLarge(f"enumeration capped at n <= {MAX_N}")
    root = 1 << ground.full  # the family {full set}; no pair holds it
    depth = _split_depth(n)
    return [(n, fam, depth) for fam in _backtrack(n, root, 0, depth)]


def mls_words(ground: GroundSet, workers: int = 1) -> list[int]:
    """The up-closure word of every maximal linked system on the ground set,
    a family bitset, in the order of the backtracking tree.

    The subtrees of ``_split`` run as in ``enumerate_mls``; nothing is read
    out or sorted, so counting the systems costs only the walk.
    """
    return list(chain.from_iterable(parallel.map_chunks(_subtree_words, _split(ground), workers)))


def enumerate_mls(ground: GroundSet, workers: int = 1) -> tuple[MaxLinkedSystem, ...]:
    """Every maximal linked system on the ground set, canonically ordered:
    the superextension of a finite discrete space.

    The backtracking tree is split at a fixed pair depth and the subtrees
    are processed independently, in ``workers`` processes when there are
    more than one; the canonical sort makes the output identical regardless
    of scheduling.
    """
    minimals = sorted(chain.from_iterable(parallel.map_chunks(_enum_subtree, _split(ground), workers)))
    return _trusted(MaxLinkedSystem, ground, minimals)


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
    The family is kept as its up-closure, a family bitset: the smaller
    side misses a chosen set iff the larger one, its complement, holds
    one, that is, lies in the up-closure.
    """
    ground = fam.ground
    n = ground.n
    # with the full set, which no pair holds; the empty set has its
    # complement in every nonempty up-closure, so it is refused as well
    masks = {*fam.masks, ground.full}
    up = up_closure(masks, n)
    if up & _complements(sum(1 << m for m in masks), n):
        raise InputError("input family must be linked and free of the empty set")
    for a, b in _pair_order(n):
        lo, hi = (a, b) if a < b else (b, a)
        if not (up >> hi | up >> lo) & 1:
            up |= up_closure((lo,), n)
    # one side of every pair and linked: maximal linked
    return MaxLinkedSystem(ground, minimal_members(up, n))


def lambda_map(pm: PointMap, eta: MaxLinkedSystem) -> MaxLinkedSystem:
    """Push a system forward along a point map: {B : preimage(B) in eta}."""
    if eta.ground != pm.dom:
        raise InputError("system does not live on the map's domain")
    return MaxLinkedSystem(pm.cod, minimal_members(_pushforward_bits(pm, eta.minimal), pm.cod.n))


def lambda_map_image(pm: PointMap, eta: MaxLinkedSystem) -> MaxLinkedSystem:
    """Image-based pushforward: up-closure of {f(F) : F in eta}.

    Agrees with lambda_map for every map, surjective or not: B holds f(F)
    for some F in eta exactly when preimage(B) is in eta.  Kept as an
    independent cross-check of the preimage formula.
    """
    if eta.ground != pm.dom:
        raise InputError("system does not live on the map's domain")
    return MaxLinkedSystem(pm.cod, minimal_members(_image_bits(pm, eta.minimal), pm.cod.n))


EXPECTED_MLS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646, 7: 1422564}
