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
from operator import getitem
from typing import Callable, Iterator

from . import parallel
from .errors import InputError, TooLarge
from .setkit import (
    Antichain,
    GroundSet,
    PointMap,
    SetFamily,
    _image_bits,
    _lacks,
    _pushforward_bits,
    _trusted,
    bits,
    canonical_key,
    is_linked,
    is_self_dual_upclosed,
    minimal_members,
)

# Enumeration cap: the last n in EXPECTED_MLS_COUNTS.  n = 8 has
# 229,809,982,112 systems, too many to list.
MAX_N = 7


class MaxLinkedSystem(Antichain):
    """A maximal linked system, canonically represented by its minimal antichain.

    Construction checks that the antichain is linked;
    ``is_maximal_linked`` checks maximality.  ``enumerate_mls`` builds its
    systems from kernel leaves it has checked, without that scan.
    """

    __slots__ = ()
    linked = True
    # an entry of its own, so that wrapping it (as perfbench's tracer does)
    # leaves the other antichain classes alone
    __init__ = Antichain.__init__


@functools.lru_cache(maxsize=MAX_N + 1)
def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Complementary pairs {A, A^c}, small side first, hardest pairs earliest."""
    full = (1 << n) - 1
    pairs = []
    for a in range(1, full):
        b = full ^ a
        if canonical_key(a) < canonical_key(b):
            pairs.append((a, b))
    pairs.sort(key=lambda p: canonical_key(p[0]))
    return tuple(pairs)


@functools.lru_cache(maxsize=MAX_N + 1)
def _disjoint(n: int) -> tuple[int, ...]:
    """Per subset s, the bitset over the 2^n subsets of those disjoint from s.

    A family bitset meets ``_disjoint(n)[s]`` iff one of its members is disjoint from s.
    """
    full = (1 << n) - 1
    out = []
    for s in range(full + 1):
        word = 1  # the empty set
        for x in bits(full ^ s):
            word |= word << (1 << x)
        out.append(word)
    return tuple(out)


def _backtrack(n: int, fam: int, depth: int, stop: int) -> Iterator[int]:
    """Every linked extension of ``fam`` by one side of each pair with index in [depth, stop).

    ``fam`` is a family bitset: bit A stands for the chosen set A.  A side s
    keeps the family linked iff no chosen set is disjoint from it.
    Depth-first, smaller side first, with an explicit stack.
    """
    pairs = _pair_order(n)
    disjoint = _disjoint(n)
    stack = [(fam, depth)]
    pop, push = stack.pop, stack.append
    while stack:
        fam, depth = pop()
        if depth == stop:
            yield fam
            continue
        a, b = pairs[depth]
        depth += 1
        if not fam & disjoint[b]:
            push((fam | 1 << b, depth))
        if not fam & disjoint[a]:
            push((fam | 1 << a, depth))


@functools.lru_cache(maxsize=MAX_N + 1)
def _leaf_tables(n: int) -> tuple[Callable[[int], int], Callable[[int], tuple[int, ...]]]:
    """Two readers of family bitsets over the 2^n subsets, through byte tables.

    ``reverse(fam)`` is the bitset of the complements of the members: bit A
    moves to bit 2^n - 1 - A, byte by byte through ``bytes.translate``.
    ``read(word)`` lists the sets of ``word`` in canonical order without a
    sort: one table per byte position maps the byte to the canonical ranks
    of its sets, and one per byte of the rank bitset gives those sets as a
    ready-made tuple.
    """
    size = 1 << n
    nbytes = (size + 7) // 8
    shift = 8 * nbytes - size  # below n = 3 the word fills part of one byte
    flip = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
    by_rank = sorted(range(size), key=canonical_key)
    rank = {s: r for r, s in enumerate(by_rank)}
    to_rank: list[list[int]] = []
    from_rank: list[list[tuple[int, ...]]] = []
    for p in range(nbytes):
        sets = [0] * 256
        ranked: list[tuple[int, ...]] = [()] * 256
        for v in range(1, 256):
            top = v.bit_length() - 1
            j = 8 * p + top
            sets[v] = sets[v ^ 1 << top] | (1 << rank[j] if j < size else 0)
            ranked[v] = ranked[v ^ 1 << top] + ((by_rank[j],) if j < size else ())
        to_rank.append(sets)
        from_rank.append(ranked)

    def reverse(fam: int) -> int:
        return int.from_bytes(fam.to_bytes(nbytes, "little").translate(flip), "big") >> shift

    def read(word: int) -> tuple[int, ...]:
        # sets of distinct bytes have distinct ranks, so the sum is their union
        ranks = sum(map(getitem, to_rank, word.to_bytes(nbytes, "little")))
        return sum(map(getitem, from_rank, ranks.to_bytes(nbytes, "little")), ())

    return reverse, read


def _enum_subtree(args: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """Worker: the minimal members of every system below a family bitset whose
    pair sides are chosen up to ``depth``, in the order the tree yields them.

    A leaf holds one side of every complementary pair and is linked, so it is
    maximal linked.  One pass per leaf computes the sets one point above its
    members, checks the leaf from them (no empty set, up-closed, one side of
    each pair) and reads off the minimal members, the members not so covered.
    The result is a list: the benchmark reads a tuple as an eq1 chunk.
    """
    n, fam, depth = args
    reverse, read = _leaf_tables(n)
    ones = (1 << (1 << n)) - 1
    steps = [(lacks, 1 << x) for x, lacks in enumerate(_lacks(n))]
    out = []
    for leaf in _backtrack(n, fam, depth, len(_pair_order(n))):
        covered = 0
        for lacks, step in steps:
            covered |= (leaf & lacks) << step
        # an invariant of the kernel, not a precondition: no input breaks it
        assert not leaf & 1 and not covered & ~leaf and leaf ^ reverse(leaf) == ones, (
            "kernel leaf is not a maximal linked system"
        )
        out.append(read(leaf & ~covered))
    return out


def _split_depth(n: int) -> int:
    """Pair depth at which enumeration cuts the tree into subtrees.

    Measured on 2 vCPU, Python 3.11.  At n=7 the largest depth-36 subtree
    holds 18.5 % of the 1,422,564 leaves (2105 subtrees), and two workers
    take 10.2 s; depth 32 leaves 39 % in one subtree (12.7 s), depth 40
    8.3 % but more items to send (10.5 s).  Below n=7 a two-process pool
    costs more than the whole enumeration at any depth (n=6: 0.035 to
    0.041 s through one at depths 2 to 12, 0.018 s serially), so the cut
    stays shallow there: three subtrees at n=5 and 6, little to send.
    """
    return min(36 if n >= 7 else 2, len(_pair_order(n)))


def enumerate_mls(ground: GroundSet, workers: int = 1) -> tuple[MaxLinkedSystem, ...]:
    """Every maximal linked system on the ground set, canonically ordered:
    the superextension of a finite discrete space.

    The backtracking tree is split at a fixed pair depth and the subtrees
    are processed independently, in ``workers`` processes when there are
    more than one; the canonical sort makes the output identical regardless
    of scheduling.
    """
    n = ground.n
    if n > MAX_N:
        raise TooLarge(f"enumeration capped at n <= {MAX_N}")
    root = 1 << ground.full  # the family {full set}; no pair holds it
    depth = _split_depth(n)
    items = [(n, fam, depth) for fam in _backtrack(n, root, 0, depth)]
    minimals = sorted(chain.from_iterable(parallel.map_chunks(_enum_subtree, items, workers)))
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
    """
    if not is_linked(fam):
        raise InputError("input family must be linked and free of the empty set")
    n = fam.ground.n
    disjoint = _disjoint(n)
    # a family bitset, as in _backtrack
    chosen = 1 << fam.ground.full | sum(1 << m for m in fam.masks)
    for a, b in _pair_order(n):
        lo, hi = (a, b) if a < b else (b, a)
        chosen |= 1 << (hi if chosen & disjoint[lo] else lo)
    # one side of every pair and linked: maximal linked, so up-closed
    return MaxLinkedSystem(fam.ground, minimal_members(chosen, n))


def lambda_map(pm: PointMap, eta: MaxLinkedSystem) -> MaxLinkedSystem:
    """Push a system forward along a point map: {B : preimage(B) in eta}."""
    if eta.ground != pm.dom:
        raise InputError("system does not live on the map's domain")
    fam = _pushforward_bits(pm, eta.minimal)
    # an invariant of the construction, not a precondition: no input breaks it
    assert is_self_dual_upclosed(fam, pm.cod.n), "pushforward is not a maximal linked system"
    return MaxLinkedSystem(pm.cod, minimal_members(fam, pm.cod.n))


def lambda_map_image(pm: PointMap, eta: MaxLinkedSystem) -> MaxLinkedSystem:
    """Image-based pushforward: up-closure of {f(F) : F in eta}.

    Agrees with lambda_map for surjective maps; kept as an independent
    cross-check of the preimage formula.
    """
    if eta.ground != pm.dom:
        raise InputError("system does not live on the map's domain")
    return MaxLinkedSystem(pm.cod, minimal_members(_image_bits(pm, eta.minimal), pm.cod.n))


EXPECTED_MLS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646, 7: 1422564}
