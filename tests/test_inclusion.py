from __future__ import annotations

import itertools

import pytest

import oracles
from supext.errors import InputError, TooLarge
from supext.inclusion import (
    InclusionHyperspace,
    candidate_subbase_gx,
    enumerate_ih,
    g_map,
)
from supext.setkit import GroundSet, PointMap, bits, up_closure
from supext.subbase import is_binary
from supext.superext import enumerate_mls


def ih(n: int, minimal) -> InclusionHyperspace:
    return InclusionHyperspace(GroundSet(n), tuple(minimal))


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18)])
    def test_counts_small(self, n, count):
        assert len(enumerate_ih(GroundSet(n))) == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_direct_scan(self, n):
        got = {
            frozenset(bits(up_closure(h.minimal, n)))
            for h in enumerate_ih(GroundSet(n))
        }
        assert got == set(oracles.scan_inclusion_hyperspaces(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_antichain_count(self, n):
        assert len(enumerate_ih(GroundSet(n))) == len(oracles.all_antichains(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_validated_construction(self, n):
        """The search builds its hyperspaces without the constructor's pair
        scan; each must equal the one that scan accepts."""
        ground = GroundSet(n)
        for a in enumerate_ih(ground):
            assert type(a) is InclusionHyperspace
            assert a == InclusionHyperspace(ground, a.minimal)

    def test_n2_explicit(self):
        got = {h.minimal for h in enumerate_ih(GroundSet(2))}
        assert got == {(0b01,), (0b10,), (0b11,), (0b01, 0b10)}

    def test_rejects_member_outside_ground(self):
        with pytest.raises(InputError):
            ih(2, (0b1000,))

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_ih(GroundSet(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_separates_mls(self, n):
        """Self-duality picks out exactly the maximal linked systems
        inside GX, in both directions."""
        mls_antichains = {s.minimal for s in enumerate_mls(GroundSet(n))}
        hit = set()
        for h in enumerate_ih(GroundSet(n)):
            if h.is_maximal_linked():
                assert h.minimal in mls_antichains
                hit.add(h.minimal)
                assert h.as_mls().is_maximal_linked()
        assert hit == mls_antichains

    def test_as_mls_refuses_a_linked_hyperspace_that_is_not_maximal(self):
        with pytest.raises(InputError, match="must form a maximal linked system"):
            ih(3, (0b011,)).as_mls()


class TestGMap:
    def test_identity(self):
        pm = PointMap.identity(GroundSet(3))
        for h in enumerate_ih(GroundSet(3)):
            assert g_map(pm, h) == h

    def test_constant(self):
        pm = PointMap(GroundSet(3), GroundSet(3), (1, 1, 1))
        for h in enumerate_ih(GroundSet(3)):
            assert g_map(pm, h).minimal == (0b010,)

    def test_merge_example(self):
        # f(0)=f(1)=0, f(2)=1 sends the hyperspace generated by
        # {{0},{2}} to the one generated by {{0},{1}}
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        assert g_map(pm, ih(3, (0b001, 0b100))).minimal == (0b01, 0b10)

    def test_composition_law(self):
        f = PointMap(GroundSet(3), GroundSet(3), (2, 0, 1))
        g = PointMap(GroundSet(3), GroundSet(2), (0, 1, 1))
        gf = g.compose(f)
        for h in enumerate_ih(GroundSet(3)):
            assert g_map(gf, h) == g_map(g, g_map(f, h))

    def test_ground_mismatch(self):
        pm = PointMap(GroundSet(2), GroundSet(2), (0, 1))
        with pytest.raises(InputError, match="hyperspace does not live on the map's domain"):
            g_map(pm, ih(3, (0b001,)))

    def test_preserves_mls(self):
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 1, 1))
        for s in enumerate_mls(GroundSet(3)):
            h = ih(3, s.minimal)
            assert g_map(pm, h).is_maximal_linked()

    def test_matches_definitional_pushforward(self):
        for a, b in itertools.product(range(1, 4), repeat=2):
            for img in itertools.product(range(b), repeat=a):
                pm = PointMap(GroundSet(a), GroundSet(b), img)
                for h in enumerate_ih(GroundSet(a)):
                    assert frozenset(g_map(pm, h).minimal) == oracles.pushforward(img, b, h.minimal)


class TestCandidateSubbase:
    def test_n2_carrier(self):
        sb, carrier = candidate_subbase_gx(GroundSet(2))
        assert len(carrier) == 4
        # <{0}> = hyperspaces whose up-closure contains {0}
        want = sum(1 << i for i, h in enumerate(carrier) if h.contains(0b01))
        assert want in sb.members
        assert bin(want).count("1") == 2

    def test_full_set_member(self):
        sb, carrier = candidate_subbase_gx(GroundSet(2))
        full = (1 << len(carrier)) - 1
        assert full in sb.members  # <X> is the whole carrier

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_members_match_definitions(self, n):
        """The containment sets {A : F in A}, then the transversal sets
        {A : every member of A meets U}, each over the nonempty subsets in
        canonical order, with the empty ones left out."""
        sb, carrier = candidate_subbase_gx(GroundSet(n))
        ups = [oracles.up_closure_of(frozenset(a.minimal), n) for a in carrier]
        subsets = sorted(range(1, 1 << n), key=lambda m: (oracles.popcount(m), m))
        containment = [sum(1 << i for i, up in enumerate(ups) if f in up) for f in subsets]
        transversal = [sum(1 << i for i, up in enumerate(ups) if all(a & u for a in up)) for u in subsets]
        assert sb.members == tuple(m for m in containment + transversal if m)

    @pytest.mark.parametrize("n", [2, 3])
    def test_candidate_is_binary(self, n):
        # verified by the checker, never assumed
        sb, _ = candidate_subbase_gx(GroundSet(n))
        assert is_binary(sb).ok

    def test_cap(self):
        with pytest.raises(TooLarge):
            candidate_subbase_gx(GroundSet(5))
