from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import oracles
from supext.errors import InputError, TooLarge
from supext.setkit import (
    GroundSet,
    PointMap,
    SetFamily,
    Subset,
    canonical_key,
    family_from_json,
    family_to_json,
    is_linked,
    is_self_dual_upclosed,
    minimal_members,
    up_closure,
    up_contains,
)


def family(n: int, masks) -> SetFamily:
    return SetFamily.of(GroundSet(n), masks)


@st.composite
def ground_and_family(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))
    return GroundSet(n), SetFamily.of(GroundSet(n), masks)


class TestGroundSet:
    def test_bounds(self):
        with pytest.raises(InputError):
            GroundSet(0)
        with pytest.raises(TooLarge):
            GroundSet(17)
        assert GroundSet(16).full == 0xFFFF

    def test_mask_check(self):
        g = GroundSet(3)
        g.check_mask(0b111)
        with pytest.raises(InputError, match="mask 0x8 uses bits outside ground set"):
            g.check_mask(0b1000)
        with pytest.raises(InputError, match="uses bits outside ground set"):
            Subset(g, -1)


class TestSubset:
    def test_members_and_complement(self):
        s = Subset(GroundSet(4), 0b1010)
        assert s.members() == (1, 3)
        assert s.complement().mask == 0b0101
        assert len(s) == 2
        assert 1 in s and 0 not in s


class TestSetFamily:
    def test_canonical_order(self):
        fam = family(3, [0b111, 0b011, 0b100, 0b011])
        assert fam.masks == (0b100, 0b011, 0b111)

    def test_rejects_noncanonical(self):
        with pytest.raises(InputError):
            SetFamily(GroundSet(3), (0b111, 0b001))

    def test_key(self):
        assert canonical_key(0b100) < canonical_key(0b011) < canonical_key(0b110)


class TestLinked:
    def test_examples(self):
        assert is_linked(family(3, [0b011, 0b110, 0b101]))
        assert not is_linked(family(3, [0b001, 0b110]))
        assert not is_linked(family(3, [0, 0b111]))
        assert is_linked(family(3, []))

    @given(ground_and_family())
    def test_matches_oracle(self, gf):
        _, fam = gf
        assert is_linked(fam) == (
            0 not in fam.masks
            and oracles.is_linked_family(frozenset(fam.masks))
        )


class TestUpClosure:
    def test_example(self):
        fam = up_closure(family(3, [0b001]))
        assert fam.masks == (0b001, 0b011, 0b101, 0b111)

    @given(ground_and_family())
    def test_idempotent(self, gf):
        _, fam = gf
        once = up_closure(fam)
        assert up_closure(once) == once

    @given(ground_and_family())
    def test_monotone_and_contains(self, gf):
        _, fam = gf
        closed = set(up_closure(fam).masks)
        assert set(fam.masks) <= closed
        for m in fam.masks:
            for sup in range(fam.ground.full + 1):
                if m & sup == m:
                    assert sup in closed


class TestMinimalMembers:
    def test_example(self):
        fam = family(3, [0b001, 0b011, 0b110, 0b111])
        assert minimal_members(fam).masks == (0b001, 0b110)

    @given(ground_and_family())
    def test_antichain_with_same_closure(self, gf):
        _, fam = gf
        mins = minimal_members(fam)
        for a in mins.masks:
            for b in mins.masks:
                if a != b:
                    assert a & b != a
        assert up_closure(mins) == up_closure(fam)

    @given(ground_and_family())
    def test_up_contains_agrees(self, gf):
        g, fam = gf
        mins = minimal_members(fam).masks
        closed = set(up_closure(fam).masks)
        for mask in range(g.full + 1):
            assert up_contains(mins, mask) == (mask in closed)


class TestSelfDual:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_characterizes_maximality(self, n):
        """Self-dual up-closed families are exactly the maximal linked
        ones found by the brute-force scan."""
        expected = set(oracles.scan_maximal_linked(n))
        g = GroundSet(n)
        hits = set()
        for chain in oracles.all_antichains(n):
            fam = up_closure(SetFamily.of(g, chain))
            if is_self_dual_upclosed(fam):
                hits.add(frozenset(fam.masks))
        assert hits == expected

    def test_negative(self):
        assert not is_self_dual_upclosed(up_closure(family(2, [0b11])))
        assert not is_self_dual_upclosed(family(2, [0b01]))


class TestPointMap:
    def test_masks(self):
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        assert pm.image_mask(0b011) == 0b01
        assert pm.image_mask(0b110) == 0b11
        assert pm.preimage_mask(0b10) == 0b100
        assert pm.is_surjective()
        assert not PointMap(GroundSet(2), GroundSet(2), (0, 0)).is_surjective()

    def test_compose_identity(self):
        g, h = GroundSet(3), GroundSet(2)
        pm = PointMap(g, h, (1, 0, 1))
        assert pm.compose(PointMap.identity(g)) == pm
        assert PointMap.identity(h).compose(pm) == pm
        with pytest.raises(InputError):
            pm.compose(pm)

    def test_total(self):
        with pytest.raises(InputError):
            PointMap(GroundSet(3), GroundSet(2), (0, 1))
        with pytest.raises(InputError, match="point 2 outside ground set of size 2"):
            PointMap(GroundSet(2), GroundSet(2), (0, 2))


class TestJson:
    def test_round_trip(self):
        fam = family(5, [0b00111, 0b11000, 0b10101])
        text = family_to_json(fam)
        assert '"sets"' in text and '"n": 5' in text
        assert family_from_json(text) == fam

    def test_hex_lowercase(self):
        assert '"1f"' in family_to_json(family(5, [0b11111]))

    @pytest.mark.parametrize(
        "bad",
        ['{"n": 3}', '{"n": "x", "sets": []}', '{"n": 3, "sets": ["zz"]}', "[]"],
    )
    def test_malformed(self, bad):
        with pytest.raises(InputError):
            family_from_json(bad)
