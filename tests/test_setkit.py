from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from supext import setkit
from supext.errors import InputError, TooLarge
from supext.setkit import (
    MAX_GROUND,
    Antichain,
    GroundSet,
    PointMap,
    SetFamily,
    _canonical,
    _complements,
    _covered,
    _disjoint,
    _down,
    bits,
    canonical_key,
    is_self_dual_upclosed,
    minimal_members,
    up_closure,
)
from supext.inclusion import InclusionHyperspace
from supext.superext import MaxLinkedSystem, complete_linked, eta_point


def family(n: int, masks) -> SetFamily:
    return SetFamily.of(GroundSet(n), masks)


def members(fam: int) -> set[int]:
    """The masks whose bits a family bitset holds."""
    return set(bits(fam))


@st.composite
def ground_and_masks(draw, max_n=6, least=0):
    n = draw(st.integers(min_value=1, max_value=max_n))
    full = (1 << n) - 1
    return n, draw(st.lists(st.integers(min_value=least, max_value=full), max_size=8))


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
            g.check_mask(-1)


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
    """``complete_linked`` takes exactly the linked families free of the empty set."""

    def test_examples(self):
        assert complete_linked(family(3, [0b011, 0b110, 0b101])).minimal == (0b011, 0b101, 0b110)
        with pytest.raises(InputError, match="must be linked"):
            complete_linked(family(3, [0b001, 0b110]))
        with pytest.raises(InputError, match="must be linked"):
            complete_linked(family(3, [0, 0b111]))
        assert complete_linked(family(3, [])) == eta_point(GroundSet(3), 0)

    @given(ground_and_masks())
    def test_matches_oracle(self, nm):
        n, masks = nm
        fam = family(n, masks)
        if oracles.is_linked_family(frozenset(masks)):
            done = complete_linked(fam)
            assert set(fam.masks) <= members(up_closure(done.minimal, n))
            assert frozenset(done.minimal) == oracles.complete_linked_greedy(frozenset(masks), n)
        else:
            with pytest.raises(InputError, match="must be linked"):
                complete_linked(fam)


@st.composite
def member_tuples(draw):
    """A ground size n <= 6 and a tuple of masks, in any order or (half the
    time) in canonical order, so that repeated, nested and disjoint members
    all occur; a quarter of the tuples also hold one mask that is empty or
    leaves the ground."""
    n = draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(min_value=1, max_value=full), max_size=6))
    if draw(st.booleans()):
        masks = sorted(set(masks), key=canonical_key)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        bad = draw(st.sampled_from([-1, 0, full + 1]))
        masks.insert(draw(st.integers(min_value=0, max_value=len(masks))), bad)
    return n, tuple(masks)


class TestAntichainRules:
    """Every antichain class accepts a tuple of members exactly when the
    oracle's pair scan, and for maximal linked systems its test from the
    definition, find no fault in it, and a refusal names a fault that the
    oracle found."""

    @settings(max_examples=400, deadline=None)
    @given(member_tuples(), st.sampled_from([Antichain, MaxLinkedSystem, InclusionHyperspace]))
    @example((3, (0b001, 0b010)), MaxLinkedSystem)
    @example((3, (0,)), Antichain)
    @example((2, (0b100,)), InclusionHyperspace)
    @example((3, (0b001, 0b001)), Antichain)
    @example((3, (0b011, 0b001)), MaxLinkedSystem)
    @example((3, (0b011,)), MaxLinkedSystem)
    @example((3, (0b011, 0b101, 0b110)), MaxLinkedSystem)
    def test_matches_pair_scan(self, nm, cls):
        n, minimal = nm
        faults = oracles.antichain_faults(minimal, n, maximal=cls is MaxLinkedSystem)
        try:
            made = cls(GroundSet(n), minimal)
        except InputError as e:
            assert any(fault in str(e) for fault in faults), (str(e), faults)
        else:
            assert not faults and made.minimal == minimal

    def test_order_is_checked_without_reading_the_family_back(self, monkeypatch):
        """Order and duplicates are checked on neighbouring members: with the
        family bitset readout made to raise, valid families still build and
        misordered or repeated members are still refused."""

        def no_readout(word, n):
            raise AssertionError("family bitset read back")

        monkeypatch.setattr(setkit, "_canonical", no_readout)
        majority = tuple(sorted((m for m in range(1 << 7) if m.bit_count() == 4), key=canonical_key))
        assert MaxLinkedSystem(GroundSet(7), majority).minimal == majority
        assert InclusionHyperspace(GroundSet(3), (0b001, 0b110)).minimal == (0b001, 0b110)
        assert SetFamily(GroundSet(3), (0, 0b100, 0b011, 0b111)).masks == (0, 0b100, 0b011, 0b111)
        for minimal in [(0b011, 0b001), (0b001, 0b001), majority[1:] + majority[:1]]:
            with pytest.raises(InputError, match="minimal members must be canonically ordered"):
                MaxLinkedSystem(GroundSet(7), minimal)
        for masks in [(0b011, 0b100), (0b100, 0b100)]:
            with pytest.raises(InputError, match="duplicate-free and canonically ordered"):
                SetFamily(GroundSet(3), masks)


class TestUpClosure:
    def test_example(self):
        assert members(up_closure([0b001], 3)) == {0b001, 0b011, 0b101, 0b111}

    @given(ground_and_masks())
    def test_idempotent(self, nm):
        n, masks = nm
        once = up_closure(masks, n)
        assert up_closure(bits(once), n) == once

    @given(ground_and_masks())
    def test_monotone_and_contains(self, nm):
        n, masks = nm
        closed = members(up_closure(masks, n))
        assert set(masks) <= closed
        for m in masks:
            for sup in range(1 << n):
                if m & sup == m:
                    assert sup in closed


class TestMinimalMembers:
    def test_example(self):
        fam = up_closure([0b001, 0b011, 0b110, 0b111], 3)
        assert minimal_members(fam, 3) == (0b001, 0b110)

    @given(ground_and_masks())
    def test_antichain_with_same_closure(self, nm):
        n, masks = nm
        mins = minimal_members(up_closure(masks, n), n)
        for a in mins:
            for b in mins:
                if a != b:
                    assert a & b != a
        assert up_closure(mins, n) == up_closure(masks, n)

    @given(ground_and_masks(least=1))
    def test_up_contains_agrees(self, nm):
        n, masks = nm
        assume(masks)  # an antichain needs a member
        closed = up_closure(masks, n)
        chain = Antichain(GroundSet(n), minimal_members(closed, n))
        for mask in range(1 << n):
            assert chain.contains(mask) == bool(closed >> mask & 1)


class TestSelfDual:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_characterizes_maximality(self, n):
        """Self-dual up-closed families are exactly the maximal linked
        ones found by the brute-force scan."""
        expected = set(oracles.scan_maximal_linked(n))
        hits = set()
        for chain in oracles.all_antichains(n):
            fam = up_closure(chain, n)
            if is_self_dual_upclosed(fam, n):
                hits.add(frozenset(bits(fam)))
        assert hits == expected

    def test_negative(self):
        assert not is_self_dual_upclosed(up_closure([0b11], 2), 2)
        assert not is_self_dual_upclosed(1 << 0b01, 2)


@settings(max_examples=300, deadline=None)
@given(ground_and_masks(max_n=5, least=1))
def test_bitset_operations_match_oracles(nm):
    """The three family operations against the definitions, on the up-closure
    of the drawn sets and, for self-duality, on the drawn sets as they are."""
    n, masks = nm
    fam = oracles.up_closure_of(frozenset(masks), n)
    closed = up_closure(masks, n)
    assert members(closed) == fam
    assert minimal_members(closed, n) == tuple(sorted(oracles.minimal_of(fam), key=canonical_key))
    assert is_self_dual_upclosed(closed, n) == oracles.is_maximal_linked(fam, n)
    drawn = frozenset(masks)
    assert is_self_dual_upclosed(sum(1 << m for m in drawn), n) == (
        oracles.is_up_closed(drawn, n) and oracles.is_maximal_linked(drawn, n)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_family_codec_matches_definitions(data):
    """The family-bitset helpers against their definitions, on every ground
    size up to MAX_GROUND; the per-subset table of disjoint sets up to n = 10."""
    n = data.draw(st.integers(min_value=1, max_value=MAX_GROUND))
    full = (1 << n) - 1
    sets = st.integers(min_value=0, max_value=full)
    word = sum(1 << a for a in data.draw(st.sets(sets, max_size=40)))
    m = data.draw(sets)
    assert _canonical(word, n) == tuple(sorted(bits(word), key=canonical_key))
    assert _complements(word, n) == sum(1 << (full ^ a) for a in bits(word))
    assert members(_covered(word, n)) == {t | 1 << x for t in bits(word) for x in range(n) if not t >> x & 1}
    assert _down(m) == sum(1 << t for t in range(full + 1) if t & m == t)
    if n <= 10:
        assert _disjoint(n)[m] == sum(1 << t for t in range(full + 1) if not t & m)


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
