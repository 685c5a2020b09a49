from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from supext import subbase
from supext.embed import FiniteTopSpace, RegularOperator, find_regular_operator
from supext.errors import InputError, TooLarge
from supext.setkit import GroundSet
from supext.inclusion import candidate_subbase_gx
from supext.subbase import (
    MAX_MEMBERS,
    Subbase,
    is_binary,
    is_normal,
    is_s_convex,
    s_hull,
    sconvex_retraction,
    subbase_from_json,
    subbase_to_json,
)
from supext.superext import enumerate_mls, eta_point
from supext.verify import lambda_plus_subbase, two_in_three_operator


# {F+} on the 4-system superextension of a 3-point ground set; in
# enumeration order the carrier is eta_0, eta_1, the non-principal
# system, eta_2.
LAM3 = lambda_plus_subbase(3)


class TestIsBinary:
    def test_lambda3(self):
        assert is_binary(LAM3).ok

    def test_singletons(self):
        assert is_binary(Subbase(2, (0b01, 0b10))).ok

    def test_triangle_counterexample(self):
        check = is_binary(Subbase(3, (0b011, 0b110, 0b101)))
        assert not check.ok
        assert set(check.witness) == {0b011, 0b110, 0b101}

    def test_too_large(self):
        with pytest.raises(TooLarge):
            Subbase(1 << 17, (1,))

    def test_member_cap(self):
        assert is_binary(Subbase(2, (1,) * MAX_MEMBERS)).ok
        with pytest.raises(TooLarge, match=f"{MAX_MEMBERS + 1} subbase members exceed {MAX_MEMBERS}"):
            Subbase(2, (1,) * (MAX_MEMBERS + 1))
        # the subbases the package builds itself stay below the cap
        assert len(lambda_plus_subbase(6).members) == 63
        sb, _ = candidate_subbase_gx(GroundSet(4))
        assert len(sb.members) < MAX_MEMBERS

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plus_subbase_binary_normal(self, n):
        sb = lambda_plus_subbase(n)
        assert is_binary(sb).ok
        assert is_normal(sb).ok

    def test_matches_exhaustive_linked_scan(self):
        """The maximal-subfamily shortcut agrees with checking every
        linked subfamily on small carriers."""
        for members in itertools.combinations(range(1, 8), 3):
            sb = Subbase(3, members)
            expect = True
            for r in range(1, 4):
                for sub in itertools.combinations(members, r):
                    if oracles.is_linked_family(frozenset(sub)):
                        inter = sub[0]
                        for m in sub:
                            inter &= m
                        if not inter:
                            expect = False
            assert is_binary(sb).ok == expect, members


class TestIsNormal:
    def test_no_disjoint_pairs(self):
        assert is_normal(Subbase(3, (0b011, 0b110, 0b111))).ok

    def test_failure(self):
        check = is_normal(Subbase(3, (0b001, 0b010)))
        assert not check.ok and set(check.witness) == {0b001, 0b010}

    def test_screens_pair(self):
        # {1},{2} on a 2-point carrier screen each other
        assert is_normal(Subbase(2, (0b01, 0b10))).ok


@st.composite
def subbases(draw, max_carrier=7, max_members=9):
    carrier = draw(st.integers(min_value=1, max_value=max_carrier))
    members = draw(st.lists(st.integers(min_value=1, max_value=(1 << carrier) - 1), max_size=max_members))
    return Subbase(carrier, tuple(members))


class TestAgainstOracles:
    @settings(max_examples=400, deadline=None)
    @given(subbases())
    def test_binary(self, sb):
        check = is_binary(sb)
        assert check.ok == oracles.subbase_binary_literal(sb.members)
        if not check.ok:
            # a maximal linked subfamily of distinct members with no common point
            w = check.witness
            assert check.axiom == "binary" and len(set(w)) == len(w) and set(w) <= set(sb.members)
            assert oracles.is_linked_family(frozenset(w))
            common = -1
            for m in w:
                common &= m
            assert common == 0
            assert all(any(not m & a for a in w) for m in set(sb.members) - set(w))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(subbases(), subbases(max_carrier=12, max_members=40)))
    def test_binary_check_equals_the_reference_scan(self, sb):
        """Verdict, axiom and witness all equal the reference scan's, which
        takes the same pivot, tie-break and branch order."""
        assert tuple(is_binary(sb)) == oracles.is_binary_pivot(sb.members, sb.full)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_binary_check_on_the_plus_subbase_equals_the_reference_scan(self, n):
        sb = lambda_plus_subbase(n)
        assert tuple(is_binary(sb)) == oracles.is_binary_pivot(sb.members, sb.full) == (True, None, None)

    @settings(max_examples=400, deadline=None)
    @given(subbases())
    def test_normal(self, sb):
        check = is_normal(sb)
        expected = oracles.subbase_normal_literal(sb.members, sb.full)
        assert (None if check.ok else check.witness) == expected
        assert check.axiom == (None if check.ok else "normal")


class TestHull:
    def test_member_is_its_own_hull(self):
        for m in LAM3.members:
            assert s_hull(LAM3, m) == m

    def test_point_hull(self):
        assert s_hull(LAM3, 0b0001) == 0b0001

    def test_uncovered_gives_carrier(self):
        sb = Subbase(3, (0b001,))
        assert s_hull(sb, 0b110) == 0b111

    def test_pair_example(self):
        # hull of {eta_0, eta_1} picks up the non-principal system,
        # which sits at carrier index 2 in enumeration order
        assert s_hull(LAM3, 0b0011) == 0b0111

    def test_closure_operator(self):
        carrier_bits = 4
        for a in range(1 << carrier_bits):
            h = s_hull(LAM3, a)
            assert h & a == a  # extensive
            assert s_hull(LAM3, h) == h  # idempotent
            for b in range(1 << carrier_bits):
                if a & b == a:
                    assert h & s_hull(LAM3, b) == h  # monotone


class TestSConvex:
    def test_singletons_and_members(self):
        for x in range(4):
            assert is_s_convex(LAM3, 1 << x)
        for m in LAM3.members:
            assert is_s_convex(LAM3, m)

    def test_pair_not_convex(self):
        assert not is_s_convex(LAM3, 0b0011)


class TestRetraction:
    def test_identity(self):
        e = RegularOperator.identity(FiniteTopSpace.discrete(3))
        sb = Subbase(3, tuple(range(1, 8)))
        r = sconvex_retraction(e, sb)
        assert tuple(r) == (0b001, 0b010, 0b100)

    def test_two_in_three(self):
        e = two_in_three_operator()
        sb = Subbase(2, (0b01, 0b10, 0b11))
        r = sconvex_retraction(e, sb)
        assert r[0] == 0b01 and r[1] == 0b10
        assert r[2] == 0b11  # the extra point retracts onto all of X

    def test_values_nonempty_and_convex(self):
        e = two_in_three_operator()
        sb = Subbase(2, (0b01, 0b10, 0b11))
        for v in sconvex_retraction(e, sb):
            assert v
            assert is_s_convex(sb, v)

    def test_matches_the_literal_values(self):
        """On the least operators of seeded random embeddings, each a subspace
        of a random partial order on up to 6 points with the trace topology,
        and seeded random subbases on it."""
        compared = 0
        for seed in range(300):
            rng = random.Random(seed)
            nb: list[int] = []
            for p in range(rng.randint(1, 6)):
                nb.append(1 << p)
                for q in range(p):
                    if rng.random() < 0.4:
                        nb[p] |= nb[q]
            y = FiniteTopSpace(len(nb), tuple(nb))
            inject = tuple(rng.sample(range(y.n), rng.randint(1, y.n)))
            x_nb = tuple(sum(1 << j for j, q in enumerate(inject) if nb[p] >> q & 1) for p in inject)
            x = FiniteTopSpace(len(inject), x_nb)
            e = find_regular_operator(x, y, inject)
            if e is None:
                continue
            members = tuple(rng.randint(1, x.full) for _ in range(rng.randint(1, 5)))
            expected = oracles.sconvex_retraction_literal(e.table, x.min_nbhd, members, y.n)
            assert sconvex_retraction(e, Subbase(x.n, members)) == expected, seed
            compared += 1
        assert compared >= 250

    def test_one_hull_per_open(self, monkeypatch):
        """The 10-point discrete identity has 1,023 nonempty opens, and each
        point lies in the images of 512 of them."""
        hulls = []

        def counting(sb, a):
            hulls.append(a)
            return s_hull(sb, a)

        monkeypatch.setattr(subbase, "s_hull", counting)
        e = RegularOperator.identity(FiniteTopSpace.discrete(10))
        r = sconvex_retraction(e, Subbase(10, tuple(1 << x for x in range(10))))
        assert r == tuple(1 << x for x in range(10))
        assert len(hulls) == len(set(hulls)) == 1023


class TestJson:
    def test_round_trip(self):
        sb = Subbase(5, (0b00111, 0b11000))
        assert subbase_from_json(subbase_to_json(sb)) == sb

    def test_malformed(self):
        with pytest.raises(InputError):
            subbase_from_json('{"carrier": 3}')
