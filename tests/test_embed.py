from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from supext.embed import (
    FiniteTopSpace,
    RegularOperator,
    UscoMap,
    check_usco_map,
    compose_operators,
    find_regular_operator,
    operator_from_json,
    operator_to_json,
    product_operator,
    regular_from_usco,
    usco_from_regular,
    validate_regular,
)
from supext.errors import Check, InputError
from supext.setkit import GroundSet, bits
from supext.superext import MaxLinkedSystem, enumerate_mls, eta_point
from supext.verify import standard_operators, two_in_three_operator

SIERPINSKI = FiniteTopSpace(2, (0b01, 0b11))


def preorder_space(nb: list[int]) -> FiniteTopSpace:
    """The space whose minimal neighborhoods are the given masks, each
    grown until it holds the neighborhoods of its points; each mask must
    hold its own point."""
    grown = True
    while grown:
        grown = False
        for p in range(len(nb)):
            for q in bits(nb[p]):
                if nb[q] & ~nb[p]:
                    nb[p] |= nb[q]
                    grown = True
    return FiniteTopSpace(len(nb), tuple(nb))


class TestFiniteTopSpace:
    def test_discrete_opens(self):
        assert FiniteTopSpace.discrete(2).opens() == (0, 0b01, 0b10, 0b11)

    def test_sierpinski_opens(self):
        assert SIERPINSKI.opens() == (0, 0b01, 0b11)

    def test_chain_opens_count(self):
        chain = FiniteTopSpace(3, (0b001, 0b011, 0b111))
        assert chain.opens() == (0, 0b001, 0b011, 0b111)
        assert chain.opens() == oracles.opens_literal(chain.min_nbhd)

    def test_opens_match_downset_oracle(self):
        """Every topology on at most 4 points lists the masks that hold the
        minimal neighborhood of each of their points, in canonical order."""
        samples = [
            FiniteTopSpace.discrete(3),
            SIERPINSKI,
            FiniteTopSpace(3, (0b001, 0b010, 0b111)),
            FiniteTopSpace(4, (0b0001, 0b0011, 0b0111, 0b1000)),
        ]
        for sp in samples + [sp for n in (1, 2, 3, 4) for sp in spaces(n)]:
            assert sp.opens() == oracles.opens_literal(sp.min_nbhd)

    def test_opens_on_random_preorders(self):
        """Seeded random preorders on 5 to 10 points, 20 of each size."""
        rng = random.Random(24)
        for n in range(5, 11):
            for _ in range(20):
                density = rng.choice((0.05, 0.15, 0.3))
                nb = [1 << p | sum(1 << q for q in range(n) if rng.random() < density) for p in range(n)]
                sp = preorder_space(nb)
                assert sp.opens() == oracles.opens_literal(sp.min_nbhd)

    def test_opens_without_is_open(self, monkeypatch):
        """Four disjoint 4-point chains: 625 of the 65,536 masks are open, and
        none of the masks is put to is_open."""
        chain = (0b0001, 0b0011, 0b0111, 0b1111)
        space = FiniteTopSpace(16, tuple(nb << 4 * c for c in range(4) for nb in chain))

        def refuse(self, mask):
            raise AssertionError(f"is_open({mask:#x}) called")

        monkeypatch.setattr(FiniteTopSpace, "is_open", refuse)
        opens = space.opens()
        monkeypatch.undo()
        assert len(opens) == 5**4 and opens == oracles.opens_literal(space.min_nbhd)

    def test_invalid_neighborhoods(self):
        with pytest.raises(InputError):
            FiniteTopSpace(2, (0b10, 0b11))  # 0 not in its own nbhd
        with pytest.raises(InputError):
            FiniteTopSpace(3, (0b011, 0b110, 0b100))  # preorder violated

    def test_mask_outside_the_space_is_not_open(self):
        space = FiniteTopSpace.discrete(2)
        assert space.is_open(0b11)
        assert not space.is_open(0b101) and not space.is_open(-1) and not space.is_open(-4)

    def test_closure(self):
        assert SIERPINSKI.closure(0b01) == 0b11
        assert SIERPINSKI.closure(0b10) == 0b10
        assert FiniteTopSpace.discrete(3).closure(0b101) == 0b101

    def test_product(self):
        p = SIERPINSKI.product(SIERPINSKI)
        assert p.n == 4
        assert p.opens() == oracles.opens_literal(p.min_nbhd)


class TestValidateRegular:
    def test_identity(self):
        for n in (1, 2, 3):
            e = RegularOperator.identity(FiniteTopSpace.discrete(n))
            assert validate_regular(e).ok

    def test_two_in_three(self):
        assert validate_regular(two_in_three_operator()).ok

    def test_trace_violation(self):
        e0 = two_in_three_operator()
        bad_table = tuple((u, e0.codomain.full if u == 0b01 else eu) for u, eu in e0.table)
        bad = RegularOperator(e0.domain, e0.codomain, e0.inject, bad_table)
        check = validate_regular(bad)
        assert not check.ok and check.axiom == "trace"

    def test_empty_set_violation(self):
        e0 = two_in_three_operator()
        bad_table = tuple((u, eu if u else 0b001) for u, eu in e0.table)
        bad = RegularOperator(e0.domain, e0.codomain, e0.inject, bad_table)
        assert validate_regular(bad).axiom == "empty set must map to the empty set"

    def test_disjointness_violation(self):
        x = FiniteTopSpace.discrete(2)
        y = FiniteTopSpace.discrete(3)
        e = RegularOperator(
            x, y, (0, 1), ((0, 0), (0b01, 0b101), (0b10, 0b110), (0b11, 0b111))
        )
        assert validate_regular(e).axiom == "disjointness"

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_disjointness_matches_pair_scan(self, data):
        """Verdict and witness against the scan over every pair of entries, on
        operators that pass the other axioms: X on up to 5 points, discrete or
        a random preorder, inside a discrete Y with up to 3 more points, each
        image the injected open plus drawn points outside X."""
        n = data.draw(st.integers(min_value=1, max_value=5))
        nb = [1 << p for p in range(n)]
        if data.draw(st.booleans()):
            nb = [m | data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for m in nb]
        x = preorder_space(nb)
        m = n + data.draw(st.integers(min_value=0, max_value=3))
        inject = tuple(data.draw(st.permutations(range(m)))[:n])
        outside = (1 << m) - 1 - sum(1 << y for y in inject)
        table = [(0, 0)]
        for u in x.opens()[1:]:
            spill = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1)) & outside
            table.append((u, sum(1 << inject[p] for p in bits(u)) | spill))
        e = RegularOperator(x, FiniteTopSpace.discrete(m), inject, tuple(table))
        pair = oracles.first_disjoint_pair_literal(e.table)
        assert validate_regular(e) == (Check(True) if pair is None else Check(False, "disjointness", pair))

    def test_standard_operators(self):
        for name, op in standard_operators():
            assert validate_regular(op).ok, name

    @pytest.mark.parametrize("image", [0b100, -1], ids=["past-y", "negative"])
    def test_image_outside_codomain(self, image):
        x, y = FiniteTopSpace.discrete(1), FiniteTopSpace.discrete(2)
        e = RegularOperator(x, y, (0,), ((0, 0), (1, image)))
        assert validate_regular(e) == Check(False, "image not open", (1, image))

    def test_open_listed_twice(self):
        x, y = FiniteTopSpace.discrete(1), FiniteTopSpace.discrete(2)
        e = RegularOperator(x, y, (0,), ((0, 0), (1, 0b01), (1, 0b11)))
        assert validate_regular(e) == Check(False, "table must cover exactly the opens of the domain", (1,))


class TestProductCompose:
    def test_product_of_identities(self):
        e = RegularOperator.identity(FiniteTopSpace.discrete(2))
        p = product_operator([e, e])
        assert p.domain.n == 4 and validate_regular(p).ok
        # identity products stay the identity on every open
        for u, eu in p.table:
            assert u == eu

    def test_product_two_in_three(self):
        p = product_operator([two_in_three_operator(), two_in_three_operator()])
        assert p.codomain.n == 9
        assert validate_regular(p).ok

    def test_product_box_trace(self):
        p = product_operator([two_in_three_operator(), two_in_three_operator()])
        look = p.lookup()
        # trace axiom on basic boxes, exhaustively for both 2-point factors
        for u1 in (0b01, 0b10, 0b11):
            for u2 in (0b01, 0b10, 0b11):
                box = 0
                for a in range(2):
                    for b in range(2):
                        if u1 >> a & 1 and u2 >> b & 1:
                            box |= 1 << (a * 2 + b)
                assert look[box] & p.x_image == p.image_mask(box)

    def test_product_single(self):
        e = two_in_three_operator()
        p = product_operator([e])
        assert p.table == e.table

    def test_compose_identity(self):
        e = two_in_three_operator()
        assert compose_operators(e, RegularOperator.identity(e.domain)).table == e.table

    def test_compose_two_in_three_in_four(self):
        ops = dict(standard_operators())
        chained = ops["two-in-three-in-four"]
        assert chained.codomain.n == 4
        assert validate_regular(chained).ok

    def test_compose_mismatch(self):
        e = two_in_three_operator()
        with pytest.raises(InputError, match="inner codomain must be the outer domain"):
            compose_operators(e, e)


class TestUscoFromRegular:
    def test_identity(self):
        g = GroundSet(2)
        e = RegularOperator.identity(FiniteTopSpace.discrete(2))
        r = usco_from_regular(e)
        assert r.values == ((eta_point(g, 0),), (eta_point(g, 1),))

    def test_two_in_three(self):
        r = usco_from_regular(two_in_three_operator())
        g = GroundSet(2)
        assert r.values[0] == (eta_point(g, 0),)
        assert r.values[1] == (eta_point(g, 1),)
        assert r.values[2] == tuple(enumerate_mls(g))  # fallback: whole lambda X
        assert check_usco_map(r) == Check(True)
        assert r.is_usc()

    def test_invalid_operator_rejected(self):
        e0 = two_in_three_operator()
        bad_table = tuple((u, e0.codomain.full if u == 0b01 else eu) for u, eu in e0.table)
        bad = RegularOperator(e0.domain, e0.codomain, e0.inject, bad_table)
        with pytest.raises(InputError, match="operator fails"):
            usco_from_regular(bad)

    def test_all_standard(self):
        for name, op in standard_operators():
            r = usco_from_regular(op)
            assert check_usco_map(r).ok, name
            for vals in r.values:
                assert vals, name

    def test_matches_the_literal_values(self):
        """r(y) against the definition, for the least operator of a discrete
        X of at most 3 points in every Y of at most 4, every injection."""
        ambient = {n: spaces(n) for n in (1, 2, 3, 4)}
        checked = 0
        for m in (1, 2, 3):
            x = FiniteTopSpace.discrete(m)
            systems = [eta.minimal for eta in enumerate_mls(GroundSet(m))]
            for n in range(m, 5):
                for y in ambient[n]:
                    for inject in itertools.permutations(range(n), m):
                        e = find_regular_operator(x, y, inject)
                        if e is None:
                            continue
                        values = [[eta.minimal for eta in vals] for vals in usco_from_regular(e).values]
                        assert values == oracles.usco_values_literal(e.table, systems, n)
                        checked += 1
        assert checked == 3_108

    def test_non_t1_domain_rejected(self):
        """On the indiscrete 2-point space the identity operator is regular,
        but r(0) would hold both principal systems: refused up front."""
        space = FiniteTopSpace(2, (0b11, 0b11))
        e = RegularOperator.identity(space)
        assert validate_regular(e).ok
        with pytest.raises(InputError, match="domain is not T1: point 0"):
            usco_from_regular(e)


class TestCheckUscoMap:
    def test_empty_value(self):
        r0 = usco_from_regular(two_in_three_operator())
        broken = UscoMap(r0.space, (r0.values[0], (), r0.values[2]), r0.inject)
        assert check_usco_map(broken) == Check(False, "nonempty", 1)

    def test_not_point_fixed(self):
        r0 = usco_from_regular(two_in_three_operator())
        g = GroundSet(2)
        swapped = UscoMap(
            r0.space, ((eta_point(g, 1),), r0.values[1], r0.values[2]), r0.inject
        )
        assert check_usco_map(swapped) == Check(False, "point-fixed", 0)

    def test_not_usc(self):
        # point 2's minimal nbhd is the whole space, so r(0) must sit
        # inside r(2); shrink r(2) below r(0) to break usc
        r0 = usco_from_regular(two_in_three_operator())
        g = GroundSet(2)
        shrunk = UscoMap(
            r0.space, (r0.values[0], r0.values[1], (eta_point(g, 1),)), r0.inject
        )
        assert check_usco_map(shrunk) == Check(False, "usc", 2)

    @pytest.mark.parametrize("third", ["3-point system", "list", "masks"])
    def test_values_live_on_the_domain(self, third):
        """A value holds maximal linked systems on the domain's points only:
        a 3-point system in a map from 2 points would pass every check and
        be read as sets of the 2 points."""
        g = GroundSet(2)
        xi = MaxLinkedSystem(GroundSet(3), (0b011, 0b101, 0b110))
        value = {"3-point system": (xi,), "list": [eta_point(g, 0)], "masks": ((0b01,),)}[third]
        with pytest.raises(InputError, match="each value must be a tuple of maximal linked systems on 2 points"):
            UscoMap(FiniteTopSpace.discrete(3), ((eta_point(g, 0),), (eta_point(g, 1),), value), (0, 1))

    def test_regular_from_usco_needs_a_usco_map(self):
        r0 = usco_from_regular(two_in_three_operator())
        broken = UscoMap(r0.space, (r0.values[0], (), r0.values[2]), r0.inject)
        with pytest.raises(InputError, match="usco map fails nonempty at point 1"):
            regular_from_usco(broken)


def constant_off_x() -> UscoMap:
    """Principal systems on the two embedded points, the whole superextension on the third."""
    g = GroundSet(2)
    lam = enumerate_mls(g)
    return UscoMap(FiniteTopSpace.discrete(3), ((eta_point(g, 0),), (eta_point(g, 1),), lam), (0, 1))


USCO_MAPS = [(name, usco_from_regular(op)) for name, op in standard_operators()]
USCO_MAPS.append(("constant-off-x", constant_off_x()))


@pytest.mark.parametrize("name_r", USCO_MAPS, ids=lambda p: p[0])
def test_regular_from_usco_matches_the_uplus_definition(name_r):
    _, r = name_r
    values = [[eta.minimal for eta in vals] for vals in r.values]
    assert dict(regular_from_usco(r).table) == oracles.uplus_operator_literal(values, len(r.inject))


class TestRoundTrip:
    def test_identity(self):
        e = RegularOperator.identity(FiniteTopSpace.discrete(3))
        back = regular_from_usco(usco_from_regular(e))
        assert validate_regular(back).ok
        for u, eu in back.table:
            assert eu & back.x_image == back.image_mask(u)

    @pytest.mark.parametrize("name_op", standard_operators(), ids=lambda p: p[0])
    def test_standard(self, name_op):
        _, op = name_op
        back = regular_from_usco(usco_from_regular(op))
        assert validate_regular(back).ok

    def test_constant_off_x(self):
        """r = whole superextension off X gives e(U) = U for U != X."""
        e = regular_from_usco(constant_off_x())
        look = e.lookup()
        assert look[0b01] == 0b01 and look[0b10] == 0b10
        assert look[0b11] & 0b011 == 0b011
        assert validate_regular(e).ok


def spaces(n: int) -> list[FiniteTopSpace]:
    """Every topology on n points, as the minimal neighborhoods of a preorder."""
    out = []
    for nbhd in itertools.product(range(1 << n), repeat=n):
        if all(nbhd[x] >> x & 1 and all(nbhd[y] & ~nbhd[x] == 0 for y in bits(nbhd[x])) for x in range(n)):
            out.append(FiniteTopSpace(n, nbhd))
    return out


def least_images(x: FiniteTopSpace, y: FiniteTopSpace, inject: tuple[int, ...]) -> dict[int, int]:
    """U -> the union of the minimal neighborhoods in Y of the image of U."""
    return {u: functools.reduce(int.__or__, (y.min_nbhd[inject[p]] for p in bits(u)), 0) for u in x.opens()}


def embeddings(x_sizes, y_sizes):
    """Every (X, Y, inject) with X and Y of the given sizes."""
    for m in x_sizes:
        for n in y_sizes:
            for x, y in itertools.product(spaces(m), spaces(n)):
                for inject in itertools.permutations(range(n), m):
                    yield x, y, inject


class TestFindRegular:
    def test_matches_the_search(self):
        """The least operator is the one the canonical-order backtracking
        search finds first, and exists exactly when the search finds one:
        every X of at most 2 points, in every Y of at most 4, every injection."""
        triples = found = 0
        for x, y, inject in embeddings((1, 2), (1, 2, 3, 4)):
            e = find_regular_operator(x, y, inject)
            assert (e and e.lookup()) == oracles.regular_operator_search(x.min_nbhd, y.min_nbhd, inject)
            triples += 1
            found += e is not None
        assert triples == 19_284 and 0 < found < triples

    def test_least_of_all_regular_operators(self):
        """Every regular operator holds the least images, for every X of at
        most 2 points in every Y of at most 3; every table is tried whose
        images have the right trace."""
        operators = 0
        for x, y, inject in embeddings((1, 2), (1, 2, 3)):
            x_image, opens_x = sum(1 << i for i in inject), x.opens()
            traced = [[v for v in y.opens() if v & x_image == sum(1 << inject[p] for p in bits(u))] for u in opens_x]
            least = find_regular_operator(x, y, inject)
            regular = []
            for images in itertools.product(*traced):
                e = RegularOperator(x, y, inject, tuple(zip(opens_x, images)))
                if validate_regular(e).ok:
                    regular.append(e)
            assert (least is None) == (not regular)
            for e in regular:
                assert all(least_image & ~eu == 0 for (_, least_image), (_, eu) in zip(least.table, e.table))
            operators += len(regular)
        assert operators == 1_012

    @pytest.mark.parametrize("case", ["point-in-no-proper-open", "attached-points", "point-in-every-open"])
    def test_seven_points(self, case):
        """Ambient spaces of 7 points: the least operator, or None where the
        search finds none."""
        if case == "point-in-no-proper-open":
            # a discrete X of 6 points and a seventh point in no open but Y
            x = FiniteTopSpace.discrete(6)
            y = FiniteTopSpace(7, tuple(1 << p for p in range(6)) + (0b1111111,))
            inject = tuple(range(6))
        elif case == "attached-points":
            # each point of a discrete 3-point X drags a point of its own
            # into every open around it; the seventh point stands alone
            x = FiniteTopSpace.discrete(3)
            y = FiniteTopSpace(7, (0b0001001, 0b0010010, 0b0100100, 0b0001000, 0b0010000, 0b0100000, 0b1000000))
            inject = (0, 1, 2)
        else:
            # a seventh point in every nonempty open: disjoint opens of X
            # cannot go to disjoint opens
            x = FiniteTopSpace.discrete(6)
            y = FiniteTopSpace(7, tuple(1 << p | 1 << 6 for p in range(6)) + (1 << 6,))
            inject = tuple(range(6))
        e = find_regular_operator(x, y, inject)
        search = oracles.regular_operator_search(x.min_nbhd, y.min_nbhd, inject)
        assert (e and e.lookup()) == search
        if case == "point-in-every-open":
            assert e is None
        else:
            assert e.lookup() == least_images(x, y, inject) and validate_regular(e).ok

    def test_finds_two_in_three(self):
        x = FiniteTopSpace.discrete(2)
        y = two_in_three_operator().codomain
        e = find_regular_operator(x, y, (0, 1))
        assert e is not None and validate_regular(e).ok

    def test_impossible(self):
        # a 2-point discrete X cannot regularly embed where the ambient
        # opens cannot trace both singletons
        x = FiniteTopSpace.discrete(2)
        y = FiniteTopSpace(2, (0b01, 0b11))  # Sierpinski: {1} is not open
        assert find_regular_operator(x, y, (0, 1)) is None


class TestInjection:
    """Every embedding is checked where it enters: n points sent to distinct
    points of the ambient space, or an input error."""

    @pytest.mark.parametrize("inject", [(0, 7), (0, 0), (0, -1)], ids=["outside", "twice", "negative"])
    def test_usco_map(self, inject):
        r = constant_off_x()
        with pytest.raises(InputError, match="inject must be an injection"):
            UscoMap(r.space, r.values, inject)

    @pytest.mark.parametrize("inject", [(0, 7), (0, -1), (0,)], ids=["outside", "negative", "short"])
    def test_find_regular_operator(self, inject):
        y = two_in_three_operator().codomain
        with pytest.raises(InputError, match="inject must be an injection"):
            find_regular_operator(FiniteTopSpace.discrete(2), y, inject)

    @pytest.mark.parametrize("inject", [(0, 3), (1, 1), (0, -1), (0,)], ids=["outside", "twice", "negative", "short"])
    def test_regular_operator(self, inject):
        e = two_in_three_operator()
        with pytest.raises(InputError, match="inject must be an injection"):
            RegularOperator(e.domain, e.codomain, inject, e.table)


class TestJson:
    def test_round_trip(self):
        for name, op in standard_operators():
            back = operator_from_json(operator_to_json(op))
            assert back == op, name

    def test_malformed(self):
        with pytest.raises(InputError):
            operator_from_json('{"X": {"n": 1}}')
