from __future__ import annotations

import hashlib
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from supext import parallel, setkit, superext
from supext.errors import InputError, TooLarge
from supext.setkit import GroundSet, PointMap, SetFamily, _plus_columns, bits, up_closure
from supext.superext import (
    EXPECTED_MLS_COUNTS,
    MaxLinkedSystem,
    complete_linked,
    enumerate_mls,
    eta_point,
    lambda_map,
    lambda_map_image,
)

NONPRINCIPAL3 = (0b011, 0b101, 0b110)


def mls(n: int, minimal) -> MaxLinkedSystem:
    return MaxLinkedSystem(GroundSet(n), tuple(minimal))


def full_family(eta: MaxLinkedSystem) -> frozenset[int]:
    """Every member of the system, not only the minimal ones."""
    return frozenset(bits(up_closure(eta.minimal, eta.ground.n)))


def listing_digest(lam) -> str:
    """sha256 of ``repr([eta.minimal for eta in lam])``, hashed piece by piece
    so that the whole text is never held at once."""
    digest = hashlib.sha256(b"[")
    for i in range(0, len(lam), 10_000):
        piece = ", ".join(repr(eta.minimal) for eta in lam[i : i + 10_000])
        digest.update((", " + piece if i else piece).encode())
    digest.update(b"]")
    return digest.hexdigest()


def leaves_not_maximal_linked(args: tuple[int, int, int]) -> tuple[int, int]:
    """The number of kernel leaves below one prefix, and how many of them are
    not self-dual up-closed (not maximal linked)."""
    n, fam, depth = args
    leaves = bad = 0
    for leaf in superext._backtrack(n, fam, depth, len(superext._pair_order(n))):
        leaves += 1
        bad += not setkit.is_self_dual_upclosed(leaf, n)
    return leaves, bad


class TestEnumerate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_direct_scan(self, n):
        """The backtracking enumerator agrees with the brute-force scan of
        all families of nonempty subsets, system by system."""
        got = {full_family(s) for s in enumerate_mls(GroundSet(n))}
        assert got == set(oracles.scan_maximal_linked(n))

    def test_n5_matches_antichain_oracle(self):
        got = {frozenset(s.minimal) for s in enumerate_mls(GroundSet(5))}
        assert got == set(oracles.antichain_maximal_linked(5))

    def test_n6_count_and_runtime(self):
        start = time.monotonic()
        lam = enumerate_mls(GroundSet(6))
        elapsed = time.monotonic() - start
        assert len(lam) == EXPECTED_MLS_COUNTS[6] == 2646
        assert elapsed < 10.0
        assert listing_digest(lam) == "9e94e2caf58afceca925fd53514f26513d8f155d744add46f2b156abd85e6de2"

    def test_n3_explicit(self):
        lam = enumerate_mls(GroundSet(3))
        minimals = [s.minimal for s in lam]
        assert ((0b001,) in minimals and (0b010,) in minimals
                and (0b100,) in minimals and NONPRINCIPAL3 in minimals)
        assert len(minimals) == 4

    def test_all_valid_and_distinct(self):
        lam = enumerate_mls(GroundSet(4))
        assert all(s.is_maximal_linked() for s in lam)
        assert len({s.minimal for s in lam}) == len(lam)

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_mls(GroundSet(8))

    def test_n7_count_and_runtime(self):
        """The n=7 systems, pinned by digest, and every kernel leaf at n=7
        checked to be maximal linked, over two processes on the enumeration's
        own split."""
        start = time.monotonic()
        lam = enumerate_mls(GroundSet(7), workers=4)
        elapsed = time.monotonic() - start
        assert len(lam) == EXPECTED_MLS_COUNTS[7] == 1_422_564
        assert elapsed < 300.0
        assert listing_digest(lam) == "93cd938d28ed36131e89b39a194534b9ec205a6352962b9bb7b255423c1e8fa4"
        del lam  # the systems, about 330 MB, are not needed in the forked checkers
        n, depth = 7, superext._split_depth(7)
        items = [(n, fam, depth) for fam in superext._backtrack(n, 1 << GroundSet(n).full, 0, depth)]
        checked = parallel.map_chunks(leaves_not_maximal_linked, items, 2)
        assert [sum(col) for col in zip(*checked)] == [1_422_564, 0]

    def test_count_oracle_by_split(self):
        """The counts at n = 4 to 7 follow from the systems one point smaller,
        counted by an oracle that enumerates nothing at n."""
        assert [oracles.mls_count_by_split(n) for n in (4, 5, 6, 7)] == [
            EXPECTED_MLS_COUNTS[n] for n in (4, 5, 6, 7)
        ] == [12, 81, 2646, 1_422_564]

    def test_worker_independence(self):
        base = [s.minimal for s in enumerate_mls(GroundSet(5))]
        for w in (2, 8):
            assert [s.minimal for s in enumerate_mls(GroundSet(5), workers=w)] == base


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_split_covers_each_leaf_once(self, n):
        """The subtrees below the depth-d prefixes together hold every system
        of the serial enumeration, each exactly once, whatever d is."""
        root = 1 << GroundSet(n).full
        pairs = len(superext._pair_order(n))
        serial = superext._enum_subtree((n, root, 0))
        assert len(serial) == len(set(serial)) == EXPECTED_MLS_COUNTS[n]
        for depth in sorted({min(d, pairs) for d in (0, 1, 2, pairs // 2, pairs)}):
            prefixes = list(superext._backtrack(n, root, 0, depth))
            split = [m for fam in prefixes for m in superext._enum_subtree((n, fam, depth))]
            assert sorted(split) == sorted(serial)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_readout_of_every_leaf(self, n):
        """Each leaf is a maximal linked system, by the definitions, and the
        table readout of each leaf is its minimal members, found pair by pair
        and sorted."""
        root = 1 << GroundSet(n).full
        leaves = list(superext._backtrack(n, root, 0, len(superext._pair_order(n))))
        for leaf in leaves:
            members = frozenset(bits(leaf))
            assert oracles.is_up_closed(members, n) and oracles.is_maximal_linked(members, n)
        got = superext._enum_subtree((n, root, 0))
        assert got == [oracles.sorted_minimal_readout(leaf, n) for leaf in leaves]

    @settings(max_examples=100, deadline=None)
    @given(masks=st.lists(st.integers(min_value=1, max_value=127), min_size=1, max_size=12))
    def test_readout_tables_at_n7(self, masks):
        """At n = 7 the readout lists the minimal members of an up-closed family
        in canonical order, and the complement map reverses the family into its
        complements."""
        n = 7
        fam = oracles.up_closure_of(frozenset(masks), n)
        minimal = oracles.minimal_of(fam)
        read = lambda word: setkit._canonical(word, n)
        reverse = lambda fam: setkit._complements(fam, n)
        assert read(sum(1 << m for m in minimal)) == oracles.sorted_minimal_readout(sum(1 << a for a in fam), n)
        assert reverse(sum(1 << a for a in fam)) == sum(1 << (127 ^ a) for a in fam)

    def test_pair_order_takes_the_smaller_side(self):
        """Each complementary pair once, on the side that comes first in the
        order by (size, mask), the pairs in that order, for every ground size."""
        for n in range(1, 17):
            full = (1 << n) - 1
            key = lambda m: (oracles.popcount(m), m)
            sides = sorted((a for a in range(1, full) if key(a) < key(full ^ a)), key=key)
            assert superext._pair_order(n) == tuple((a, full ^ a) for a in sides), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_disjoint_table(self, n):
        table = setkit._disjoint(n)
        for s in range(1 << n):
            assert table[s] == sum(1 << t for t in range(1 << n) if not t & s)


class TestConstruction:
    @pytest.mark.parametrize(
        "minimal,message",
        [
            ((), "at least one member"),
            ((0b110, 0b001), "canonically ordered"),
            ((0b001, 0b011), "must form an antichain"),
            ((0b001, 0b010), "must be pairwise intersecting"),
        ],
        ids=["empty", "unordered", "not-antichain", "not-linked"],
    )
    def test_rejects(self, minimal, message):
        with pytest.raises(InputError, match=message):
            mls(3, minimal)

    def test_rejects_member_outside_ground(self):
        with pytest.raises(InputError):
            mls(2, (0b100,))

    def test_accepts_the_11440_member_system_at_n16(self):
        """The sets of 8 points holding point 0 and of 9 points lacking it."""
        minimal = [m for m in range(1 << 16) if m.bit_count() == 8 + (not m & 1)]
        eta = mls(16, sorted(minimal, key=lambda m: (m.bit_count(), m)))
        assert len(eta.minimal) == 11440 and eta.is_maximal_linked()


class TestEtaPoint:
    def test_examples(self):
        assert eta_point(GroundSet(3), 1).minimal == (0b010,)
        assert eta_point(GroundSet(1), 0).minimal == (0b1,)
        with pytest.raises(InputError, match="point 3 outside ground set of size 3"):
            eta_point(GroundSet(3), 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_membership(self, n):
        lam = enumerate_mls(GroundSet(n))
        for x in range(n):
            assert lam.index(eta_point(GroundSet(n), x)) >= 0


class TestCompleteLinked:
    def test_singleton_family(self):
        fam = SetFamily.of(GroundSet(3), [0b111])
        assert complete_linked(fam) == eta_point(GroundSet(3), 0)

    def test_fixpoint(self):
        fam = SetFamily.of(GroundSet(3), NONPRINCIPAL3)
        assert complete_linked(fam).minimal == NONPRINCIPAL3

    def test_contains_input(self):
        for n in (2, 3, 4):
            lam = enumerate_mls(GroundSet(n))
            for s in lam:
                fam = SetFamily.of(GroundSet(n), s.minimal)
                done = complete_linked(fam)
                assert done.is_maximal_linked()
                assert set(fam.masks) <= full_family(done)

    def test_not_linked(self):
        with pytest.raises(InputError, match="input family must be linked"):
            complete_linked(SetFamily.of(GroundSet(3), [0b001, 0b110]))

    def test_n16_without_the_disjoint_table(self, monkeypatch):
        """The table of disjoint sets has 2^n entries of up to 2^n bits, about
        270 MB at n = 16; only the kernel builds it, within the enumeration cap."""
        table = setkit._disjoint

        def capped(n):
            assert n <= superext.MAX_N, f"_disjoint({n})"
            return table(n)

        monkeypatch.setattr(setkit, "_disjoint", capped)
        monkeypatch.setattr(superext, "_disjoint", capped)
        g = GroundSet(16)
        assert complete_linked(SetFamily.of(g, [g.full])) == eta_point(g, 0)
        assert complete_linked(SetFamily.of(g, NONPRINCIPAL3)).minimal == NONPRINCIPAL3

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=5))
    def test_matches_greedy_loop(self, data, n):
        """Any subfamily of a maximal linked system is linked."""
        lam = enumerate_mls(GroundSet(n))
        eta = data.draw(st.sampled_from(lam))
        masks = data.draw(st.sets(st.sampled_from(sorted(full_family(eta)))))
        done = complete_linked(SetFamily.of(GroundSet(n), masks))
        assert frozenset(done.minimal) == oracles.complete_linked_greedy(frozenset(masks), n)


class TestLambdaMap:
    def test_identity(self):
        g = GroundSet(3)
        ident = PointMap.identity(g)
        for s in enumerate_mls(g):
            assert lambda_map(ident, s) == s

    def test_merge_example(self):
        # f(0)=f(1)=0, f(2)=1 collapses the non-principal system to a point
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        out = lambda_map(pm, mls(3, NONPRINCIPAL3))
        assert out == eta_point(GroundSet(2), 0)

    def test_constant_map(self):
        pm = PointMap(GroundSet(3), GroundSet(3), (1, 1, 1))
        for s in enumerate_mls(GroundSet(3)):
            assert lambda_map(pm, s) == eta_point(GroundSet(3), 1)

    def test_composition_law(self):
        f = PointMap(GroundSet(3), GroundSet(3), (1, 0, 1))
        g = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        gf = g.compose(f)
        for s in enumerate_mls(GroundSet(3)):
            assert lambda_map(gf, s) == lambda_map(g, lambda_map(f, s))

    def test_image_formula_on_surjections(self):
        maps = [
            PointMap(GroundSet(3), GroundSet(2), img)
            for img in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)]
        ]
        for pm in maps:
            for s in enumerate_mls(GroundSet(3)):
                assert lambda_map(pm, s) == lambda_map_image(pm, s)

    def test_output_valid(self):
        pm = PointMap(GroundSet(4), GroundSet(3), (0, 1, 2, 1))
        for s in enumerate_mls(GroundSet(4)):
            assert lambda_map(pm, s).is_maximal_linked()

    def test_matches_definitional_pushforward(self):
        """Both formulas against the oracle, for every map between grounds
        of size 1 to 3 and every system on the domain."""
        for a, b in itertools.product(range(1, 4), repeat=2):
            for img in itertools.product(range(b), repeat=a):
                pm = PointMap(GroundSet(a), GroundSet(b), img)
                for s in enumerate_mls(GroundSet(a)):
                    want = oracles.pushforward(img, b, s.minimal)
                    assert frozenset(lambda_map(pm, s).minimal) == want
                    assert frozenset(lambda_map_image(pm, s).minimal) == want

    def test_self_duality_guard_is_live(self, monkeypatch):
        monkeypatch.setattr(superext, "is_self_dual_upclosed", lambda fam, n: False)
        with pytest.raises(AssertionError, match="pushforward is not a maximal linked system"):
            lambda_map(PointMap.identity(GroundSet(2)), eta_point(GroundSet(2), 0))


def plus_set(f: int, lam) -> tuple[MaxLinkedSystem, ...]:
    """The systems holding the set f, read from the column that
    verify.lambda_plus_subbase makes the subbase member of f."""
    column = _plus_columns((eta.minimal for eta in lam), lam[0].ground.n)[f]
    return tuple(lam[i] for i in bits(column))


class TestPlusSet:
    def test_full_set(self):
        lam = enumerate_mls(GroundSet(3))
        assert plus_set(0b111, lam) == tuple(lam)

    def test_singleton(self):
        lam = enumerate_mls(GroundSet(4))
        for x in range(4):
            assert plus_set(1 << x, lam) == (eta_point(GroundSet(4), x),)

    def test_pair_example(self):
        lam = enumerate_mls(GroundSet(3))
        got = plus_set(0b011, lam)
        assert set(got) == {
            eta_point(GroundSet(3), 0),
            eta_point(GroundSet(3), 1),
            mls(3, NONPRINCIPAL3),
        }

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_binary_property(self, n):
        """For every linked family of ground subsets, the corresponding
        plus-sets have a system in common (the completion witnesses it)."""
        g = GroundSet(n)
        lam = enumerate_mls(g)
        cache = {f: set(plus_set(f, lam)) for f in g.nonempty_subsets()}
        for chain in oracles.all_antichains(n):
            if not oracles.is_linked_family(chain):
                continue
            common = set(lam)
            for f in chain:
                common &= cache[f]
            assert common, f"linked family {sorted(chain)} has empty plus-set meet"
