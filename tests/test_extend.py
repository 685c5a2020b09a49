"""One-step extension of partial functionals: intervals, consistency, oracle."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from supext.errors import InputError, TooLarge
from supext.functionals import (
    MAX_GENERATORS,
    GeneratedSubspace,
    PointFunction,
    _concave_sup,
    admissible_interval,
    axiom_check,
    evaluate,
    extend_one,
)
from supext.setkit import GroundSet
from supext.verify import term_zoo

F = Fraction

# the messages of generator data that no monotone extension fits
INCONSISTENT = (
    "outside the range of its generator|admit no monotone extension"
    "|unbounded envelope|empty admissible interval"
)


def pf(*vals) -> PointFunction:
    return PointFunction(GroundSet(len(vals)), vals)


def constants_only(n: int) -> GeneratedSubspace:
    g = GroundSet(n)
    one = PointFunction(g, [1] * n)
    return GeneratedSubspace(g, ((one, F(1)),))


def grid_matches(generators, phi0, lower, upper):
    """The exact interval against the step-1/100 grid search."""
    glo, ghi = oracles.grid_interval(
        [(list(b.values), v) for b, v in generators], list(phi0.values)
    )
    assert abs(glo - lower) <= oracles.GRID_STEP
    assert abs(ghi - upper) <= oracles.GRID_STEP
    assert glo <= lower and ghi >= upper  # grid envelopes are one-sided


class TestHandExamples:
    def test_constants_only(self):
        lower, upper, p = extend_one(constants_only(2), pf(0, 1))
        assert (lower, upper, p) == (0, 1, F(1, 2))
        grid_matches(constants_only(2).generators, pf(0, 1), lower, upper)

    def test_in_subspace(self):
        b0 = constants_only(2).extended(pf(0, 1), F(1, 2))
        with pytest.raises(InputError, match="already lies in the generated subspace"):
            extend_one(b0, pf(3, 5))  # 2*(0,1) + 3

    def test_wrong_ground(self):
        with pytest.raises(InputError, match="function on wrong ground"):
            extend_one(constants_only(2), pf(0, 1, 2))

    def test_pinned_interval(self):
        """Generator b1=(0,1) with value 1 pins (0,2) to exactly 2."""
        g = GroundSet(2)
        gens = ((pf(0, 1), F(1)), (PointFunction(g, [1, 1]), F(1)))
        phi0 = pf(0, 2)
        lower, upper = admissible_interval(gens, phi0)
        assert (lower, upper) == (2, 2)
        grid_matches(gens, phi0, lower, upper)

    def test_choose_modes(self):
        b0 = constants_only(2)
        assert extend_one(b0, pf(0, 1), choose="lower")[2] == 0
        assert extend_one(b0, pf(0, 1), choose="upper")[2] == 1
        with pytest.raises(InputError):
            extend_one(b0, pf(0, 1), choose="median")


class TestConsistency:
    def test_value_outside_range(self):
        with pytest.raises(InputError, match="value 2 outside the range of its generator"):
            GeneratedSubspace(GroundSet(2), ((pf(0, 1), F(2)),))

    def test_single_valuedness(self):
        # b2 = 1 - b1 forces v2 = 1 - v1; assigning both the value 1 clashes
        with pytest.raises(InputError, match="generator values admit no monotone extension"):
            GeneratedSubspace(GroundSet(2), ((pf(0, 1), F(1)), (pf(1, 0), F(1))))

    def test_generator_cap(self):
        g = GroundSet(2)
        gens = ((pf(0, 1), F(1, 2)),) * MAX_GENERATORS
        full = GeneratedSubspace(g, gens)
        with pytest.raises(TooLarge, match=f"{MAX_GENERATORS + 1} generators exceed {MAX_GENERATORS}"):
            full.extended(pf(1, 0), F(1, 2))
        with pytest.raises(TooLarge):
            GeneratedSubspace(g, gens + gens)

    def test_empty_interval(self):
        # jointly inconsistent raw data (construction would reject it);
        # feeding it straight to admissible_interval surfaces the clash
        gens = ((pf(0, 1), F(1)), (pf(1, 0), F(1)))
        with pytest.raises(InputError, match=r"empty admissible interval \(2, 1\)"):
            admissible_interval(gens, pf(1, 2))

    def test_validated_intervals_never_empty(self):
        """Pairwise-consistent data always leaves room for p: an empty
        interval would itself be a pairwise monotonicity violation."""
        rng = random.Random(11)
        for _ in range(50):
            g = GroundSet(3)
            gens = []
            for _ in range(rng.randint(1, 3)):
                b = PointFunction(g, [F(rng.randint(-4, 4)) for _ in range(3)])
                v = min(b.values) + F(rng.randint(0, 4), 4) * (max(b.values) - min(b.values))
                gens.append((b, v))
            try:
                b0 = GeneratedSubspace(g, tuple(gens))
            except InputError as exc:
                if not re.search(INCONSISTENT, str(exc)):
                    raise
                continue
            phi0 = PointFunction(g, [F(rng.randint(-4, 4)) for _ in range(3)])
            lower, upper = admissible_interval(b0.generators, phi0)
            assert lower <= upper

    def test_contains(self):
        b0 = constants_only(2).extended(pf(0, 1), F(1, 2))
        assert b0.contains(pf(0, 2))  # 2*b - 0
        assert b0.contains(pf(1, 0))  # -b + 1
        assert b0.contains(pf(7, 7))
        g3 = GroundSet(3)
        b1 = GeneratedSubspace(
            g3, ((PointFunction(g3, [0, 1, 2]), F(1)),)
        )
        assert not b1.contains(PointFunction(g3, [0, 1, 0]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_contains_matches_the_pair_anchor(self, data):
        """Against the scan that takes k and c from the first pair of points
        where b takes two values: up to 6 points, values from a small range
        so that generators repeat values or are constant, and f either drawn
        freely or put on the orbit of a generator."""
        n = data.draw(st.integers(min_value=1, max_value=6))
        g = GroundSet(n)
        values = st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
        bs = [PointFunction(g, v) for v in data.draw(st.lists(values, max_size=4))]
        x0 = data.draw(st.integers(min_value=0, max_value=n - 1))
        b0 = GeneratedSubspace(g, tuple((b, b(x0)) for b in bs))  # the values of the Dirac functional at x0
        if bs and data.draw(st.booleans()):
            b = data.draw(st.sampled_from(bs))
            k, c = (F(data.draw(st.integers(min_value=-3, max_value=3)), 2) for _ in range(2))
            f = PointFunction(g, [k * bx + c for bx in b.values])
        else:
            f = PointFunction(g, data.draw(values))
        assert b0.contains(f) == oracles.orbit_contains_literal([b.values for b in bs], f.values)


class TestSeededInstances:
    def test_restrictions_always_extend(self):
        """100 seeded instances: when generator values are restrictions of a
        genuine term, the interval is nonempty and the term value lies in it."""
        rng = random.Random(2024)
        done = 0
        while done < 100:
            n = rng.randint(2, 4)
            g = GroundSet(n)
            zoo = term_zoo(g)
            t = rng.choice(zoo)

            def rand_fn():
                return PointFunction(g, [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)])

            gens = tuple((b, evaluate(t, b)) for b in (rand_fn() for _ in range(rng.randint(1, 3))))
            phi0 = rand_fn()
            b0 = GeneratedSubspace(g, gens)
            if b0.contains(phi0):
                continue
            lower, upper, p = extend_one(b0, phi0)
            assert lower <= upper
            assert lower <= evaluate(t, phi0) <= upper
            # extending by the chosen p stays consistent
            b1 = b0.extended(phi0, p)
            assert b1.contains(phi0)
            done += 1

    def test_extended_pointwise_functional_passes_axioms(self):
        """Extend the partial data to a total functional by repeated
        extend_one over a basis; the result obeys the axioms on samples."""
        g = GroundSet(3)
        one = PointFunction(g, [1, 1, 1])
        b0 = GeneratedSubspace(g, ((one, F(1)),))
        rng = random.Random(5)
        for _ in range(25):
            f = PointFunction(g, [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)])
            if b0.contains(f):
                continue
            lower, upper, p = extend_one(b0, f)
            b0 = b0.extended(f, p)
            assert lower <= p <= upper

    def test_grid_oracle_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(2, 3)
            g = GroundSet(n)

            def rand_small():
                return PointFunction(g, [F(rng.randint(-3, 3)) for _ in range(n)])

            b = rand_small()
            v = F(rng.randint(min(b.values).numerator, max(b.values).numerator))
            phi0 = rand_small()
            try:
                lower, upper = admissible_interval(((b, v),), phi0)
            except InputError as exc:
                if not re.search(INCONSISTENT, str(exc)):
                    raise
                continue
            # integer data keeps every breakpoint on the 1/100 grid
            grid_matches(((b, v),), phi0, lower, upper)


# Small rationals with repeats, so parallel and zero slopes are common.
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


class TestConcaveSup:
    @given(rationals, st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6))
    def test_lp_dual_matches_kink_enumeration(self, gamma, pieces):
        # the integer form takes the data scaled by a common denominator s
        # and returns s times the sup as (num, den)
        s = lcm(gamma.denominator, *(x.denominator for piece in pieces for x in piece))
        sup = _concave_sup(int(gamma * s), [(int(a * s), int(b * s)) for a, b in pieces])
        assert sup is None or sup[1] > 0
        got = None if sup is None else F(sup[0], sup[1] * s)
        assert got == oracles.concave_sup_kinks(gamma, pieces)

    def test_flat_and_unbounded(self):
        assert _concave_sup(0, [(0, 3), (0, -1)]) == (-1, 1)
        assert _concave_sup(1, [(0, 3), (1, -1)]) is None
        assert _concave_sup(-2, [(1, 0)]) is None


@st.composite
def generator_sets(draw):
    """1-3 generators on 2-4 points, valued by a zoo term (always consistent,
    flagged True) or freely inside each generator's range (often not)."""
    n = draw(st.integers(min_value=2, max_value=4))
    g = GroundSet(n)
    values = st.lists(rationals, min_size=n, max_size=n)
    bs = draw(st.lists(values, min_size=1, max_size=3))
    if draw(st.booleans()):
        t = draw(st.sampled_from(term_zoo(g)))
        return g, [(b, evaluate(t, PointFunction(g, b))) for b in bs], True
    fracs = st.sampled_from([F(i, 4) for i in range(5)])
    return g, [(b, min(b) + draw(fracs) * (max(b) - min(b))) for b in bs], False


def accepts(g, gens) -> bool:
    try:
        GeneratedSubspace(g, tuple((PointFunction(g, b), v) for b, v in gens))
    except InputError as exc:
        if not re.search(INCONSISTENT, str(exc)):
            raise
        return False
    return True


class TestIntegerEnvelopes:
    @given(generator_sets())
    @example((GroundSet(2), [([F(0), F(1)], F(1, 2)), ([F(1), F(0)], F(1, 2))], True))
    @example((GroundSet(2), [([F(0), F(1)], F(1)), ([F(1), F(0)], F(1))], False))
    def test_acceptance_matches_fraction_reference(self, case):
        """Both verdicts occur: the first example is consistent, the second not."""
        g, gens, by_term = case
        verdict = accepts(g, gens)
        assert verdict == oracles.generators_consistent(gens)
        if by_term:
            assert verdict
