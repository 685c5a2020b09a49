from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from supext import functionals
from supext.errors import InputError, TooLarge, json_rational, parse_rational
from supext.functionals import (
    Convex,
    Dirac,
    Linear,
    MaxMin,
    MaxOver,
    MinOver,
    PointFunction,
    Precompose,
    axiom_check,
    evaluate,
    extender_to_lambda,
    phi,
    retraction_from_extender,
    s_preimage,
    separating_function,
    support,
    support_grid,
    term_from_json,
    term_to_json,
    term_to_obj,
)
from supext.setkit import GroundSet, PointMap
from supext.superext import MaxLinkedSystem, enumerate_mls, eta_point
from supext.verify import _eq1_failures, term_zoo

NONPRINCIPAL3 = MaxLinkedSystem(GroundSet(3), (0b011, 0b101, 0b110))

F = Fraction


def pf(*vals) -> PointFunction:
    return PointFunction(GroundSet(len(vals)), vals)


def eq1_grid(n: int):
    vals = (F(-1), F(0), F(1), F(2))
    g = GroundSet(n)
    return [PointFunction(g, c) for c in itertools.product(vals, repeat=n)]


class TestPointFunction:
    def test_converts_only_non_fractions(self):
        half = F(1, 2)
        f = PointFunction(GroundSet(3), [half, 2, "1/3"])
        assert f.values == (half, F(2), F(1, 3))
        assert type(f.values) is tuple and all(type(v) is F for v in f.values)
        assert f.values[0] is half
        same = (half, F(3))
        assert PointFunction(GroundSet(2), same).values is same


class TestPhi:
    def test_principal(self):
        assert phi(eta_point(GroundSet(3), 1), pf(5, 7, 9)) == 7

    def test_nonprincipal(self):
        f = pf(0, 1, 2)
        assert phi(NONPRINCIPAL3, f) == 1
        assert phi(NONPRINCIPAL3, f) == oracles.naive_maxmin((0b011, 0b101, 0b110), list(f.values))

    def test_constant(self):
        for eta in enumerate_mls(GroundSet(3)):
            assert phi(eta, pf(F(5, 3), F(5, 3), F(5, 3))) == F(5, 3)

    def test_ground_mismatch(self):
        with pytest.raises(InputError, match="function and system on different grounds"):
            phi(NONPRINCIPAL3, pf(0, 1))

    def test_principal_is_evaluation(self):
        for f in eq1_grid(3):
            for x in range(3):
                assert phi(eta_point(GroundSet(3), x), f) == f.values[x]


class TestCheckEq1:
    """phi against the dual min-max form, which oracles.naive_minmax computes
    over every member of the up-closure."""

    def test_nonprincipal(self):
        assert phi(NONPRINCIPAL3, pf(0, 1, 2)) == oracles.naive_minmax(NONPRINCIPAL3.minimal, [0, 1, 2]) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid_exhaustive(self, n):
        for eta in enumerate_mls(GroundSet(n)):
            for f in eq1_grid(n):
                assert phi(eta, f) == oracles.naive_minmax(eta.minimal, list(f.values))

    def test_against_naive_oracle(self):
        for eta in enumerate_mls(GroundSet(3)):
            for f in eq1_grid(3):
                vals = list(f.values)
                assert phi(eta, f) == oracles.naive_maxmin(eta.minimal, vals)

    def test_negative_control(self):
        """A non-maximal linked family breaks the exchange identity: on {111}
        max-min is 0 and min-max is 2 at f = (0, 1, 2)."""
        assert (oracles.naive_maxmin((0b111,), [0, 1, 2]), oracles.naive_minmax((0b111,), [0, 1, 2])) == (0, 2)
        failures = _eq1_failures(3, ((0b111,),))
        assert {"system": ["7"], "f": [0, 1, 2]} in failures


class TestEvaluate:
    def test_dirac(self):
        assert evaluate(Dirac(GroundSet(3), 1), pf(5, 7, 9)) == 7

    def test_midrange(self):
        t = Convex(
            (F(1, 2), F(1, 2)),
            (MaxOver(GroundSet(3), 0b111), MinOver(GroundSet(3), 0b111)),
        )
        assert evaluate(t, pf(0, 1, 2)) == 1

    def test_linear(self):
        t = Linear(GroundSet(3), (F(1, 2), F(1, 2), F(0)))
        assert evaluate(t, pf(2, 4, 100)) == 3

    def test_precompose_dirac(self):
        # the pushforward of a Dirac along f is the Dirac at f(x)
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        t = Precompose(pm, Dirac(GroundSet(3), 2))
        for f in eq1_grid(2):
            assert evaluate(t, f) == f.values[pm(2)]

    def test_bad_weights(self):
        with pytest.raises(InputError):
            Linear(GroundSet(2), (F(1, 2), F(1, 4)))
        with pytest.raises(InputError):
            Linear(GroundSet(2), (F(3, 2), F(-1, 2)))
        with pytest.raises(InputError):
            Convex((F(0), F(1)), (Dirac(GroundSet(2), 0), Dirac(GroundSet(2), 1)))


@functools.lru_cache(maxsize=None)
def zoo(n: int) -> tuple:
    return tuple(term_zoo(GroundSet(n)))


@st.composite
def terms(draw, ground: GroundSet, depth: int = 2):
    """Zoo terms, random linear terms, and convex combinations and
    precompositions of them nested up to ``depth`` levels."""
    kind = draw(st.sampled_from(("zoo", "linear", "convex", "precompose")[: 4 if depth else 2]))
    if kind == "zoo":
        return draw(st.sampled_from(zoo(ground.n)))
    if kind == "linear":
        raw = draw(st.lists(st.integers(0, 7), min_size=ground.n, max_size=ground.n).filter(any))
        return Linear(ground, tuple(F(r, sum(raw)) for r in raw))
    if kind == "convex":
        raw = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        parts = tuple(draw(terms(ground, depth - 1)) for _ in raw)
        return Convex(tuple(F(r, sum(raw)) for r in raw), parts)
    dom = GroundSet(draw(st.integers(1, 4)))
    image = tuple(draw(st.lists(st.integers(0, ground.n - 1), min_size=dom.n, max_size=dom.n)))
    return Precompose(PointMap(dom, ground, image), draw(terms(dom, depth - 1)))


@st.composite
def checked_terms(draw, ground: GroundSet):
    """The ``terms`` strategy, bare MinOver and MaxOver on any nonempty set,
    which fail homogeneity from two points on, and convex mixes of them."""

    def extremum():
        return draw(st.sampled_from((MinOver, MaxOver)))(ground, draw(st.integers(1, ground.full)))

    kind = draw(st.sampled_from(("terms", "extremum", "mix")))
    if kind == "terms":
        return draw(terms(ground))
    if kind == "extremum":
        return extremum()
    raw = draw(st.lists(st.integers(1, 9), min_size=2, max_size=3))
    parts = tuple(extremum() if draw(st.booleans()) else draw(terms(ground, 1)) for _ in raw)
    return Convex(tuple(F(r, sum(raw)) for r in raw), parts)


@st.composite
def term_and_row(draw):
    ground = GroundSet(draw(st.integers(1, 4)))
    row = draw(st.lists(st.fractions(-20, 20, max_denominator=24), min_size=ground.n, max_size=ground.n))
    return draw(terms(ground)), row


class TestCompiledKernel:
    @settings(max_examples=300, deadline=None)
    @given(term_and_row())
    def test_matches_the_fraction_evaluator(self, case):
        t, row = case
        want = oracles.evaluate_obj(term_to_obj(t), row)
        assert evaluate(t, PointFunction(t.ground, row)) == want

    def test_scale_and_denominator(self):
        """The kernel takes a column per point and returns N with value
        N/(S*D) for each row scaled by S."""
        g = GroundSet(3)
        t = Convex((F(1, 3), F(2, 3)), (Linear(g, (F(1, 2), F(1, 4), F(1, 4))), MaxOver(g, 0b110)))
        kernel, d = functionals.compile_term(t)
        assert d == 12
        # row 0: f = (1/2, 3/2, -1) over S = 2, where the linear part is 3/8
        # and the max 3/2; row 1: f = (0, -1, 1), where they are 0 and 1
        got = kernel([(1, 0), (3, -2), (-2, 2)])
        assert [F(v, 2 * d) for v in got] == [F(1, 3) * F(3, 8) + F(2, 3) * F(3, 2), F(2, 3)]


class TestAxiomCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zoo_passes(self, n):
        for t in term_zoo(GroundSet(n)):
            res = axiom_check(t, trials=500, seed=0)
            assert res.ok, (t, res)

    def test_normalized_mode(self):
        t = MaxMin(NONPRINCIPAL3)
        assert axiom_check(t, trials=100, normalized=True).ok

    def test_weak_additivity_counterexample(self):
        bad = lambda f: max(f.values) + min(f.values)
        res = axiom_check(bad, ground=GroundSet(3), trials=200, seed=1)
        assert not res.ok and res.axiom == "weak additivity"

    def test_homogeneity_counterexample(self):
        bad = lambda f: f.values[0] ** 2
        res = axiom_check(bad, ground=GroundSet(3), trials=200, seed=1)
        # squaring breaks both monotonicity and homogeneity; the checker
        # reports whichever its sampler hits first
        assert not res.ok and res.axiom in ("homogeneity", "monotonicity")
        assert bad(pf(2, 0, 0)) != 2 * bad(pf(1, 0, 0))

    def test_bare_extrema_are_not_homogeneous(self):
        """min/max over a non-singleton set flip to each other under
        negation, so they sit outside S(X) despite being monotone."""
        res = axiom_check(MaxOver(GroundSet(2), 0b11), trials=100, seed=0)
        assert not res.ok and res.axiom == "homogeneity"
        res = axiom_check(MinOver(GroundSet(2), 0b11), trials=100, seed=0)
        assert not res.ok and res.axiom == "homogeneity"

    @pytest.mark.parametrize(
        "target,ground,seed,normalized,calls,axiom,witness",
        [
            (
                MinOver(GroundSet(2), 0b11), None, 0, False, 4, "homogeneity",
                {"f": ("17/14", "-3"), "k": "-1", "u(kf)": "-17/14", "k*u(f)": "3"},
            ),
            (
                MaxOver(GroundSet(2), 0b11), None, 0, False, 4, "homogeneity",
                {"f": ("17/14", "-3"), "k": "-1", "u(kf)": "3", "k*u(f)": "-17/14"},
            ),
            (
                lambda f: max(f.values) + min(f.values), GroundSet(3), 1, False, 7, "weak additivity",
                {"f": ("-5", "0", "31/15"), "c": "-2", "u(f+c)": "-104/15", "u(f)+c": "-74/15"},
            ),
            (
                # monotone except at denominators of 11: fails some 40 trials in
                lambda f: max(f.values) + (max(f.values).denominator == 11), GroundSet(2), 0, True, 133,
                "monotonicity",
                {"f": ("-15", "-16/11"), "g": ("-161/12", "-120/143"), "u(f)": "-5/11", "u(g)": "-120/143"},
            ),
        ],
    )
    def test_pinned_witnesses(self, monkeypatch, target, ground, seed, normalized, calls, axiom, witness):
        """Witnesses and evaluation counts recorded from the draw-per-term
        sampler: the shared trial table replays the same RNG stream and
        stops at the same trial.  A term is counted through its compiled
        kernel, which the check calls once on each of the four column sets
        f, g, k*f and f + c; an oracle is counted per call, row by row."""
        counted = []
        if ground is None:
            real = functionals.compile_term

            def counting_compile(term):
                kernel, d = real(term)

                def counting(row):
                    counted.append(row)
                    return kernel(row)

                return counting, d

            monkeypatch.setattr(functionals, "compile_term", counting_compile)
        else:
            oracle = target

            def target(f):
                counted.append(f)
                return oracle(f)

        res = axiom_check(target, ground=ground, seed=seed, normalized=normalized)
        got = {k: tuple(map(str, v)) if isinstance(v, tuple) else str(v) for k, v in res.witness.items()}
        assert (res.axiom, got, len(counted)) == (axiom, witness, calls)

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_term_and_its_oracle_agree_on_the_zoo(self, n, normalized):
        """A term and the oracle that evaluates it get the same verdict,
        axiom and witness: both run on the same trials.  The bare extrema
        over the whole ground fail homogeneity from n = 2 on."""
        g = GroundSet(n)
        for t in (*zoo(n), MinOver(g, g.full), MaxOver(g, g.full)):
            oracle = lambda f: evaluate(t, f)
            want = axiom_check(t, trials=40, seed=3, normalized=normalized)
            assert axiom_check(oracle, ground=t.ground, trials=40, seed=3, normalized=normalized) == want, t

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), normalized=st.booleans())
    def test_term_and_its_oracle_agree(self, data, n, normalized):
        t = data.draw(terms(GroundSet(n)))
        want = axiom_check(t, trials=20, seed=1, normalized=normalized)
        oracle = lambda f: evaluate(t, f)
        assert axiom_check(oracle, ground=t.ground, trials=20, seed=1, normalized=normalized) == want

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        trials=st.integers(1, 50),
        seed=st.integers(0, 1 << 16),
        normalized=st.booleans(),
    )
    def test_matches_the_row_loop_reference(self, data, n, trials, seed, normalized):
        """The column check gives the verdict, axiom and witness of the
        plain row loop in Fractions, which shares no kernel or table code."""
        t = data.draw(checked_terms(GroundSet(n)))
        res = axiom_check(t, trials=trials, seed=seed, normalized=normalized)
        want = oracles.axiom_check_rows(term_to_obj(t), n, trials, seed, normalized)
        assert (res.ok, res.axiom, res.witness) == want

    def test_raising_oracle(self):
        def boom(f):
            raise ZeroDivisionError
        res = axiom_check(boom, ground=GroundSet(2), trials=5)
        assert not res.ok and res.axiom == "error"

    def test_non_expanding(self):
        """Monotone weakly-additive functionals move by at most max|f-g|."""
        import random

        rng = random.Random(7)
        for t in term_zoo(GroundSet(3)):
            for _ in range(50):
                f = PointFunction(GroundSet(3), [F(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(3)])
                g = PointFunction(GroundSet(3), [F(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(3)])
                gap = max(abs(a - b) for a, b in zip(f.values, g.values))
                assert abs(evaluate(t, f) - evaluate(t, g)) <= gap


class TestSeparation:
    def test_two_points(self):
        f = separating_function(eta_point(GroundSet(2), 0), eta_point(GroundSet(2), 1))
        assert f.values == (1, 0)

    def test_principal_vs_nonprincipal(self):
        eta = eta_point(GroundSet(3), 0)
        f = separating_function(eta, NONPRINCIPAL3)
        assert phi(eta, f) == 1 and phi(NONPRINCIPAL3, f) == 0

    def test_equal_rejected(self):
        with pytest.raises(InputError, match="cannot separate a system from itself"):
            separating_function(NONPRINCIPAL3, NONPRINCIPAL3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_pairs(self, n):
        lam = list(enumerate_mls(GroundSet(n)))
        for i, eta in enumerate(lam):
            for xi in lam[i + 1 :]:
                for a, b in ((eta, xi), (xi, eta)):
                    f = separating_function(a, b)
                    assert set(f.values) <= {0, 1}
                    assert phi(a, f) == 1 and phi(b, f) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chooses_the_first_witness(self, n):
        """The function is the indicator of the least set A, by (size, mask),
        with A in the first system and its complement in the second."""
        lam = list(enumerate_mls(GroundSet(n)))
        full = (1 << n) - 1
        by_size = sorted(range(1, full + 1), key=lambda m: (oracles.popcount(m), m))
        for eta, xi in itertools.permutations(lam, 2):
            up_eta = oracles.up_closure_of(frozenset(eta.minimal), n)
            up_xi = oracles.up_closure_of(frozenset(xi.minimal), n)
            a = next(a for a in by_size if a in up_eta and full ^ a in up_xi)
            assert separating_function(eta, xi).values == tuple(a >> x & 1 for x in range(n))


class TestSupport:
    def test_dirac(self):
        assert support(Dirac(GroundSet(3), 1)) == 0b010

    def test_maxmin_nonprincipal(self):
        assert support(MaxMin(NONPRINCIPAL3)) == 0b111

    def test_linear_zero_weight(self):
        t = Linear(GroundSet(3), (F(1, 2), F(1, 2), F(0)))
        assert support(t) == 0b011

    def test_precompose_inclusion(self):
        # support of the pushforward sits inside the image of the support
        for t in term_zoo(GroundSet(3)):
            pm = PointMap(GroundSet(3), GroundSet(3), (2, 1, 0))
            pre = Precompose(pm, t)
            assert support(pre) & ~pm.image_mask(support(t)) == 0

    def test_factorization_is_genuine(self):
        """Two grid functions agreeing on the support evaluate equally."""
        t = MaxMin(NONPRINCIPAL3)
        h = support(t)
        grid = support_grid(GroundSet(3))
        seen: dict[tuple, Fraction] = {}
        for f in grid:
            key = tuple(v for x, v in enumerate(f.values) if h >> x & 1)
            assert seen.setdefault(key, evaluate(t, f)) == evaluate(t, f)


class TestGridCap:
    """support, support_grid and retraction_from_extender each build the
    {0,1,2}^n grid: they run at the cap and refuse one point more before
    any grid point is built."""

    def test_at_the_cap(self):
        g = GroundSet(functionals.MAX_GRID_N)
        assert support(Dirac(g, 0)) == 0b1
        assert len(support_grid(g)) == 3**g.n

    def test_above_the_cap(self, monkeypatch):
        g = GroundSet(functionals.MAX_GRID_N + 1)
        monkeypatch.setattr(functionals, "PointFunction", lambda *a: pytest.fail("a grid point was built"))
        match = f"grid is capped at n <= {functionals.MAX_GRID_N}"
        with pytest.raises(TooLarge, match=match):
            support(Dirac(g, 0))
        with pytest.raises(TooLarge, match=match):
            support_grid(g)
        with pytest.raises(TooLarge, match=match):
            retraction_from_extender(lambda f: pytest.fail("the extender ran"), g, g.n, range(g.n))


class TestExtender:
    def test_values(self):
        u = extender_to_lambda(pf(5, 7, 9))
        assert u[eta_point(GroundSet(3), 1)] == 7
        u2 = extender_to_lambda(pf(0, 1, 2))
        assert u2[NONPRINCIPAL3] == 1

    def test_constant(self):
        u = extender_to_lambda(pf(F(3, 2), F(3, 2)))
        assert set(u.values()) == {F(3, 2)}

    def test_retraction(self):
        g = GroundSet(2)
        lam = enumerate_mls(g)
        x_to_y = [lam.index(eta_point(g, x)) for x in range(2)]

        def u(f: PointFunction):
            return [phi(eta, f) for eta in lam]

        rs = retraction_from_extender(u, g, len(lam), x_to_y)
        for f in support_grid(g):
            for x in range(2):
                assert rs[x_to_y[x]](f) == f.values[x]
            for y, eta in enumerate(lam):
                assert rs[y](f) == phi(eta, f)
        for r in rs:
            assert axiom_check(r, ground=g, trials=100).ok

    def test_not_an_extender(self):
        g = GroundSet(2)
        with pytest.raises(InputError, match="does not restrict to f"):
            retraction_from_extender(lambda f: [F(0), F(0)], g, 2, [0, 1])

    @pytest.mark.parametrize("x_to_y", [(0, 5), (0, -1)], ids=["outside", "negative"])
    def test_not_an_injection(self, x_to_y):
        with pytest.raises(InputError, match="x_to_y must be an injection"):
            retraction_from_extender(lambda f: list(f.values), GroundSet(2), 2, x_to_y)


class TestSPreimage:
    def test_identity(self):
        g = GroundSet(3)
        t = MaxMin(NONPRINCIPAL3)
        back = s_preimage(PointMap.identity(g), t)
        for f in eq1_grid(3):
            assert evaluate(back, f) == evaluate(t, f)

    def test_dirac(self):
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        back = s_preimage(pm, Dirac(GroundSet(2), 0))
        for f in eq1_grid(3):
            assert evaluate(back, f) == f.values[0]

    def test_maxover_section(self):
        pm = PointMap(GroundSet(3), GroundSet(2), (0, 0, 1))
        back = s_preimage(pm, MaxOver(GroundSet(2), 0b11))
        for f in eq1_grid(3):
            assert evaluate(back, f) == max(f.values[0], f.values[2])

    @pytest.mark.parametrize("img", [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    def test_pushforward_recovers(self, img):
        """Evaluating the preimage term at h o f recovers the original."""
        pm = PointMap(GroundSet(3), GroundSet(2), img)
        for nu in term_zoo(GroundSet(2)):
            back = s_preimage(pm, nu)
            for h in eq1_grid(2):
                assert evaluate(back, h.precompose(pm)) == evaluate(nu, h)

    def test_not_surjective(self):
        pm = PointMap(GroundSet(2), GroundSet(2), (0, 0))
        with pytest.raises(InputError, match="needs a surjective map"):
            s_preimage(pm, Dirac(GroundSet(2), 0))


class TestTermJson:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        g = GroundSet(n)
        for t in term_zoo(g):
            text = term_to_json(t)
            back = term_from_json(text, g)
            for f in eq1_grid(n):
                assert evaluate(back, f) == evaluate(t, f)

    def test_depth_cap_on_the_text(self):
        """A term of 100 nodes, 99 convex nodes and a linear leaf, nests its
        JSON 200 levels deep and is read; one more level is refused before
        the text is decoded.  Brackets inside strings do not count, fields
        the reader ignores do, and bytes in any JSON encoding are measured
        as decoded."""
        g = GroundSet(2)
        leaf = '{"t": "linear", "w": ["1", "0"]}'
        deep = '{"t": "convex", "w": ["1"], "parts": [' * 99 + leaf + "]}" * 99
        assert functionals._json_depth(deep) == 200
        for data in (deep, deep.encode(), deep.encode("utf-16")):
            assert evaluate(term_from_json(data, g), PointFunction(g, (3, 4))) == 3
        noted = '{"t": "dirac", "x": 1, "note": "%s"}' % ("[{\\\"" * 300)
        assert evaluate(term_from_json(noted, g), PointFunction(g, (3, 4))) == 4
        too_deep = ['{"t": "dirac", "x": 0, "note": %s}' % ("[" * 200 + "]" * 200),
                    '{"t": "convex", "w": ["1"], "parts": [' * 100 + '{"t": "dirac", "x": 0}' + "]}" * 100]
        for text in too_deep:
            for data in (text, text.encode("utf-16")):
                with pytest.raises(TooLarge, match="term nested deeper than 100 nodes"):
                    term_from_json(data, g)

    def test_weight_past_the_digit_limit_is_an_input_error(self):
        """A weight whose denominator has more digits than Python writes is
        refused by the one writer of rationals, as every supext error is."""
        w = F(1, 10**5000)
        for t in (Linear(GroundSet(2), (w, 1 - w)), Convex((w, 1 - w), (Dirac(GroundSet(2), 0),) * 2)):
            with pytest.raises(InputError, match="result has more than"):
                term_to_json(t)

    def test_fraction_parse(self):
        assert json_rational("3/4", "w") == F(3, 4)
        assert json_rational("-2", "w") == json_rational(-2, "w") == -2
        for bad in ("x/y", "1/0", True, 0.5, None, ["1"]):
            with pytest.raises(InputError):
                json_rational(bad, "w")

    def test_rational_forms(self):
        """Integers, p/q and decimals are read; an exponent or any other
        form Fraction would take is refused before Fraction builds it."""
        for text, value in (("7", 7), (" -3/4 ", F(-3, 4)), ("0.25", F(1, 4)), ("-.5", F(-1, 2)), ("2.", 2)):
            assert parse_rational(text, "--f") == json_rational(text, "w") == value
        for bad in ("1e5000", "1E3", "2.5e-1", "1_000", "inf", "nan", "1/2/3", "", "+"):
            with pytest.raises(InputError):
                parse_rational(bad, "--f")
            with pytest.raises(InputError):
                json_rational(bad, "w")

    @given(st.integers(-50, 50), st.integers(1, 20))
    def test_fraction_round_trip(self, p, q):
        f = F(p, q)
        assert json_rational(f"{f.numerator}/{f.denominator}", "w") == f
