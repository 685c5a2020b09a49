"""Acceptance suite: ten criteria, one printed pass/fail line each.

Each test prints its verdict even under pytest's output capture so the
run log always shows the per-criterion summary.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import oracles
from supext.cli import main
from supext.embed import check_usco_map, regular_from_usco, usco_from_regular, validate_regular
from supext.functionals import (
    GeneratedSubspace,
    PointFunction,
    admissible_interval,
    axiom_check,
    evaluate,
    extend_one,
    phi,
    separating_function,
)
from supext.inclusion import enumerate_ih
from supext.setkit import GroundSet, PointMap, bits, up_closure
from supext.superext import (
    EXPECTED_MLS_COUNTS,
    eta_point,
    enumerate_mls,
    lambda_map,
    lambda_map_image,
)
from supext.subbase import is_binary, is_normal
from supext.verify import (
    _eq1_chunk,
    lambda_plus_subbase,
    run_verify_suite,
    standard_operators,
    suite_eq1,
    suite_functor_laws,
    term_zoo,
)

F = Fraction


def verdict(capfd, criterion: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {criterion}{tail}")
    assert ok, f"{criterion}{tail}"


def test_c01_mls_counts(capfd):
    expected = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}
    ok = True
    for n in (1, 2, 3, 4):
        got = {frozenset(bits(up_closure(s.minimal, n))) for s in enumerate_mls(GroundSet(n))}
        ok &= got == set(oracles.scan_maximal_linked(n)) and len(got) == expected[n]
    got5 = {frozenset(s.minimal) for s in enumerate_mls(GroundSet(5))}
    ok &= got5 == set(oracles.antichain_maximal_linked(5))
    start = time.monotonic()
    count6 = len(enumerate_mls(GroundSet(6)))
    elapsed = time.monotonic() - start
    ok &= count6 == expected[6] == EXPECTED_MLS_COUNTS[6] and elapsed < 10.0
    verdict(capfd, "criterion 1: MLS counts 1..6 vs direct oracle", ok, f"n=6 in {elapsed:.2f}s")


def test_c02_exchange_identity(capfd):
    ok = True
    checks = 0
    for n in (1, 2, 3, 4, 5):
        body = suite_eq1(n)
        ok &= not body["failures"]
        checks += body["checks_run"]
    # negative control: a deliberately non-maximal linked family, {111},
    # where max-min is 0 and min-max is 2 at f = (0, 1, 2)
    _, failures = _eq1_chunk((3, ((0b111,),)))
    ok &= {"system": ["7"], "f": [0, 1, 2]} in failures
    ok &= (oracles.naive_maxmin((0b111,), [0, 1, 2]), oracles.naive_minmax((0b111,), [0, 1, 2])) == (0, 2)
    verdict(capfd, "criterion 2: max-min equals min-max on the full grid, n <= 5", ok, f"{checks} checks")


def test_c03_axiom_suite(capfd):
    ok = True
    checked = 0
    for n in (1, 2, 3, 4):
        for t in term_zoo(GroundSet(n)):
            checked += 1
            ok &= axiom_check(t, trials=500, seed=0).ok
    bad1 = axiom_check(lambda f: max(f.values) + min(f.values), ground=GroundSet(3), trials=200, seed=1)
    bad2 = axiom_check(lambda f: f.values[0] ** 2, ground=GroundSet(3), trials=200, seed=1)
    ok &= not bad1.ok and bad1.axiom == "weak additivity"
    ok &= not bad2.ok
    verdict(capfd, "criterion 3: axiom suite, 500 trials per term plus negative oracles", ok, f"{checked} terms")


def test_c04_separation(capfd):
    ok = True
    pairs = 0
    for n in (1, 2, 3, 4):
        lam = list(enumerate_mls(GroundSet(n)))
        for eta, xi in itertools.permutations(lam, 2):
            f = separating_function(eta, xi)
            ok &= set(f.values) <= {0, 1}
            ok &= phi(eta, f) == 1 and phi(xi, f) == 0
            pairs += 1
    verdict(capfd, "criterion 4: 0/1 separating functions for all distinct pairs, n <= 4", ok, f"{pairs} ordered pairs")


def test_c05_functor_laws(capfd):
    body = suite_functor_laws(3)
    ok = not body["failures"]
    # spot-check the image-formula agreement on a surjection directly
    pm = PointMap(GroundSet(3), GroundSet(2), (0, 1, 1))
    for s in enumerate_mls(GroundSet(3)):
        ok &= lambda_map(pm, s) == lambda_map_image(pm, s)
    verdict(capfd, "criterion 5: identity/composition laws and formula agreement", ok, f"{body['checks_run']} checks")


def test_c06_subbase(capfd):
    ok = True
    for n in (1, 2, 3, 4):
        sb = lambda_plus_subbase(n)
        ok &= is_binary(sb).ok and is_normal(sb).ok
    verdict(capfd, "criterion 6: the plus-set subbase is binary and normal, n <= 4", ok)


def test_c07_usco_constructions(capfd):
    ok = True
    names = []
    for name, e in standard_operators():
        assert e.codomain.n <= 9
        r = usco_from_regular(e)
        ok &= check_usco_map(r).ok  # nonempty, point-fixed, usc
        g = GroundSet(len(r.inject))
        for x in range(g.n):
            ok &= r.values[r.inject[x]] == (eta_point(g, x),)
        ok &= validate_regular(regular_from_usco(r)).ok
        names.append(name)
    verdict(capfd, "criterion 7: usco maps and operator round trips on carriers <= 9", ok, f"{len(names)} operators")


def test_c08_extension_intervals(capfd):
    ok = True
    rng = random.Random(2024)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        g = GroundSet(n)
        t = rng.choice(term_zoo(g))

        def rand_fn():
            return PointFunction.of(g, [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)])

        gens = tuple((b, evaluate(t, b)) for b in (rand_fn() for _ in range(rng.randint(1, 3))))
        phi0 = rand_fn()
        b0 = GeneratedSubspace(g, gens)
        if b0.contains(phi0):
            continue
        lower, upper, _ = extend_one(b0, phi0)
        ok &= lower <= evaluate(t, phi0) <= upper
        done += 1
    # hand-derived examples against the step-1/100 grid oracle; the
    # documented breakpoints are integers, so agreement is exact
    g2 = GroundSet(2)
    one = PointFunction.of(g2, [1, 1])
    ex1 = extend_one(GeneratedSubspace(g2, ((one, F(1)),)), PointFunction.of(g2, [0, 1]))
    ok &= ex1 == (0, 1, F(1, 2))
    glo, ghi = oracles.grid_interval([], [F(0), F(1)])
    ok &= (glo, ghi) == (0, 1)
    gens2 = ((PointFunction.of(g2, [0, 1]), F(1)), (one, F(1)))
    ok &= admissible_interval(gens2, PointFunction.of(g2, [0, 2])) == (2, 2)
    glo, ghi = oracles.grid_interval([([F(0), F(1)], F(1))], [F(0), F(2)])
    ok &= (glo, ghi) == (2, 2)
    verdict(capfd, "criterion 8: extension intervals, 100 seeded instances plus grid oracle", ok)


def test_c09_inclusion_hyperspaces(capfd):
    ok = len(enumerate_ih(GroundSet(2))) == 4 == len(oracles.all_antichains(2))
    ok &= len(enumerate_ih(GroundSet(3))) == 18 == len(oracles.all_antichains(3))
    for n in (1, 2, 3, 4):
        mls_antichains = {s.minimal for s in enumerate_mls(GroundSet(n))}
        hyper = {h.minimal for h in enumerate_ih(GroundSet(n))}
        ok &= mls_antichains <= hyper  # every MLS is an inclusion hyperspace
        selfdual = {h.minimal for h in enumerate_ih(GroundSet(n)) if h.is_maximal_linked()}
        ok &= selfdual == mls_antichains  # the criterion separates exactly
    verdict(capfd, "criterion 9: hyperspace counts and the self-duality separation, n <= 4", ok)


def test_c10_determinism(capfd, tmp_path):
    ok = True
    suites = ["counts", "eq1", "axioms", "functor-laws", "subbase-lambda", "usco-roundtrip"]
    for suite in suites:
        blobs = []
        for w in ("1", "2", "8"):
            out = tmp_path / f"{suite}-{w}.json"
            code = main(["verify", "--suite", suite, "--n", "4", "--workers", w, "--out", str(out)])
            ok &= code == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1] == blobs[2]
    verdict(capfd, "criterion 10: byte-identical reports under 1, 2, and 8 workers", ok, f"{len(suites)} suites")
