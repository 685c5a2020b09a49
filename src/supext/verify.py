"""Named verification suites behind the `supext verify` command.

Every suite takes the ground size n and the keyword options workers, seed
and trials, ignoring those it has no use for.  It returns a
machine-readable report; reports are byte-identical across runs and worker
counts for equal configurations.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from . import parallel
from .errors import InputError
from .setkit import GroundSet, PointMap, _plus_columns, popcount
from .superext import EXPECTED_MLS_COUNTS, enumerate_mls, lambda_map, lambda_map_image

# Only the modules the counts and eq1 suites use are imported here; every
# other suite imports its modules itself, so a census job never loads
# functionals or embed.
if TYPE_CHECKING:
    from .embed import RegularOperator
    from .functionals import Term
    from .subbase import Subbase

ANCHORS = {
    "counts": "maximal linked system census",
    "eq1": "max-min / min-max exchange identity",
    "axioms": "monotonicity, homogeneity, weak-additivity axioms",
    "functor-laws": "identity and composition laws of the set-family functors",
    "subbase-lambda": "binarity and normality of the superextension subbase",
    "usco-roundtrip": "regular operators to usco maps and back",
}

EQ1_GRID = (-1, 0, 1, 2)


def _eq1_chunk(args: tuple[int, tuple[tuple[int, ...], ...]]) -> tuple[int, list[dict]]:
    """Worker: exchange identity over the full grid for a chunk of systems.

    ``lo[m]`` and ``hi[m]`` hold min_m f and max_m f for every grid point f,
    each built from the column of m without its lowest point.  A system's
    max-min column is then the elementwise max of its members' ``lo``
    columns, and its min-max column the elementwise min of their ``hi``.
    """
    n, antichains = args
    failures: list[dict] = []
    grid = list(itertools.product(EQ1_GRID, repeat=n))
    lo: list[list[int]] = [[]] * (1 << n)
    hi: list[list[int]] = [[]] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        if m == low:
            x = low.bit_length() - 1
            lo[m] = hi[m] = [f[x] for f in grid]
        else:
            lo[m] = list(map(min, lo[low], lo[m ^ low]))
            hi[m] = list(map(max, hi[low], hi[m ^ low]))
    for minimal in antichains:
        # map(max, col) would call max() on single ints
        if len(minimal) == 1:
            mm, nm = lo[minimal[0]], hi[minimal[0]]
        else:
            mm = list(map(max, *(lo[m] for m in minimal)))
            nm = list(map(min, *(hi[m] for m in minimal)))
        if mm != nm:
            failures.extend(
                {"system": [format(m, "x") for m in minimal], "f": list(f)}
                for f, a, b in zip(grid, mm, nm)
                if a != b
            )
    return len(grid) * len(antichains), failures


# Measured on 2 vCPU, Python 3.11: at n=5 a two-process pool gains nothing
# (61 ms serially, 64 ms through one, before the 30 ms it takes to import
# concurrent.futures); at n=6 it halves the check (11.5 s -> 6.7 s).  Below
# n=6 the suite, enumeration included, runs in this process.
_EQ1_POOL_FROM_N = 6


def suite_eq1(n: int, workers: int = 1, **_: int) -> dict:
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    if n < _EQ1_POOL_FROM_N:
        workers = 1
    lam = enumerate_mls(GroundSet(n), workers=workers)
    antichains = [eta.minimal for eta in lam.systems]
    chunks = [tuple(antichains[i::workers]) for i in range(workers)]
    results = parallel.map_chunks(_eq1_chunk, [(n, c) for c in chunks if c], workers)
    checks = sum(c for c, _ in results)
    failures = sorted(
        (f for _, fs in results for f in fs), key=lambda d: (d["system"], d["f"])
    )
    return {"checks_run": checks, "failures": failures}


def suite_counts(n: int, workers: int = 1, **_: int) -> dict:
    expected = EXPECTED_MLS_COUNTS.get(n)
    actual = len(enumerate_mls(GroundSet(n), workers=workers))
    failures = []
    if expected is not None and actual != expected:
        failures.append({"expected": expected, "actual": actual})
    return {
        "checks_run": 1,
        "expected": expected,
        "actual": actual,
        "pass": not failures,
        "failures": failures,
    }


def term_zoo(ground: GroundSet) -> list[Term]:
    """A representative spread of constructible terms on the ground set."""
    from fractions import Fraction

    from .functionals import Convex, Dirac, Linear, MaxMin, MaxOver, MinOver, Precompose

    n = ground.n
    half = Fraction(1, 2)
    terms: list[Term] = [Dirac(ground, x) for x in ground.points()]
    terms += [MaxMin(eta) for eta in enumerate_mls(ground)]
    # Bare MinOver/MaxOver on a non-singleton set are monotone and weakly
    # additive but not homogeneous under negative scalars (min(k*f) equals
    # k*max(f) for k < 0); only their midrange combination qualifies.
    terms += [MinOver(ground, 1 << x) for x in ground.points()]
    terms += [MaxOver(ground, 1 << x) for x in ground.points()]
    for m in ground.nonempty_subsets():
        if popcount(m) >= 2:
            terms.append(Convex((half, half), (MaxOver(ground, m), MinOver(ground, m))))
    terms.append(Linear(ground, tuple(Fraction(1, n) for _ in range(n))))
    if n >= 2:
        w = [Fraction(0)] * n
        w[0], w[1] = half, half
        terms.append(Linear(ground, tuple(w)))
        midrange = Convex((half, half), (MaxOver(ground, ground.full), MinOver(ground, ground.full)))
        terms.append(Convex((half, half), (Dirac(ground, 0), midrange)))
        small = GroundSet(n - 1) if n > 2 else GroundSet(1)
        include = PointMap(small, ground, tuple(range(small.n)))
        terms.append(Precompose(include, Dirac(small, 0)))
        if small.n >= 2:
            terms.append(
                Precompose(
                    include,
                    Convex((half, half), (MaxOver(small, small.full), MinOver(small, small.full))),
                )
            )
    return terms


def suite_axioms(
    n: int, seed: int = 0, trials: int = 500, terms: list[Term] | None = None, **_: int
) -> dict:
    from .functionals import axiom_check, term_to_obj, witness_to_obj

    ground = GroundSet(n)
    if terms is None:
        terms = term_zoo(ground)
    failures = []
    for term in terms:
        res = axiom_check(term, trials=trials, seed=seed)
        if not res.ok:
            failures.append(
                {"term": term_to_obj(term), "axiom": res.axiom, "witness": witness_to_obj(res.witness)}
            )
    return {"checks_run": len(terms), "failures": failures}


def _all_maps(a: GroundSet, b: GroundSet) -> list[PointMap]:
    return [PointMap(a, b, img) for img in itertools.product(range(b.n), repeat=a.n)]


def suite_functor_laws(n: int, workers: int = 1, **_: int) -> dict:
    from .inclusion import enumerate_ih, g_map

    cap = min(n, 3)
    grounds = [GroundSet(k) for k in range(1, cap + 1)]
    lams = {g.n: enumerate_mls(g) for g in grounds}
    ihs = {g.n: enumerate_ih(g) for g in grounds}
    checks = 0
    failures: list[dict] = []
    # The laws compare pushforwards that recur across laws and maps, so each
    # distinct (map, system) pair is pushed forward once, through lambda_map
    # or g_map and their own checks, and looked up afterwards.  A system's
    # ground is the map's domain, so its minimal members, the map's image
    # and the codomain size make the key.
    pushed: dict[tuple, object] = {}

    def push(functor, pm: PointMap, x):
        key = (functor, pm.image, pm.cod.n, x.minimal)
        out = pushed.get(key)
        if out is None:
            out = pushed[key] = functor(pm, x)
        return out

    def fail(kind: str, detail: str) -> None:
        failures.append({"law": kind, "detail": detail})

    for g in grounds:
        ident = PointMap.identity(g)
        for eta in lams[g.n]:
            checks += 1
            if push(lambda_map, ident, eta) != eta:
                fail("lambda-identity", f"n={g.n} system={eta.minimal}")
        for a in ihs[g.n]:
            checks += 1
            if push(g_map, ident, a) != a:
                fail("g-identity", f"n={g.n} hyperspace={a.minimal}")
    for ga, gb, gc in itertools.product(grounds, repeat=3):
        for f in _all_maps(ga, gb):
            for g in _all_maps(gb, gc):
                gf = g.compose(f)
                for eta in lams[ga.n]:
                    checks += 1
                    if push(lambda_map, gf, eta) != push(lambda_map, g, push(lambda_map, f, eta)):
                        fail("lambda-composition", f"f={f.image} g={g.image} eta={eta.minimal}")
                for a in ihs[ga.n]:
                    checks += 1
                    if push(g_map, gf, a) != push(g_map, g, push(g_map, f, a)):
                        fail("g-composition", f"f={f.image} g={g.image} A={a.minimal}")
    for ga, gb in itertools.product(grounds, repeat=2):
        for f in _all_maps(ga, gb):
            if not f.is_surjective():
                continue
            for eta in lams[ga.n]:
                checks += 1
                if push(lambda_map, f, eta) != lambda_map_image(f, eta):
                    fail("lambda-image-agreement", f"f={f.image} eta={eta.minimal}")
    return {"checks_run": checks, "failures": failures}


def lambda_plus_subbase(n: int, workers: int = 1) -> Subbase:
    """The subbase {F-plus} over the superextension carrier."""
    from .subbase import Subbase, check_carrier

    if n in EXPECTED_MLS_COUNTS:
        # one carrier point per system: refuse an oversized carrier (n=7)
        # before enumerating it
        check_carrier(EXPECTED_MLS_COUNTS[n])
    lam = enumerate_mls(GroundSet(n), workers=workers)
    plus = _plus_columns((eta.minimal for eta in lam.systems), n)
    members = [plus[f] for f in lam.ground.nonempty_subsets()]
    return Subbase(len(lam.systems), tuple(m for m in members if m))


def suite_subbase_lambda(n: int, workers: int = 1, **_: int) -> dict:
    from .subbase import is_binary, is_normal

    sb = lambda_plus_subbase(n, workers=workers)
    failures = []
    b = is_binary(sb)
    if not b.ok:
        failures.append({"check": "binary", "witness": [format(m, "x") for m in b.witness]})
    m = is_normal(sb)
    if not m.ok:
        failures.append({"check": "normal", "witness": [format(x, "x") for x in m.witness]})
    return {"checks_run": 2, "failures": failures}


def two_in_three_operator() -> RegularOperator:
    """Discrete 2-point space inside a 3-point space whose extra point is generic."""
    from .embed import FiniteTopSpace, RegularOperator

    x = FiniteTopSpace.discrete(2)
    y = FiniteTopSpace(3, (0b001, 0b010, 0b111))
    return RegularOperator(x, y, (0, 1), ((0, 0), (1, 1), (2, 2), (3, 7)))


def standard_operators() -> list[tuple[str, RegularOperator]]:
    from .embed import FiniteTopSpace, RegularOperator, compose_operators, product_operator

    ops: list[tuple[str, RegularOperator]] = []
    for k in (1, 2, 3):
        ops.append((f"identity-discrete-{k}", RegularOperator.identity(FiniteTopSpace.discrete(k))))
    e = two_in_three_operator()
    ops.append(("two-in-three", e))
    z = FiniteTopSpace(4, (0b0001, 0b0010, 0b0111, 0b1000))
    outer = RegularOperator(
        e.codomain, z, (0, 1, 2),
        tuple((u, u) for u in e.codomain.opens()),
    )
    ops.append(("two-in-three-in-four", compose_operators(outer, e)))
    ops.append(("product-3x3", product_operator([e, e])))
    return ops


def suite_usco_roundtrip(n: int = 0, workers: int = 1, **_: int) -> dict:
    from .embed import check_usco_map, regular_from_usco, usco_from_regular, validate_regular

    checks = 0
    failures: list[dict] = []
    for name, e in standard_operators():
        checks += 1
        v = validate_regular(e)
        if not v.ok:
            failures.append({"operator": name, "stage": "validate", "axiom": v.axiom})
            continue
        r = usco_from_regular(e)
        u = check_usco_map(r)
        if not u.ok:
            failures.append({"operator": name, "stage": "usco", "axiom": u.axiom, "witness": u.witness})
            continue
        checks += 1
        rt = regular_from_usco(r, domain=e.domain)
        v2 = validate_regular(rt)
        if not v2.ok:
            failures.append({"operator": name, "stage": "roundtrip", "axiom": v2.axiom})
        checks += 1
    return {"checks_run": checks, "failures": failures}


SUITES = {
    "counts": suite_counts,
    "eq1": suite_eq1,
    "axioms": suite_axioms,
    "functor-laws": suite_functor_laws,
    "subbase-lambda": suite_subbase_lambda,
    "usco-roundtrip": suite_usco_roundtrip,
}


def run_verify_suite(
    suite: str, n: int, seed: int = 0, trials: int = 500, workers: int = 1
) -> dict:
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    GroundSet(n)  # one size check for every suite, before any of them runs
    body = SUITES[suite](n, workers=workers, seed=seed, trials=trials)
    report = {"suite": suite, "anchor": ANCHORS[suite], "n": n}
    report.update(body)
    return report
