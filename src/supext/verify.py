"""Named verification suites behind the `supext verify` command.

Every suite takes the ground size n and the keyword options workers, seed
and trials, ignoring those it has no use for.  ``run_verify_suite`` refuses
a ground size out of range and fewer than one worker before any suite
runs.  A suite returns a machine-readable report; reports are
byte-identical across runs and worker counts for equal configurations.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable

from .errors import InputError, TooLarge, hex_masks
from .setkit import GroundSet, PointMap, _canonical, _covered, _disjoint, _supersets, _word_columns
from .superext import EXPECTED_MLS_COUNTS, _POOL_FROM_N, enumerate_mls, lambda_map, lambda_map_image, mls_words

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


def _enum_workers(n: int, workers: int) -> int:
    """The workers a suite enumerates with: one below ``_POOL_FROM_N``,
    where a pool costs more than the work it shares."""
    return workers if n >= _POOL_FROM_N else 1


def _eq1_failures(n: int, antichains: Iterable[tuple[int, ...]]) -> list[dict]:
    """The failures of the exchange identity over the full grid for the given systems.

    Max-min and min-max forms commute with monotone maps of the value
    scale, so each is at least t at f exactly where it is 1 on the
    indicator of the level set S = {x : f_x >= t}: max-min iff S contains
    a member, min-max iff S meets every member.  Per system, over the 2^n
    subsets S, ``up`` is the OR of the members' superset bitsets and ``tr``
    the AND of their meeting bitsets, each built from the members alone;
    the forms differ at f exactly when one of its level sets, at a
    threshold above the least grid value, lies in ``up ^ tr``.
    """
    everything = (1 << (1 << n)) - 1
    supersets = _supersets(n)
    meets = [everything ^ d for d in _disjoint(n)]
    failures: list[dict] = []
    grid: list[tuple[tuple[int, ...], int]] = []
    for minimal in antichains:
        up, tr = 0, everything
        for m in minimal:
            up |= supersets[m]
            tr &= meets[m]
        split = up ^ tr
        if split:
            if not grid:
                # each grid point, in itertools.product order, with the
                # bitset of its level sets, one per threshold
                for f in itertools.product(EQ1_GRID, repeat=n):
                    levels = 0
                    for t in sorted(EQ1_GRID)[1:]:
                        levels |= 1 << sum(1 << x for x, a in enumerate(f) if a >= t)
                    grid.append((f, levels))
            system = hex_masks(minimal)
            failures += ({"system": system, "f": list(f)} for f, levels in grid if levels & split)
    return failures


def suite_eq1(n: int, workers: int = 1, **_: int) -> dict:
    # The eq1 kernel always runs in this process; below the pool threshold
    # the enumeration it checks does too, whatever the worker count, so that
    # `verify --suite eq1 --n 5 --workers 2` starts no pool.
    lam = enumerate_mls(GroundSet(n), workers=_enum_workers(n, workers))
    failures = _eq1_failures(n, (eta.minimal for eta in lam))
    failures.sort(key=lambda d: (d["system"], d["f"]))
    return {"checks_run": len(EQ1_GRID) ** n * len(lam), "failures": failures}


def suite_counts(n: int, workers: int = 1, **_: int) -> dict:
    expected = EXPECTED_MLS_COUNTS.get(n)
    actual = len(mls_words(GroundSet(n), workers=_enum_workers(n, workers)))
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


# The zoo holds a MaxMin term per maximal linked system, and the axioms
# suite checks each term with its trials.  Measured on 2 vCPU, Python 3.11,
# with 500 trials: n=6 took 5.6 to 6.2 s for its 2,726 terms (three runs),
# about 2 ms a term, so the 1,422,564 systems at n=7, each with more members,
# would take an hour or more (extrapolated, not run).
MAX_ZOO_N = 6


def term_zoo(ground: GroundSet) -> list[Term]:
    """A representative spread of constructible terms on the ground set."""
    from fractions import Fraction

    from .functionals import Convex, Dirac, Linear, MaxMin, MaxOver, MinOver, Precompose

    n = ground.n
    if n > MAX_ZOO_N:
        raise TooLarge(f"term zoo capped at n <= {MAX_ZOO_N}")
    half = Fraction(1, 2)
    terms: list[Term] = [Dirac(ground, x) for x in ground.points()]
    terms += [MaxMin(eta) for eta in enumerate_mls(ground)]
    # Bare MinOver/MaxOver on a non-singleton set are monotone and weakly
    # additive but not homogeneous under negative scalars (min(k*f) equals
    # k*max(f) for k < 0); only their midrange combination qualifies.
    terms += [MinOver(ground, 1 << x) for x in ground.points()]
    terms += [MaxOver(ground, 1 << x) for x in ground.points()]
    for m in ground.nonempty_subsets():
        if m.bit_count() >= 2:
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


def suite_axioms(n: int, seed: int = 0, trials: int = 500, **_: int) -> dict:
    from .functionals import axiom_check, term_to_obj, witness_to_obj

    terms = term_zoo(GroundSet(n))
    failures = []
    for term in terms:
        res = axiom_check(term, trials=trials, seed=seed)
        if not res.ok:
            failures.append(
                {"term": term_to_obj(term), "axiom": res.axiom, "witness": witness_to_obj(res.witness)}
            )
    return {"checks_run": len(terms), "failures": failures}


def suite_functor_laws(n: int, workers: int = 1, **_: int) -> dict:
    from .inclusion import enumerate_ih, g_map

    grounds = [GroundSet(k) for k in range(1, min(n, 3) + 1)]
    maps = {
        (a, b): [PointMap(a, b, img) for img in itertools.product(range(b.n), repeat=a.n)]
        for a, b in itertools.product(grounds, repeat=2)
    }
    # A functor F sends each map f: a -> b to F(f): F(a) -> F(b), so each
    # functor is held as one table: under (f.image, b), F(f) as a dict from
    # F(a), in listed order, to the pushforwards.  The laws compare table
    # entries, so lambda_map and g_map, with their own checks, run once per
    # (map, structure) pair.  Per functor: the law prefix, the structure's
    # name in identity and in composition details, and the table.
    functors = []
    for law, ident_word, comp_word, push, enum in (
        ("lambda", "system", "eta", lambda_map, enumerate_mls),
        ("g", "hyperspace", "A", g_map, enumerate_ih),
    ):
        spaces = {a: enum(a) for a in grounds}
        table = {(f.image, b): {x: push(f, x) for x in spaces[a]} for (a, b), fs in maps.items() for f in fs}
        functors.append((law, ident_word, comp_word, table))
    checks = 0
    failures: list[dict] = []
    for a in grounds:
        for law, word, _, table in functors:
            for x, fx in table[tuple(a.points()), a].items():
                checks += 1
                if fx != x:
                    failures.append({"law": f"{law}-identity", "detail": f"n={a.n} {word}={x.minimal}"})
    for a, b, c in itertools.product(grounds, repeat=3):
        for f in maps[a, b]:
            for g in maps[b, c]:
                gf = tuple(g.image[y] for y in f.image)
                for law, _, word, table in functors:
                    push_g = table[g.image, c].get  # an fx outside F(b) reads None and fails
                    for (x, fx), gfx in zip(table[f.image, b].items(), table[gf, c].values()):
                        checks += 1
                        if gfx != push_g(fx):
                            detail = f"f={f.image} g={g.image} {word}={x.minimal}"
                            failures.append({"law": f"{law}-composition", "detail": detail})
    lam_table = functors[0][-1]
    # the image formula agrees with lambda_map on every map; the suite checks
    # surjections only, so that checks_run (26,669 at n=3) and the report
    # digests pinned on it stay as they are
    for (a, b), fs in maps.items():
        for f in fs:
            if f.is_surjective():
                for eta, fx in lam_table[f.image, b].items():
                    checks += 1
                    if fx != lambda_map_image(f, eta):
                        detail = f"f={f.image} eta={eta.minimal}"
                        failures.append({"law": "lambda-image-agreement", "detail": detail})
    return {"checks_run": checks, "failures": failures}


def lambda_plus_subbase(n: int, workers: int = 1) -> Subbase:
    """The subbase {F-plus} over the superextension carrier.

    The carrier lists the systems in ``enumerate_mls`` order: each kernel
    word, the system's up-closure, is sorted by its minimal members, and
    the words themselves are transposed into the members.
    """
    from .subbase import Subbase, check_carrier

    if n in EXPECTED_MLS_COUNTS:
        # one carrier point per system: refuse an oversized carrier (n=7)
        # before enumerating it
        check_carrier(EXPECTED_MLS_COUNTS[n])
    ground = GroundSet(n)
    words = sorted(mls_words(ground, workers=workers), key=lambda w: _canonical(w & ~_covered(w, n), n))
    plus = _word_columns(words, n)
    members = [plus[f] for f in ground.nonempty_subsets()]
    return Subbase(len(words), tuple(m for m in members if m))


def suite_subbase_lambda(n: int, workers: int = 1, **_: int) -> dict:
    from .subbase import is_binary, is_normal

    sb = lambda_plus_subbase(n, workers=workers)
    failures = []
    b = is_binary(sb)
    if not b.ok:
        failures.append({"check": "binary", "witness": hex_masks(b.witness)})
    m = is_normal(sb)
    if not m.ok:
        failures.append({"check": "normal", "witness": hex_masks(m.witness)})
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
        rt = regular_from_usco(r)
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
    # one size check and one worker check for every suite, before any of them runs
    GroundSet(n)
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    body = SUITES[suite](n, workers=workers, seed=seed, trials=trials)
    report = {"suite": suite, "anchor": ANCHORS[suite], "n": n}
    report.update(body)
    return report
