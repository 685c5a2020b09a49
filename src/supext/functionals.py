"""Monotone, homogeneous, weakly additive functionals on a finite ground set.

A functional eats a point function (one rational per point) and returns a
rational.  The three defining axioms: f <= g implies u(f) <= u(g);
u(k*f) = k*u(f) for every real k; u(f + c) = u(f) + c for every constant c.

Functionals are represented by a closed term language: point evaluations,
max-min functionals of maximal linked systems, min/max over a fixed set,
probability-measure style linear terms, convex combinations, and
precompositions along point maps.  Everything evaluates in exact rationals:
a term compiles to a kernel on integer rows over a common denominator, and
only the result is made a Fraction.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import Check, InputError, TooLarge, Value, _exact, hex_mask, hex_masks, json_int, json_list, json_mask, json_masks, json_rational, read_json
from .setkit import GroundSet, PointMap, _canonical, _complements, bits, canonical_key, check_injection, up_closure
from .superext import MaxLinkedSystem, enumerate_mls


class PointFunction(Value, namedtuple("PointFunction", "ground values")):
    """A rational-valued function on the points of a ground set."""

    __slots__ = ()

    def __new__(cls, ground: GroundSet, values: Iterable) -> "PointFunction":
        if type(values) is not tuple or any(type(v) is not Fraction for v in values):
            values = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        return super().__new__(cls, ground, values)

    def __init__(self, ground: GroundSet, values: Iterable) -> None:
        if len(self.values) != ground.n:
            raise InputError("one value per point required")

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    def precompose(self, pm: PointMap) -> "PointFunction":
        """self o pm, a function on pm's domain."""
        if pm.cod != self.ground:
            raise InputError("map codomain does not match function ground")
        return PointFunction(pm.dom, tuple(self.values[pm.image[x]] for x in range(pm.dom.n)))


# --------------------------------------------------------------------------
# The term language


class Term(Value):
    """Base class for functional terms; subclasses carry a .ground."""

    __slots__ = ()
    ground: GroundSet


class Dirac(Term, namedtuple("Dirac", "ground x")):
    __slots__ = ()

    def __init__(self, ground: GroundSet, x: int) -> None:
        ground.check_point(x)


class MaxMin(Term, namedtuple("MaxMin", "system")):
    """f -> max over members F of the system of min of f on F."""

    __slots__ = ()

    @property
    def ground(self) -> GroundSet:  # type: ignore[override]
        return self.system.ground


class MinOver(Term, namedtuple("MinOver", "ground mask")):
    __slots__ = ()

    def __init__(self, ground: GroundSet, mask: int) -> None:
        ground.check_mask(mask)
        if mask == 0:
            raise InputError("MinOver needs a nonempty set")


class MaxOver(Term, namedtuple("MaxOver", "ground mask")):
    __slots__ = ()

    def __init__(self, ground: GroundSet, mask: int) -> None:
        ground.check_mask(mask)
        if mask == 0:
            raise InputError("MaxOver needs a nonempty set")


class Linear(Term, namedtuple("Linear", "ground weights")):
    """A probability-measure style term: nonnegative weights summing to 1."""

    __slots__ = ()

    def __new__(cls, ground: GroundSet, weights: Iterable) -> "Linear":
        return super().__new__(cls, ground, tuple(Fraction(w) for w in weights))

    def __init__(self, ground: GroundSet, weights: Iterable) -> None:
        ws = self.weights
        if len(ws) != ground.n:
            raise InputError("one weight per point required")
        if any(w < 0 for w in ws) or sum(ws) != 1:
            raise InputError("weights must be nonnegative and sum to 1")


class Convex(Term, namedtuple("Convex", "weights parts")):
    """A convex combination of terms on a common ground."""

    __slots__ = ()

    def __new__(cls, weights: Iterable, parts: tuple[Term, ...]) -> "Convex":
        return super().__new__(cls, tuple(Fraction(w) for w in weights), parts)

    def __init__(self, weights: Iterable, parts: tuple[Term, ...]) -> None:
        ws = self.weights
        if not parts or len(ws) != len(parts):
            raise InputError("one weight per part required")
        if any(w <= 0 for w in ws) or sum(ws) != 1:
            raise InputError("convex weights must be positive and sum to 1")
        g = parts[0].ground
        if any(p.ground != g for p in parts):
            raise InputError("convex parts on different grounds")

    @property
    def ground(self) -> GroundSet:  # type: ignore[override]
        return self.parts[0].ground


class Precompose(Term, namedtuple("Precompose", "point_map inner")):
    """The pushforward of ``inner`` along ``point_map``.

    Evaluating at h gives inner(h o point_map); the term lives on the
    map's codomain while inner lives on its domain.
    """

    __slots__ = ()

    def __init__(self, point_map: PointMap, inner: Term) -> None:
        if inner.ground != point_map.dom:
            raise InputError("inner term must live on the map's domain")

    @property
    def ground(self) -> GroundSet:  # type: ignore[override]
        return self.point_map.cod


# --------------------------------------------------------------------------
# Evaluation

# A kernel maps a row r of integers, standing for the point function r/S
# with S > 0, to an integer N; with D the term's own denominator the
# term's value is N/(S*D).
Kernel = Callable[[Sequence[int]], int]


def _getter(points: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The entries of a row at the given points, always as a tuple."""
    if len(points) == 1:
        (x,) = points
        return lambda r: (r[x],)
    return itemgetter(*points)


def compile_term(term: Term) -> tuple[Kernel, int]:
    """The term as an integer kernel and its fixed denominator D.

    Point lookups, min and max commute with the positive factor 1/S, so
    they run on the integer row as it is; linear and convex terms take
    integer weights over the lcm of their denominators, and precomposition
    reindexes the row.  No rational is built while a kernel runs.
    """
    match term:
        case Dirac(x=x):
            return itemgetter(x), 1
        case MaxMin(system=eta):
            members = [_getter(tuple(bits(m))) for m in eta.minimal]
            return (lambda r: max([min(g(r)) for g in members])), 1
        case MinOver(mask=m):
            on = _getter(tuple(bits(m)))
            return (lambda r: min(on(r))), 1
        case MaxOver(mask=m):
            on = _getter(tuple(bits(m)))
            return (lambda r: max(on(r))), 1
        case Linear(weights=ws):
            d = lcm(*(w.denominator for w in ws))
            iw = tuple(w.numerator * (d // w.denominator) for w in ws)
            return (lambda r: sum(map(mul, iw, r))), d
        case Convex(weights=ws, parts=ps):
            kernels, dens = zip(*map(compile_term, ps))
            d = lcm(*(w.denominator * dp for w, dp in zip(ws, dens)))
            parts = tuple(
                (w.numerator * (d // (w.denominator * dp)), k) for w, dp, k in zip(ws, dens, kernels)
            )
            return (lambda r: sum([c * k(r) for c, k in parts])), d
        case Precompose(point_map=pm, inner=inner):
            k, d = compile_term(inner)
            pull = _getter(pm.image)
            return (lambda r: k(pull(r))), d
    raise InputError(f"unknown term {term!r}")


def _common_scale(functions: Iterable[Sequence[Fraction]]) -> int:
    """The lcm of the denominators of every value given."""
    return lcm(*(v.denominator for values in functions for v in values))


def _scaled(values: Iterable[Fraction], s: int) -> tuple[int, ...]:
    """s * v for each value, as integers; s is a common multiple of their denominators."""
    return tuple(v.numerator * (s // v.denominator) for v in values)


def evaluate(term: Term, f: PointFunction) -> Fraction:
    if f.ground != term.ground:
        raise InputError("function and term on different grounds")
    kernel, d = compile_term(term)
    s = _common_scale([f.values])
    return Fraction(kernel(_scaled(f.values, s)), s * d)


def phi(eta: MaxLinkedSystem, f: PointFunction) -> Fraction:
    """max over members F of eta of min of f on F.

    Computed over the minimal antichain: the min over a superset is no
    larger, so non-minimal members never raise the max.
    """
    if f.ground != eta.ground:
        raise InputError("function and system on different grounds")
    return evaluate(MaxMin(eta), f)


# --------------------------------------------------------------------------
# Axiom checking


PASS = Check(True)


def _rand_fraction(rng: random.Random, lo: int = -32, hi: int = 32, den: int = 16) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_function(rng: random.Random, ground: GroundSet) -> PointFunction:
    return PointFunction(ground, tuple(_rand_fraction(rng) for _ in ground.points()))


class _Trial(NamedTuple):
    """One row of inputs for the axiom check: f, g = f + inc >= f, k*f and f + c.

    Every function is scaled to integers by the table's S, and c stands
    for c*S; each k = p/q is kept as the pair (p, q).
    """

    f: tuple[int, ...]
    g: tuple[int, ...]
    scaled: tuple[tuple[int, int, tuple[int, ...]], ...]  # (p, q, k*f) per k; empty when normalized
    c: int
    shifted: tuple[int, ...]


# _trial_table draws every row before any check runs: 20,000 rows at n = 16
# took 6.7 s and 165 MB peak RSS (Python 3.11, 2 vCPUs), so an uncapped
# --trials could exhaust memory and end with no report and no exit status.
MAX_TRIALS = 50_000


@functools.lru_cache(maxsize=8)
def _trial_table(ground: GroundSet, trials: int, seed: int, normalized: bool) -> tuple[int, tuple[_Trial, ...]]:
    """S and every trial axiom_check draws for these settings, in its RNG order.

    The inputs never depend on the functional under test, so a suite that
    checks many terms with the same settings draws them once, and scales
    them to integers once.  The table holds ``trials`` rows; the cache
    keeps the last few tables.
    """
    rng = random.Random(seed)
    drawn = []
    for trial in range(trials):
        f = _rand_function(rng, ground).values
        g = tuple(a + abs(_rand_fraction(rng)) for a in f)
        ks = []
        if not normalized:
            ks = [_rand_fraction(rng, -8, 8, 4)]
            if trial == 0:
                ks += [Fraction(0), Fraction(-1)]
        c = _rand_fraction(rng, -8, 8, 4)
        drawn.append((f, g, [(k, tuple(k * v for v in f)) for k in ks], c, tuple(v + c for v in f)))
    # c = (f + c) - f, so its denominator divides the lcm of theirs
    s = _common_scale(fn for f, g, scaled, _, shifted in drawn for fn in (f, g, shifted, *(kf for _, kf in scaled)))
    rows = tuple(
        _Trial(
            _scaled(f, s),
            _scaled(g, s),
            tuple((k.numerator, k.denominator, _scaled(kf, s)) for k, kf in scaled),
            c.numerator * (s // c.denominator),
            _scaled(shifted, s),
        )
        for f, g, scaled, c, shifted in drawn
    )
    return s, rows


def axiom_check(
    target: Term | Callable[[PointFunction], Fraction],
    ground: GroundSet | None = None,
    trials: int = 500,
    seed: int = 0,
    normalized: bool = False,
) -> Check:
    """Seeded randomized check of the three functional axioms.

    Pairs f <= g are built by adding nonnegative increments; scalars
    include 0 and negative values.  With normalized=True the scaling
    axiom is replaced by u(1) = 1 (order-preserving functionals).
    An oracle that raises is reported as a counterexample.

    Every target runs as a kernel on the integer rows, where a value u
    stands for u/(S*D): a term as its compiled kernel, an oracle with
    D = 1, called on the point function row/S and its value multiplied by
    S.  A Fraction is made only for a witness.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise TooLarge(f"trials {trials} exceeds {MAX_TRIALS}")
    if isinstance(target, Term):
        ground = target.ground
    elif ground is None:
        raise InputError("ground required for oracle functionals")
    s, rows = _trial_table(ground, trials, seed, normalized)

    def function(row: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, s) for x in row)

    if isinstance(target, Term):
        u, d = compile_term(target)
    else:

        def u(row: Sequence[int]) -> Fraction:
            v = target(PointFunction(ground, function(row)))
            return (v if type(v) is Fraction else Fraction(v)) * s

        d = 1
    unit, one = s * d, (s,) * ground.n

    def value(v) -> Fraction:
        return Fraction(v, unit)

    try:
        if normalized and u(one) != unit:
            return Check(False, "normalization", {"f": function(one), "u(f)": value(u(one))})
        for row in rows:
            uf = u(row.f)
            if uf > u(row.g):
                witness = {"f": function(row.f), "g": function(row.g), "u(f)": value(uf), "u(g)": value(u(row.g))}
                return Check(False, "monotonicity", witness)
            for p, q, kf in row.scaled:
                if u(kf) * q != p * uf:
                    k = Fraction(p, q)
                    witness = {"f": function(row.f), "k": k, "u(kf)": value(u(kf)), "k*u(f)": k * value(uf)}
                    return Check(False, "homogeneity", witness)
            if u(row.shifted) != uf + row.c * d:
                c = Fraction(row.c, s)
                witness = {"f": function(row.f), "c": c, "u(f+c)": value(u(row.shifted)), "u(f)+c": value(uf) + c}
                return Check(False, "weak additivity", witness)
    except Exception as exc:  # oracle blew up: report, don't propagate
        return Check(False, "error", {"exception": repr(exc)})
    return PASS


# --------------------------------------------------------------------------
# Separation, support, extenders


def separating_function(eta: MaxLinkedSystem, xi: MaxLinkedSystem) -> PointFunction:
    """A 0/1 function with phi(eta, .) = 1 and phi(xi, .) = 0.

    Distinct maximal systems yield disjoint witnesses: some member of eta
    has its complement in xi.  The indicator of the first such member (in
    canonical order) separates the two functionals.
    """
    if eta.ground != xi.ground:
        raise InputError("systems on different grounds")
    if eta == xi:
        raise InputError("cannot separate a system from itself")
    n = eta.ground.n
    witnesses = up_closure(eta.minimal, n) & _complements(up_closure(xi.minimal, n), n)
    a = _canonical(witnesses, n)[0]
    return PointFunction(eta.ground, tuple(Fraction(a >> x & 1) for x in eta.ground.points()))


# support and support_grid build all 3^n points of the {0,1,2}^n grid, and
# retraction_from_extender calls its extender at each.  Measured on 2 vCPU,
# Python 3.11, one run each: support(MaxOver(g, g.full)) took 0.8-1.4 s and
# 82 MB at n = 11, 4.2 s and 211 MB at n = 12 and 10.2 s and 615 MB at
# n = 13; retraction_from_extender with the identity extender took 0.86 s at
# n = 10 and 3.1 s at n = 11.
MAX_GRID_N = 10


def _grid(ground: GroundSet, values: tuple) -> Iterator[tuple]:
    """The {0,1,2}^n grid with ``values`` standing for 0, 1 and 2, in
    ``itertools.product`` order; above the cap, refused before any point is built."""
    if ground.n > MAX_GRID_N:
        raise TooLarge(f"the {{0,1,2}}^n grid is capped at n <= {MAX_GRID_N}")
    return itertools.product(values, repeat=ground.n)


def support_grid(ground: GroundSet) -> list[PointFunction]:
    """The {0,1,2}^n factorization grid."""
    return [PointFunction(ground, combo) for combo in _grid(ground, (Fraction(0), Fraction(1), Fraction(2)))]


def support(term: Term) -> int:
    """The mask of the smallest H such that evaluation depends only on values inside H.

    Brute force: subsets in increasing cardinality, factorization tested
    exhaustively on the {0,1,2}^n grid (grid functions agreeing on H must
    evaluate equally), for n <= ``MAX_GRID_N``.
    """
    ground = term.ground
    grid = list(_grid(ground, range(3)))  # support_grid at scale 1
    kernel, _ = compile_term(term)
    evals = [kernel(f) for f in grid]
    for h in sorted(range(ground.full + 1), key=canonical_key):
        groups: dict[tuple, int] = {}
        ok = True
        for f, v in zip(grid, evals):
            key = tuple(f[x] for x in bits(h))
            if groups.setdefault(key, v) != v:
                ok = False
                break
        if ok:
            return h
    return ground.full


def extender_to_lambda(f: PointFunction) -> dict[MaxLinkedSystem, Fraction]:
    """Extend a function on X to the superextension: eta -> phi(eta, f).

    Restricted to principal systems this returns f(x), so the assignment
    is a genuine extender.
    """
    return {eta: phi(eta, f) for eta in enumerate_mls(f.ground)}


def retraction_from_extender(
    u: Callable[[PointFunction], Sequence[Fraction]],
    ground: GroundSet,
    y_count: int,
    x_to_y: Sequence[int],
) -> list[Callable[[PointFunction], Fraction]]:
    """Turn an extender C(X) -> C(Y) into per-point functionals y -> (f -> u(f)(y)).

    The extender contract (u(f) restricted to X equals f) is validated on
    the {0,1,2}^n grid, for n <= ``MAX_GRID_N``, before anything is returned.
    """
    check_injection(x_to_y, ground.n, y_count, "x_to_y")
    for f in support_grid(ground):
        uf = list(u(f))
        if len(uf) != y_count:
            raise InputError("extender output has wrong length")
        for x in ground.points():
            if Fraction(uf[x_to_y[x]]) != f.values[x]:
                raise InputError(f"u(f) does not restrict to f at point {x}")

    def at(y: int) -> Callable[[PointFunction], Fraction]:
        return lambda f: Fraction(u(f)[y])

    return [at(y) for y in range(y_count)]


def s_preimage(pm: PointMap, nu: Term) -> Term:
    """A term on the map's domain that pushes forward to ``nu``.

    Built from the section sending each codomain point to its numerically
    least preimage; evaluating the result at h o pm recovers nu(h).
    """
    if not pm.is_surjective():
        raise InputError("preimage construction needs a surjective map")
    if nu.ground != pm.cod:
        raise InputError("term must live on the map's codomain")
    section = PointMap(
        pm.cod, pm.dom, tuple(min(x for x in range(pm.dom.n) if pm.image[x] == y) for y in range(pm.cod.n))
    )
    return Precompose(section, nu)


# --------------------------------------------------------------------------
# One-step extension of a partial functional


def _concave_sup(gamma: int, pieces: list[tuple[int, int]]) -> tuple[int, int] | None:
    """sup over t of gamma*t + min_i(a_i*t + b_i) as (num, den) with den > 0; None means unbounded.

    With c_i = a_i + gamma this is the linear program: maximize s subject
    to s <= c_i*t + b_i for every i.  Its dual is: minimize sum_i l_i*b_i
    over l >= 0 with sum_i l_i = 1 and sum_i l_i*c_i = 0.  The dual is
    feasible iff some c_i <= 0 <= c_j; otherwise the primal is unbounded.
    The dual feasible set is the simplex cut by one more equation, a
    polytope whose vertices have at most two nonzero weights, and by
    strong duality the sup equals the least vertex value.  A pair c_i < 0 < c_j has weights
    c_j/(c_j - c_i) and -c_i/(c_j - c_i) and value
    (c_j*b_i - c_i*b_j) / (c_j - c_i); a piece with c_i = 0 has value b_i
    alone, which is also what the pair formula gives when one slope is 0.
    The inputs are integers, the data of one problem scaled by a common
    denominator L, which scales the sup by L as well; the least vertex
    value is kept by cross-multiplication, so no rational is built.
    """
    down: list[tuple[int, int]] = []
    up: list[tuple[int, int]] = []
    for a, b in pieces:
        c = a + gamma
        if c <= 0:
            down.append((c, b))
        if c >= 0:
            up.append((c, b))
    if not down or not up:
        return None
    best: tuple[int, int] | None = None
    for ci, bi in down:
        for cj, bj in up:
            num, den = (bi, 1) if ci == cj else (cj * bi - ci * bj, cj - ci)
            if best is None or num * best[1] < best[0] * den:
                best = (num, den)
    return best


# The construction check of GeneratedSubspace compares every generator
# with every other, so its cost grows about as the square of their number.
# Measured on 2 vCPU, Python 3.11: 128 generators on 16 points take 0.87 s
# (0.30 s on 6 points), 200 take 2.2 s and 400 on 6 points 2.6 s.
MAX_GENERATORS = 128


class GeneratedSubspace(Value, namedtuple("GeneratedSubspace", "ground generators")):
    """A partial functional on the orbits {k*b + c} of finitely many generators.

    Constants are always in the subspace (k = 0).  Construction validates
    that the induced assignment k*b + c -> k*v_b + c is single-valued and
    monotone across all generator pairs; inconsistent data is rejected.
    """

    __slots__ = ()

    def __init__(self, ground: GroundSet, generators: tuple[tuple[PointFunction, Fraction], ...]) -> None:
        if len(generators) > MAX_GENERATORS:
            raise TooLarge(f"{len(generators)} generators exceed {MAX_GENERATORS}")
        for b, v in generators:
            if b.ground != ground:
                raise InputError("generator on wrong ground")
            if not min(b.values) <= v <= max(b.values):
                raise InputError(f"value {_exact(v)} outside the range of its generator")
        # Monotonicity across orbits: k*b_i + c <= k'*b_j + c' must imply
        # k*v_i + c <= k'*v_j + c', that is, each value lies in the interval
        # the other generators (itself included) admit for its generator.
        for b, v in generators:
            try:
                lower, upper = admissible_interval(generators, b)
                consistent = lower <= v <= upper
            except InputError:  # an unbounded or empty envelope
                consistent = False
            if not consistent:
                raise InputError("generator values admit no monotone extension")

    def contains(self, f: PointFunction) -> bool:
        """Whether f lies on some generator orbit k*b + c (constants included)."""
        if f.ground != self.ground:
            raise InputError("function on wrong ground")
        if len(set(f.values)) == 1:
            return True
        for b, _ in self.generators:
            # point 0 and the first point where b differs from b(0) fix k and c
            bs, fs = b.values, f.values
            j = next((j for j, bx in enumerate(bs) if bx != bs[0]), None)
            if j is None:  # b is constant
                continue
            k = (fs[0] - fs[j]) / (bs[0] - bs[j])
            c = fs[0] - k * bs[0]
            if all(k * bx + c == fx for bx, fx in zip(bs, fs)):
                return True
        return False

    def extended(self, phi0: PointFunction, p: Fraction) -> "GeneratedSubspace":
        return GeneratedSubspace(self.ground, self.generators + ((phi0, Fraction(p)),))


def admissible_interval(
    generators: Sequence[tuple[PointFunction, Fraction]], phi0: PointFunction
) -> tuple[Fraction, Fraction]:
    """The exact interval of values a monotone extension may assign to phi0.

    Per generator b with value v the lower envelope is
    sup_k [k*v + min_x(phi0(x) - k*b(x))], a concave piecewise-linear
    function of k maximized at a breakpoint where the minimizing point
    changes; the upper envelope is the dual inf.  Constants contribute
    the floor min(phi0) and ceiling max(phi0) through k = 0.  The bounds
    are kept as (num, den) over one common denominator S of all the data
    until the interval is returned.
    """
    gens = [(b.values, Fraction(v)) for b, v in generators]
    s = _common_scale([phi0.values, *((*b, v) for b, v in gens)])
    p = _scaled(phi0.values, s)
    lower, upper = (min(p), 1), (max(p), 1)
    for b, v in gens:
        bs, vs = _scaled(b, s), v.numerator * (s // v.denominator)
        lo = _concave_sup(vs, [(-bx, px) for bx, px in zip(bs, p)])
        hi = _concave_sup(-vs, [(bx, -px) for bx, px in zip(bs, p)])
        if lo is None or hi is None:
            raise InputError("unbounded envelope; generator values are inconsistent")
        if lo[0] * lower[1] > lower[0] * lo[1]:
            lower = lo
        if -hi[0] * upper[1] < upper[0] * hi[1]:
            upper = (-hi[0], hi[1])
    lo_f, hi_f = Fraction(lower[0], lower[1] * s), Fraction(upper[0], upper[1] * s)
    if lo_f > hi_f:
        raise InputError(f"empty admissible interval ({_exact(lo_f)}, {_exact(hi_f)})")
    return lo_f, hi_f


def extend_one(
    b0: GeneratedSubspace, phi0: PointFunction, choose: str = "mid"
) -> tuple[Fraction, Fraction, Fraction]:
    """Admissible interval for extending the partial functional to phi0.

    Returns (lower, upper, p) where p is the chosen extension value:
    the midpoint by default, or the interval end named by ``choose``
    ("lower" / "upper").
    """
    if b0.contains(phi0):
        raise InputError("function already lies in the generated subspace")
    lower, upper = admissible_interval(b0.generators, phi0)
    if choose == "mid":
        p = (lower + upper) / 2
    elif choose == "lower":
        p = lower
    elif choose == "upper":
        p = upper
    else:
        raise InputError(f"unknown choice {choose!r}")
    return lower, upper, p


# --------------------------------------------------------------------------
# Serialization


def term_to_obj(term: Term) -> dict:
    match term:
        case Dirac(x=x):
            return {"t": "dirac", "x": x}
        case MaxMin(system=eta):
            return {"t": "maxmin", "minimal": hex_masks(eta.minimal)}
        case MinOver(mask=m):
            return {"t": "min", "F": hex_mask(m)}
        case MaxOver(mask=m):
            return {"t": "max", "F": hex_mask(m)}
        case Linear(weights=ws):
            return {"t": "linear", "w": list(map(_exact, ws))}
        case Convex(weights=ws, parts=ps):
            return {"t": "convex", "w": list(map(_exact, ws)), "parts": [term_to_obj(p) for p in ps]}
        case Precompose(point_map=pm, inner=inner):
            return {"t": "precompose", "map": list(pm.image), "inner": term_to_obj(inner)}
    raise InputError(f"unknown term {term!r}")


def witness_to_obj(witness: dict | None) -> dict | None:
    """A check witness as JSON: rationals as exact strings, tuples as lists of them."""
    if witness is None:
        return None
    return {k: [_exact(x) for x in v] if isinstance(v, tuple) else _exact(v) for k, v in witness.items()}


# Terms are read, compiled and evaluated by recursion, so a term file may
# nest at most this many nodes from the root to a leaf.  On Python 3.11,
# reading 490 nested convex nodes already exceeded the default limit of
# 1000 frames and ended in a RecursionError, not a report.
MAX_TERM_DEPTH = 100


def term_from_obj(obj: dict, ground: GroundSet, depth: int = 1) -> Term:
    if depth > MAX_TERM_DEPTH:
        raise TooLarge(f"term nested deeper than {MAX_TERM_DEPTH} nodes")
    tag = obj["t"]
    if tag == "dirac":
        return Dirac(ground, json_int(obj["x"], "x"))
    if tag == "maxmin":
        return MaxMin(MaxLinkedSystem(ground, tuple(sorted(json_masks(obj["minimal"], "minimal"), key=canonical_key))))
    if tag == "min":
        return MinOver(ground, json_mask(obj["F"], "F"))
    if tag == "max":
        return MaxOver(ground, json_mask(obj["F"], "F"))
    if tag == "linear":
        return Linear(ground, tuple(json_rational(w, "w") for w in json_list(obj["w"], "w")))
    if tag == "convex":
        parts = tuple(term_from_obj(p, ground, depth + 1) for p in json_list(obj["parts"], "parts"))
        return Convex(tuple(json_rational(w, "w") for w in json_list(obj["w"], "w")), parts)
    if tag == "precompose":
        image = tuple(json_int(i, "map") for i in json_list(obj["map"], "map"))
        pm = PointMap(GroundSet(len(image)), ground, image)
        return Precompose(pm, term_from_obj(obj["inner"], pm.dom, depth + 1))
    raise InputError(f"unknown term tag {tag!r}")


def term_to_json(term: Term) -> str:
    return json.dumps(term_to_obj(term), sort_keys=True)


# A term within the cap nests its JSON at most 2 * MAX_TERM_DEPTH levels: an
# object per node, a list between a convex node and its parts, one list in the
# deepest node.  Where json.loads runs out of recursion depends on the Python
# version, so a term file is measured first; fields the reader ignores count.
_NOT_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[^"\[\]{}]+')  # a string, even unterminated, or other text
_BRACKET_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _json_depth(data: bytes | str) -> int:
    """How deep the arrays and objects of a JSON text nest; string literals are skipped."""
    if isinstance(data, bytes):
        data = data.decode(json.detect_encoding(data), "replace")
    return max(itertools.accumulate(map(_BRACKET_STEP.__getitem__, _NOT_BRACKET.sub("", data))), default=0)


def term_from_json(data: bytes | str, ground: GroundSet) -> Term:
    if _json_depth(data) > 2 * MAX_TERM_DEPTH:
        raise TooLarge(f"term nested deeper than {MAX_TERM_DEPTH} nodes")
    return read_json(data, "term file", lambda obj: term_from_obj(obj, ground))


def generators_from_json(data: bytes | str) -> GeneratedSubspace:
    """A generators file: the ground size n, and each generator b on it with its value v."""

    def build(obj) -> GeneratedSubspace:
        ground = GroundSet(json_int(obj["n"], "n"))
        return GeneratedSubspace(ground, tuple(
            (PointFunction(ground, tuple(json_rational(x, "b") for x in json_list(g["b"], "b"))),
             json_rational(g["v"], "v"))
            for g in json_list(obj["generators"], "generators")
        ))

    return read_json(data, "generators file", build)
