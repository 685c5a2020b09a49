"""Independent reference computations used to cross-check the package.

Everything here is deliberately written against the raw definitions --
brute-force scans over whole families of sets and naive grid searches --
so it shares no code path with the implementations under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def is_linked_family(fam: frozenset[int]) -> bool:
    return all(a & b for a in fam for b in fam)


def antichain_faults(minimal: tuple[int, ...], n: int, linked: bool) -> set[str]:
    """Every rule that ``minimal`` breaks as the minimal members of an
    (if ``linked``, linked) antichain on n points, each named by the words of
    its refusal; every pair of members is compared."""
    full = (1 << n) - 1
    faults = set()
    if not minimal:
        faults.add("at least one member")
    if any(not 0 < a <= full for a in minimal):
        faults.add("empty or leaves the ground set")
    if list(minimal) != sorted(set(minimal), key=lambda m: (popcount(m), m)):
        faults.add("canonically ordered")
    for i, a in enumerate(minimal):
        for b in minimal[i + 1 :]:
            if a & b in (a, b):
                faults.add("must form an antichain")
            if linked and not a & b:
                faults.add("must be pairwise intersecting")
    return faults


def is_up_closed(fam: frozenset[int], n: int) -> bool:
    full = (1 << n) - 1
    for a in fam:
        for b in range(1, full + 1):
            if a & b == a and b not in fam:
                return False
    return True


def is_maximal_linked(fam: frozenset[int], n: int) -> bool:
    """Maximality straight from the definition: no further set can be added."""
    if not fam or not is_linked_family(fam):
        return False
    full = (1 << n) - 1
    for b in range(1, full + 1):
        if b in fam:
            continue
        if all(b & a for a in fam):
            return False
    return True


def scan_maximal_linked(n: int) -> list[frozenset[int]]:
    """Enumerate every maximal linked up-closed family by scanning all
    2^(2^n - 1) families of nonempty subsets.  Only feasible for n <= 4."""
    if n > 4:
        raise ValueError("direct scan is only feasible for n <= 4")
    subsets = list(range(1, 1 << n))
    found = []
    for bits in range(1, 1 << len(subsets)):
        fam = frozenset(s for i, s in enumerate(subsets) if bits >> i & 1)
        if is_up_closed(fam, n) and is_maximal_linked(fam, n):
            found.append(fam)
    return found


def all_antichains(n: int) -> list[frozenset[int]]:
    """All nonempty antichains of nonempty subsets of {0..n-1}."""
    subsets = list(range(1, 1 << n))
    out: list[frozenset[int]] = []

    def extend(start: int, chain: list[int]) -> None:
        if chain:
            out.append(frozenset(chain))
        for i in range(start, len(subsets)):
            s = subsets[i]
            if all(a & s != a and a & s != s for a in chain):
                chain.append(s)
                extend(i + 1, chain)
                chain.pop()

    extend(0, [])
    return out


def up_closure_of(chain: frozenset[int], n: int) -> frozenset[int]:
    full = (1 << n) - 1
    return frozenset(
        b for b in range(1, full + 1) if any(a & b == a for a in chain)
    )


def antichain_maximal_linked(n: int) -> list[frozenset[int]]:
    """Maximal linked families via their minimal antichains.  Feasible
    through n = 5 (Dedekind-number-many antichains)."""
    out = []
    for chain in all_antichains(n):
        fam = up_closure_of(chain, n)
        if is_maximal_linked(fam, n):
            out.append(chain)
    return out


def scan_inclusion_hyperspaces(n: int) -> list[frozenset[int]]:
    """All nonempty up-closed families of nonempty subsets, by direct scan
    over every family.  Feasible for n <= 3."""
    if n > 3:
        raise ValueError("direct scan is only feasible for n <= 3")
    subsets = list(range(1, 1 << n))
    found = []
    for bits in range(1, 1 << len(subsets)):
        fam = frozenset(s for i, s in enumerate(subsets) if bits >> i & 1)
        if is_up_closed(fam, n):
            found.append(fam)
    return found


GRID_STEP = Fraction(1, 100)
GRID_RANGE = 10


def grid_interval(
    generators: list[tuple[list[Fraction], Fraction]],
    phi0: list[Fraction],
) -> tuple[Fraction, Fraction]:
    """Grid-search version of the admissible interval.

    For each generator (b, v) and each k in [-10, 10] with step 1/100,
    the best c with k*b + c <= phi0 pointwise is min(phi0 - k*b), giving
    a lower bound k*v + c; dually for upper bounds.  The constant
    generator 1 |-> 1 is always included.
    """
    gens = list(generators) + [([Fraction(1)] * len(phi0), Fraction(1))]
    lo = None
    hi = None
    for b, v in gens:
        for j in range(-GRID_RANGE * 100, GRID_RANGE * 100 + 1):
            k = j * GRID_STEP
            c_lo = min(p - k * bx for p, bx in zip(phi0, b))
            c_hi = max(p - k * bx for p, bx in zip(phi0, b))
            cand_lo = k * v + c_lo
            cand_hi = k * v + c_hi
            if lo is None or cand_lo > lo:
                lo = cand_lo
            if hi is None or cand_hi < hi:
                hi = cand_hi
        # per-generator inf is itself an upper bound; the loop above
        # already folds it in because hi minimises over all generators
    assert lo is not None and hi is not None
    return lo, hi


def naive_maxmin(minimal: tuple[int, ...], values: list[Fraction]) -> Fraction:
    """max over minimal members of the min of f, from first principles
    over *all* members of the up-closure."""
    n = len(values)
    fam = up_closure_of(frozenset(minimal), n)
    best = None
    for a in fam:
        m = min(values[i] for i in range(n) if a >> i & 1)
        if best is None or m > best:
            best = m
    assert best is not None
    return best


def naive_minmax(minimal: tuple[int, ...], values: list[Fraction]) -> Fraction:
    n = len(values)
    fam = up_closure_of(frozenset(minimal), n)
    best = None
    for a in fam:
        m = max(values[i] for i in range(n) if a >> i & 1)
        if best is None or m < best:
            best = m
    assert best is not None
    return best


def minimal_of(fam: frozenset[int]) -> frozenset[int]:
    """Members with no other member inside them."""
    return frozenset(b for b in fam if not any(a != b and a & b == a for a in fam))


def pushforward(image: tuple[int, ...], n_cod: int, minimal: tuple[int, ...]) -> frozenset[int]:
    """The minimal antichain of {B : f^-1(B) in the up-closure of ``minimal``},
    scanning every subset B of the codomain."""
    fam = up_closure_of(frozenset(minimal), len(image))
    pushed = frozenset(
        b
        for b in range(1, 1 << n_cod)
        if sum(1 << x for x, y in enumerate(image) if b >> y & 1) in fam
    )
    return minimal_of(pushed)


def concave_sup_kinks(
    gamma: Fraction, pieces: list[tuple[Fraction, Fraction]]
) -> Fraction | None:
    """sup over t of gamma*t + min_i(a_i*t + b_i); None means unbounded.

    Concave piecewise linear: bounded iff the extreme slopes bracket zero,
    and then the sup sits at a kink of the min-envelope (or anywhere on a
    flat piece, so t = 0 is always a candidate).  Every pairwise kink is
    evaluated against the whole envelope.
    """
    amin = min(a for a, _ in pieces)
    amax = max(a for a, _ in pieces)
    if gamma + amin > 0 or gamma + amax < 0:
        return None
    cands = {Fraction(0)}
    for (a1, b1), (a2, b2) in combinations(pieces, 2):
        if a1 != a2:
            cands.add(Fraction(b2 - b1, a1 - a2))
    return max(gamma * t + min(a * t + b for a, b in pieces) for t in cands)


def points(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def evaluate_obj(obj: dict, values: list[Fraction]) -> Fraction:
    """A term in its JSON form (as ``term_to_obj`` writes it) evaluated in
    Fractions, each node straight from its definition."""
    tag = obj["t"]
    if tag == "dirac":
        return values[obj["x"]]
    if tag == "maxmin":
        return max(min(values[x] for x in points(int(m, 16))) for m in obj["minimal"])
    if tag == "min":
        return min(values[x] for x in points(int(obj["F"], 16)))
    if tag == "max":
        return max(values[x] for x in points(int(obj["F"], 16)))
    if tag == "linear":
        return sum((Fraction(w) * v for w, v in zip(obj["w"], values)), Fraction(0))
    if tag == "convex":
        return sum(
            (Fraction(w) * evaluate_obj(p, values) for w, p in zip(obj["w"], obj["parts"])), Fraction(0)
        )
    if tag == "precompose":
        return evaluate_obj(obj["inner"], [values[y] for y in obj["map"]])
    raise ValueError(f"unknown term tag {tag!r}")


def generators_consistent(gens: list[tuple[list[Fraction], Fraction]]) -> bool:
    """Whether k*b + c -> k*v + c is a monotone assignment, in Fractions.

    Each value must lie in the range of its generator, and for every pair
    of generators and each direction k = 1, -1 the best lower bound
    sup_t [-v_j*t + min_x(t*b_j(x) - k*b_i(x))] on k*v_i must not exceed
    it, the sup taken by evaluating the envelope at every kink.
    """
    if any(not min(b) <= v <= max(b) for b, v in gens):
        return False
    for bi, vi in gens:
        for bj, vj in gens:
            for k in (1, -1):
                s = concave_sup_kinks(-vj, [(y, -k * x) for x, y in zip(bi, bj)])
                if s is None or k * vi + s > 0:
                    return False
    return True


def eq1_chunk_literal(
    args: tuple[int, tuple[tuple[int, ...], ...]], values: tuple[int, ...]
) -> tuple[int, list[dict]]:
    """The exchange-identity chunk worker written as the plain loop: max-min
    and min-max recomputed from the members' points at every grid point."""
    n, antichains = args
    failures: list[dict] = []
    checks = 0
    grid = list(product(values, repeat=n))
    for minimal in antichains:
        supports = [[x for x in range(n) if m >> x & 1] for m in minimal]
        for f in grid:
            checks += 1
            mm = max(min(f[x] for x in s) for s in supports)
            nm = min(max(f[x] for x in s) for s in supports)
            if mm != nm:
                failures.append(
                    {"system": [format(m, "x") for m in minimal], "f": list(f)}
                )
    return checks, failures


def complete_linked_greedy(masks: frozenset[int], n: int) -> frozenset[int]:
    """Minimal members of the greedy completion of a linked family.

    Complementary pairs are taken small side first, ordered by (cardinality,
    mask) of that side; the numerically smaller side joins unless a chosen
    set is disjoint from it, in which case the other side joins.
    """
    full = (1 << n) - 1
    key = lambda m: (popcount(m), m)
    smalls = sorted({min(a, full ^ a, key=key) for a in range(1, full)}, key=key)
    chosen = set(masks) | {full}
    for small in smalls:
        lo, hi = sorted((small, full ^ small))
        chosen.add(hi if any(not lo & c for c in chosen) else lo)
    return minimal_of(up_closure_of(frozenset(chosen), n))


def sorted_minimal_readout(fam: int, n: int) -> tuple[int, ...]:
    """The minimal members of a family bitset (bit A stands for subset A),
    found by comparing every pair of members and put in (cardinality, mask)
    order by ``sorted``."""
    members = frozenset(a for a in range(1 << n) if fam >> a & 1)
    return tuple(sorted(minimal_of(members), key=lambda m: (popcount(m), m)))


def count_up_sets(poset: frozenset[int], memo: dict[frozenset[int], int]) -> int:
    """Up-sets of a family of subsets ordered by inclusion, by the recursion
    count(Q) = count(Q - {x}) + count(Q - up(x)) for a minimal x of Q: an
    up-set either misses x, or holds x and so everything above it."""
    if not poset:
        return 1
    got = memo.get(poset)
    if got is None:
        x = min(poset, key=popcount)
        got = count_up_sets(poset - {x}, memo) + count_up_sets(
            frozenset(y for y in poset if x & y != x), memo
        )
        memo[poset] = got
    return got


def mls_count_by_split(n: int) -> int:
    """The number of maximal linked systems on n >= 3 points, from the
    systems on n - 1 points, with no enumeration at n.

    Fix a point p.  A maximal linked system F on n points is determined by
    its members avoiding p, an intersecting up-set on the other n - 1 points,
    and any such up-set arises.  Split that up-set at a second point q into
    F0 (members avoiding q) and F1 (members containing q, with q removed),
    families on the remaining m = n - 2 points.  F0 is an intersecting
    up-set, so one system on n - 1 points, and F1 is any up-set with
    F0 <= F1 <= U(F0) = {C : the complement of C is not in F0}: each F1 is F0
    together with an up-set of the poset U(F0) - F0.
    """
    m = n - 2
    full = (1 << m) - 1
    intersecting = [frozenset()] + [
        up_closure_of(chain, m) for chain in all_antichains(m) if is_linked_family(chain)
    ]
    memo: dict[frozenset[int], int] = {}
    return sum(
        count_up_sets(frozenset(c for c in range(full + 1) if c not in f0 and full ^ c not in f0), memo)
        for f0 in intersecting
    )


def subbase_binary_literal(members: tuple[int, ...]) -> bool:
    """Whether every linked subfamily has a common point, checked on every
    subfamily of the distinct members."""
    distinct = sorted(set(members))
    for r in range(1, len(distinct) + 1):
        for sub in combinations(distinct, r):
            if is_linked_family(frozenset(sub)):
                common = -1
                for m in sub:
                    common &= m
                if not common:
                    return False
    return True


def subbase_normal_literal(members: tuple[int, ...], full: int) -> tuple[int, int] | None:
    """The first disjoint pair (S0, S1), in member order, that no pair
    (T0, T1) with S0 & T1 = 0 = T0 & S1 and T0 | T1 = carrier screens,
    trying every pair of members as (T0, T1); None if there is none."""
    for i, s0 in enumerate(members):
        for s1 in members[i + 1 :]:
            if s0 & s1:
                continue
            if not any(
                not s0 & t1 and not t0 & s1 and t0 | t1 == full for t0, t1 in product(members, repeat=2)
            ):
                return (s0, s1)
    return None


def opens_literal(nbhd: tuple[int, ...]) -> tuple[int, ...]:
    """Every mask holding the minimal neighborhood of each of its points,
    trying all masks, sorted by (size, mask)."""
    found = [m for m in range(1 << len(nbhd)) if all(nbhd[p] & ~m == 0 for p in points(m))]
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def usco_values_literal(
    table: tuple[tuple[int, int], ...], systems: list[tuple[int, ...]], n_y: int
) -> list[list[tuple[int, ...]]]:
    """r(y) for each of the n_y ambient points, from the operator's table:
    the systems, given by their minimal members and kept in the order given,
    such that every U with y in e(U) has a minimal member inside U."""
    return [
        [minimal for minimal in systems if all(any(m & u == m for m in minimal) for u, eu in table if eu >> y & 1)]
        for y in range(n_y)
    ]


def orbit_contains_literal(generators: list[tuple[Fraction, ...]], f: tuple[Fraction, ...]) -> bool:
    """Whether f is constant or k*b + c for some generator b.

    k and c come from the first pair of points, over all pairs in order,
    where b takes two values; a constant b has no such pair.
    """
    if len(set(f)) == 1:
        return True
    for b in generators:
        pairs = list(zip(b, f))
        anchor = next(((b1, f1, b2, f2) for (b1, f1), (b2, f2) in combinations(pairs, 2) if b1 != b2), None)
        if anchor is None:
            continue
        b1, f1, b2, f2 = anchor
        k = (f1 - f2) / (b1 - b2)
        c = f1 - k * b1
        if all(k * bx + c == fx for bx, fx in pairs):
            return True
    return False


def uplus_operator_literal(values: list[list[tuple[int, ...]]], n: int) -> dict[int, int]:
    """U -> {y : every system in r(y) lies in U-plus}, for every U of the
    discrete n-point domain, straight from the definition.

    ``values[y]`` lists the minimal members of each system in r(y).  U-plus
    holds the systems with a closed set F inside U among their members; the
    closed sets are the complements of the opens, and on the discrete domain
    every subset is open.  F is a member when some minimal member lies in F.
    """
    full = (1 << n) - 1
    closed = [full ^ o for o in range(1 << n)]
    table = {}
    for u in range(1 << n):
        inside = [f for f in closed if f & ~u == 0]
        table[u] = sum(
            1 << y
            for y, systems in enumerate(values)
            if all(any(any(m & ~f == 0 for m in minimal) for f in inside) for minimal in systems)
        )
    return table


def first_disjoint_pair_literal(table: tuple[tuple[int, int], ...]) -> tuple[int, int] | None:
    """The first pair of table entries (U, e(U)), (V, e(V)), in table order,
    with U and V disjoint but e(U) and e(V) meeting, trying every pair; None
    if there is none."""
    for i, (u, eu) in enumerate(table):
        for v, ev in table[i + 1 :]:
            if not u & v and eu & ev:
                return (u, v)
    return None


def regular_operator_search(
    x_nbhd: tuple[int, ...], y_nbhd: tuple[int, ...], inject: tuple[int, ...]
) -> dict[int, int] | None:
    """The first regular operator a backtracking search finds, as a dict from
    the opens of X to their images; None if the search finds none.

    X and Y are given by their minimal neighborhoods.  The opens of X are
    taken in canonical order (size, then mask); each gets the first open of
    Y, in the same order, whose trace on the image of X is the image of U
    and which meets no image already given to an open disjoint from U.
    """

    def img(m: int) -> int:
        return sum(1 << inject[p] for p in points(m))

    opens_x, opens_y = opens_literal(x_nbhd), opens_literal(y_nbhd)
    x_img = img((1 << len(x_nbhd)) - 1)
    assign = {0: 0}

    def extend(idx: int) -> bool:
        if idx == len(opens_x):
            return True
        u = opens_x[idx]
        if u == 0:
            return extend(idx + 1)
        for v in opens_y:
            if v & x_img != img(u):
                continue
            if any(not u & w and v & assign[w] for w in assign):
                continue
            assign[u] = v
            if extend(idx + 1):
                return True
            del assign[u]
        return False

    return assign if extend(0) else None


def sconvex_retraction_literal(
    table: tuple[tuple[int, int], ...], nbhd: tuple[int, ...], members: tuple[int, ...], n_y: int
) -> tuple[int, ...]:
    """r(y) for each of the n_y ambient points, from the operator's table on
    a domain given by its minimal neighborhoods: the intersection, over the
    nonempty opens U with y in e(U), of the hull of the closure of U, which is
    the intersection of the subbase members holding it.  A point in no e(U),
    or a closure in no member, keeps the whole carrier.  One hull per pair of
    a point and an open."""
    full = (1 << len(nbhd)) - 1
    values = []
    for y in range(n_y):
        acc = full
        for u, eu in table:
            if u and eu >> y & 1:
                closure = sum(1 << x for x in range(len(nbhd)) if nbhd[x] & u)
                for m in members:
                    if closure & ~m == 0:
                        acc &= m
        values.append(acc)
    return tuple(values)
