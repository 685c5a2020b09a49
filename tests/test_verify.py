from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import oracles
from supext import embed, subbase, verify
from supext.embed import UscoMap, usco_from_regular
from supext.errors import InputError, TooLarge
from supext.inclusion import candidate_subbase_gx
from supext.setkit import GroundSet, canonical_key
from supext.superext import enumerate_mls
from supext.verify import EQ1_GRID, SUITES, _eq1_failures, lambda_plus_subbase, run_verify_suite, suite_eq1


@st.composite
def antichain_chunk(draw):
    """A ground size n <= 5 and a few antichains on it, linked or not."""
    n = draw(st.integers(min_value=1, max_value=5))
    full = (1 << n) - 1
    sets = st.lists(st.integers(min_value=1, max_value=full), min_size=1, max_size=5)
    chunk = []
    for masks in draw(st.lists(sets, max_size=4)):
        minimal = oracles.minimal_of(frozenset(masks))
        chunk.append(tuple(sorted(minimal, key=lambda m: (oracles.popcount(m), m))))
    return n, tuple(chunk)


class TestEq1Chunk:
    @given(antichain_chunk())
    def test_matches_literal_loop(self, args):
        assert _eq1_failures(*args) == oracles.eq1_chunk_literal(args, EQ1_GRID)[1]

    @pytest.mark.parametrize(
        "args",
        [
            (2, ((0b01, 0b10),)),
            (3, ((0b011,), (0b011, 0b101, 0b110), (0b001, 0b110))),
            (1, ()),
            # a maximal linked system, a non-linked antichain (failures at
            # every threshold, the top one included) and a principal system
            (5, ((0b00011, 0b00101, 0b00110), (0b00011, 0b01100, 0b10000), (0b00100,))),
        ],
        ids=["disjoint-pair", "mixed", "empty-chunk", "n5-non-linked"],
    )
    def test_failures_match_literal_loop(self, args):
        """The failures equal the literal loop's, and so does the check count
        suite_eq1 reports, one per system and grid point."""
        checks, failures = oracles.eq1_chunk_literal(args, EQ1_GRID)
        assert _eq1_failures(*args) == failures
        assert checks == len(EQ1_GRID) ** args[0] * len(args[1])


class TestSuiteEq1:
    def test_n6(self):
        body = suite_eq1(6)
        assert body == {"checks_run": 10_838_016, "failures": []}


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_refuses_workers_below_one(monkeypatch, suite, workers):
    """The library refuses fewer than one worker for every suite, before the suite runs."""
    monkeypatch.setitem(SUITES, suite, lambda *a, **k: pytest.fail("the suite ran"))
    with pytest.raises(InputError, match=f"workers must be at least 1, got {workers}"):
        run_verify_suite(suite, 3, workers=workers)


def _plus_members(carrier, subsets):
    """{A : F in A} for each F, bit i standing for carrier[i]."""
    return [sum(1 << i for i, a in enumerate(carrier) if a.contains(f)) for f in subsets]


@pytest.mark.parametrize(
    "n, hyperspace",
    [pytest.param(n, False, id=str(n)) for n in range(1, 6)]
    + [pytest.param(n, True, id=f"hyperspace-{n}") for n in range(1, 5)],
)
def test_lambda_plus_subbase_matches_definition(n, hyperspace):
    """Member F-plus has bit i set iff family i of the carrier contains F, for
    every nonempty F: over the systems of the superextension, and in the
    containment half of the candidate subbase over the inclusion hyperspaces."""
    ground = GroundSet(n)
    if hyperspace:
        sb, carrier = candidate_subbase_gx(ground)
        subsets = sorted(ground.nonempty_subsets(), key=canonical_key)
        members = _plus_members(carrier, subsets)
        assert sb.carrier == len(carrier)
        assert sb.members[: len(members)] == tuple(members)
    else:
        carrier = enumerate_mls(ground)
        members = [m for m in _plus_members(carrier, ground.nonempty_subsets()) if m]
        sb = lambda_plus_subbase(n)
        assert sb.carrier == len(carrier)
        assert sb.members == tuple(members)


def test_lambda_plus_subbase_refuses_a_large_carrier_before_the_table(monkeypatch):
    """At n=7 the 1,422,564 systems exceed the carrier cap; neither the
    enumeration nor the membership table (2^n bits per system) may run
    before that is found."""
    calls = []
    monkeypatch.setattr(subbase, "MAX_CARRIER", 80)
    monkeypatch.setattr(verify, "_word_columns", lambda *a: calls.append(("_word_columns", a)))
    monkeypatch.setattr(verify, "mls_words", lambda *a, **k: calls.append(("mls_words", a)))
    with pytest.raises(TooLarge, match="carrier size 81 exceeds 80"):
        lambda_plus_subbase(5)
    assert calls == []


def test_usco_roundtrip_reports_a_failed_usco_check_with_its_witness(monkeypatch):
    """A usco map that fails its check is a witnessed report failure of the
    suite, not an exception."""
    def broken(e):
        r = usco_from_regular(e)
        return UscoMap(r.space, ((),) + r.values[1:], r.inject)

    monkeypatch.setattr(embed, "usco_from_regular", broken)
    report = verify.suite_usco_roundtrip()
    assert report["failures"][0] == {
        "operator": "identity-discrete-1", "stage": "usco", "axiom": "nonempty", "witness": 0
    }
    assert len(report["failures"]) == len(verify.standard_operators())


def test_functor_laws_report_a_wrong_pushforward_under_every_law_it_breaks(monkeypatch):
    """Each functor sends one (map, structure) pair to another member of F(b):
    λ the first system along the identity of two points, G the first
    hyperspace along the swap.  Every law that reads that pushforward fails,
    in the suite's order: identities, then compositions per (f, g) with λ
    before G, then image agreement."""
    from supext import inclusion

    lam2 = enumerate_mls(GroundSet(2))
    ih2 = inclusion.enumerate_ih(GroundSet(2))

    def sabotage(fn, image, minimal, other):
        def wrapped(pm, x):
            if pm.image == image and pm.cod.n == 2 and x.minimal == minimal:
                return other
            return fn(pm, x)

        return wrapped

    monkeypatch.setattr(verify, "lambda_map", sabotage(verify.lambda_map, (0, 1), (1,), lam2[1]))
    monkeypatch.setattr(inclusion, "g_map", sabotage(inclusion.g_map, (1, 0), (1,), ih2[-1]))
    report = verify.suite_functor_laws(2)
    assert report["checks_run"] == 179
    assert report["failures"] == [
        {"law": law, "detail": detail}
        for law, detail in [
            ("lambda-identity", "n=2 system=(1,)"),
            ("lambda-composition", "f=(0,) g=(0, 1) eta=(1,)"),
            ("g-composition", "f=(0,) g=(1, 0) A=(1,)"),
            ("lambda-composition", "f=(0, 0) g=(0, 1) eta=(1,)"),
            ("lambda-composition", "f=(0, 0) g=(0, 1) eta=(2,)"),
            ("g-composition", "f=(0, 0) g=(1, 0) A=(1,)"),
            ("g-composition", "f=(0, 0) g=(1, 0) A=(1, 2)"),
            ("g-composition", "f=(0, 0) g=(1, 0) A=(2,)"),
            ("g-composition", "f=(0, 0) g=(1, 0) A=(3,)"),
            ("lambda-composition", "f=(0, 1) g=(1, 0) eta=(1,)"),
            ("lambda-composition", "f=(1, 0) g=(0, 1) eta=(2,)"),
            ("lambda-composition", "f=(1, 0) g=(1, 0) eta=(1,)"),
            ("g-composition", "f=(1, 0) g=(1, 0) A=(1,)"),
            ("g-composition", "f=(1, 0) g=(1, 0) A=(2,)"),
            ("lambda-image-agreement", "f=(0, 1) eta=(1,)"),
        ]
    ]
