from __future__ import annotations

import os

import pytest
from hypothesis import given, strategies as st

import oracles
from supext import embed, subbase, verify
from supext.embed import UscoMap, usco_from_regular
from supext.errors import InputError, TooLarge
from supext.inclusion import candidate_subbase_gx
from supext.setkit import GroundSet, canonical_key
from supext.superext import enumerate_mls
from supext.verify import EQ1_GRID, _eq1_chunk, lambda_plus_subbase, suite_eq1


@st.composite
def antichain_chunk(draw):
    """A ground size n <= 4 and a few antichains on it, linked or not."""
    n = draw(st.integers(min_value=1, max_value=4))
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
        assert _eq1_chunk(args) == oracles.eq1_chunk_literal(args, EQ1_GRID)

    @pytest.mark.parametrize(
        "args",
        [(2, ((0b01, 0b10),)), (3, ((0b011,), (0b011, 0b101, 0b110), (0b001, 0b110))), (1, ())],
        ids=["disjoint-pair", "mixed", "empty-chunk"],
    )
    def test_failures_match_literal_loop(self, args):
        got = _eq1_chunk(args)
        assert got == oracles.eq1_chunk_literal(args, EQ1_GRID)
        assert got[0] == len(args[1]) * len(EQ1_GRID) ** args[0]


class TestSuiteEq1:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one(self, workers):
        with pytest.raises(InputError):
            suite_eq1(3, workers=workers)

    @pytest.mark.skipif(
        not os.environ.get("SUPEXT_RUN_SLOW"),
        reason="eq1 at n=6 takes about ten seconds; set SUPEXT_RUN_SLOW=1 to run",
    )
    def test_n6(self):
        body = suite_eq1(6)
        assert body == {"checks_run": 10_838_016, "failures": []}


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
        carrier = enumerate_mls(ground).systems
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
    monkeypatch.setattr(verify, "_plus_columns", lambda *a: calls.append(("_plus_columns", a)))
    monkeypatch.setattr(verify, "enumerate_mls", lambda *a, **k: calls.append(("enumerate_mls", a)))
    with pytest.raises(TooLarge, match="carrier size 81 exceeds 80"):
        lambda_plus_subbase(5)
    assert calls == []


def test_usco_roundtrip_reports_a_failed_usco_check_with_its_witness(monkeypatch):
    """A usco map that fails its check is a witnessed report failure of the
    suite, not an exception."""
    def broken(e):
        r = usco_from_regular(e)
        return UscoMap(r.space, r.lam, ((),) + r.values[1:], r.inject)

    monkeypatch.setattr(embed, "usco_from_regular", broken)
    report = verify.suite_usco_roundtrip()
    assert report["failures"][0] == {
        "operator": "identity-discrete-1", "stage": "usco", "axiom": "nonempty", "witness": 0
    }
    assert len(report["failures"]) == len(verify.standard_operators())
