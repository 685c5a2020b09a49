"""The value types: immutable, equal only within their own class, hashed
consistently with that equality, and built the same way whether validated
or trusted."""

from __future__ import annotations

from fractions import Fraction

import pytest

from supext import functionals
from supext.embed import FiniteTopSpace, RegularOperator, UscoMap
from supext.errors import Check
from supext.functionals import (
    Convex,
    Dirac,
    GeneratedSubspace,
    Linear,
    MaxMin,
    MaxOver,
    MinOver,
    PointFunction,
    Precompose,
)
from supext.inclusion import InclusionHyperspace, enumerate_ih
from supext.setkit import Antichain, GroundSet, PointMap, SetFamily, _trusted
from supext.subbase import Subbase
from supext.superext import MaxLinkedSystem, enumerate_mls, eta_point

G2 = GroundSet(2)
HALF = Fraction(1, 2)
SPACE = FiniteTopSpace.discrete(2)
IDENTITY_MAP = PointMap.identity(G2)

# (value, one of its fields); every value type appears once
VALUES = [
    (Check(True), "ok"),
    (G2, "n"),
    (SetFamily.of(G2, [1, 2]), "masks"),
    (IDENTITY_MAP, "image"),
    (Antichain(G2, (1,)), "minimal"),
    (MaxLinkedSystem(G2, (1,)), "minimal"),
    (InclusionHyperspace(G2, (1, 2)), "ground"),
    (Subbase(2, (1, 2)), "members"),
    (PointFunction(G2, (Fraction(0), Fraction(1))), "values"),
    (Dirac(G2, 0), "x"),
    (MaxMin(eta_point(G2, 0)), "system"),
    (MinOver(G2, 3), "mask"),
    (MaxOver(G2, 3), "mask"),
    (Linear(G2, (HALF, HALF)), "weights"),
    (Convex((HALF, HALF), (Dirac(G2, 0), Dirac(G2, 1))), "parts"),
    (Precompose(IDENTITY_MAP, Dirac(G2, 0)), "inner"),
    (GeneratedSubspace(G2, ((PointFunction(G2, (Fraction(0), Fraction(1))), HALF),)), "generators"),
    (SPACE, "min_nbhd"),
    (RegularOperator.identity(SPACE), "table"),
    (UscoMap(SPACE, ((eta_point(G2, 0),), (eta_point(G2, 1),)), (0, 1)), "inject"),
]
IDS = [type(v).__name__ for v, _ in VALUES]


@pytest.mark.parametrize("value, field", VALUES, ids=IDS)
def test_assigning_a_field_fails(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("value, field", VALUES, ids=IDS)
def test_equal_values_hash_equal(value, field):
    twin = type(value)(*(getattr(value, f) for f in _fields(value)))
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert {value: 1}[twin] == 1


def _fields(value) -> tuple[str, ...]:
    """The constructor's fields of a value, in order."""
    return {
        Check: ("ok", "axiom", "witness"),
        GroundSet: ("n",),
        SetFamily: ("ground", "masks"),
        PointMap: ("dom", "cod", "image"),
        Antichain: ("ground", "minimal"),
        MaxLinkedSystem: ("ground", "minimal"),
        InclusionHyperspace: ("ground", "minimal"),
        Subbase: ("carrier", "members"),
        PointFunction: ("ground", "values"),
        Dirac: ("ground", "x"),
        MaxMin: ("system",),
        MinOver: ("ground", "mask"),
        MaxOver: ("ground", "mask"),
        Linear: ("ground", "weights"),
        Convex: ("weights", "parts"),
        Precompose: ("point_map", "inner"),
        GeneratedSubspace: ("ground", "generators"),
        FiniteTopSpace: ("n", "min_nbhd"),
        RegularOperator: ("domain", "codomain", "inject", "table"),
        UscoMap: ("space", "values", "inject"),
    }[type(value)]


def test_equality_is_strict_about_class():
    members = (1,)
    antichains = [Antichain(G2, members), MaxLinkedSystem(G2, members), InclusionHyperspace(G2, members)]
    for a in antichains:
        for b in antichains:
            assert (a == b) is (type(a) is type(b))
            assert (a != b) is (type(a) is not type(b))
    assert MinOver(G2, 3) != MaxOver(G2, 3)


@pytest.mark.parametrize("plain", [(3,), [3], 3])
def test_a_ground_set_is_not_its_fields(plain):
    g = GroundSet(3)
    assert g != plain and plain != g
    assert not g == plain and not plain == g


def test_a_check_is_not_its_fields():
    assert Check(True) == Check(True, None, None)
    assert Check(True) != (True, None, None) and (True, None, None) != Check(True)
    assert not Check(False, "binary", (1,))
    assert Check(True)


def test_trusted_systems_equal_validated_ones():
    for n in (1, 2, 3, 4):
        ground = GroundSet(n)
        for eta in enumerate_mls(ground):
            checked = MaxLinkedSystem(ground, eta.minimal)
            assert type(eta) is MaxLinkedSystem
            assert eta == checked and hash(eta) == hash(checked)
            assert eta.ground == ground and eta.minimal == checked.minimal
    for a in enumerate_ih(GroundSet(3)):
        checked = InclusionHyperspace(a.ground, a.minimal)
        assert type(a) is InclusionHyperspace and a == checked and hash(a) == hash(checked)
    (made,) = _trusted(MaxLinkedSystem, G2, [(1,)])
    assert made == eta_point(G2, 0) and made != Antichain(G2, (1,))


def test_repr_names_the_class_and_fields():
    assert repr(GroundSet(2)) == "GroundSet(n=2)"
    assert repr(MaxLinkedSystem(G2, (1,))) == "MaxLinkedSystem(ground=GroundSet(n=2), minimal=(1,))"
    assert repr(Check(True)) == "Check(ok=True, axiom=None, witness=None)"


def test_inputs_are_normalised():
    f = PointFunction(G2, [0, HALF])
    assert f.values == (Fraction(0), HALF) and all(type(v) is Fraction for v in f.values)
    assert Linear(G2, (0.5, 0.5)).weights == (HALF, HALF)
    assert RegularOperator(SPACE, SPACE, (0, 1), ((3, 3), (0, 0), (1, 1), (2, 2))).table[0] == (0, 0)


@pytest.mark.parametrize("cls", [MaxLinkedSystem, SetFamily, GeneratedSubspace])
def test_traced_classes_have_their_own_init(cls):
    """perfbench's tracer wraps these constructors through the class's own dict."""
    assert "__init__" in vars(cls)


def test_trial_table_caches_on_equal_grounds():
    functionals._trial_table.cache_clear()
    try:
        functionals._trial_table(GroundSet(2), 3, 0, False)
        functionals._trial_table(GroundSet(2), 3, 0, False)
        assert functionals._trial_table.cache_info().hits == 1
    finally:
        functionals._trial_table.cache_clear()
