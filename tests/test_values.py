"""The value classes of every layer behave as frozen dataclasses did:
construction by position and by keyword with the same defaults, equality
within one class only, the hash of the field tuple, no assignment or
deletion of a field, and the ``Name(field=value, ...)`` repr.
``Construction`` is the one mutable, unhashable record."""

import pytest

from plumbcalc.intmat import AbelianGroupDesc, IntMatrix, SNFResult
from plumbcalc.kirby import ChainState, DualizeResult
from plumbcalc.ledger import Construction, LedgerEntry
from plumbcalc.obstruct import KnotClass, SurgeryPresentation
from plumbcalc.plumbing import JoinHypotheses, PlumbingGraph, join, parse_graph, self_join
from plumbcalc.sl2 import MonodromyWord, SL2Element
from plumbcalc.strings import FamilyParams

I2 = IntMatrix(2, 2, (1, 0, 0, 1))
Z1 = IntMatrix(1, 1, (0,))
I2_REPR = "IntMatrix(rows=2, cols=2, entries=(1, 0, 0, 1))"
T = SL2Element(1, 1, 0, 1)

# (class, fields, other fields, repr): the fields in declaration order,
# and a second instance of the same class that differs in one of them
CASES = [
    (IntMatrix, {"rows": 2, "cols": 2, "entries": (1, 0, 0, 1)},
     {"rows": 1, "cols": 1, "entries": (0,)}, I2_REPR),
    (SNFResult, {"d": I2, "u": I2, "v": I2}, {"d": I2, "u": I2, "v": Z1},
     f"SNFResult(d={I2_REPR}, u={I2_REPR}, v={I2_REPR})"),
    (AbelianGroupDesc, {"free_rank": 1, "torsion_factors": (2, 4)},
     {"free_rank": 1, "torsion_factors": ()},
     "AbelianGroupDesc(free_rank=1, torsion_factors=(2, 4))"),
    (SL2Element, {"a": 1, "b": 0, "c": 0, "d": 1}, {"a": 1, "b": 1, "c": 0, "d": 1},
     "SL2Element(a=1, b=0, c=0, d=1)"),
    (MonodromyWord, {"coeffs": (3, 2), "sign": -1}, {"coeffs": (3, 2), "sign": 1},
     "MonodromyWord(coeffs=(3, 2), sign=-1)"),
    (FamilyParams, {"k": 1, "xs": (0, 0, 0)}, {"k": 0, "xs": (5,)},
     "FamilyParams(k=1, xs=(0, 0, 0))"),
    (ChainState, {"framings": (-2, 2), "eps": -1}, {"framings": (2, -2), "eps": -1},
     "ChainState(framings=(-2, 2), eps=-1)"),
    (DualizeResult,
     {"start": ChainState((3,)), "terminal": ChainState((1,)), "conjugator": T,
      "blow_ups": 2, "blow_downs": 1},
     {"start": ChainState((3,)), "terminal": ChainState((1,)), "conjugator": T,
      "blow_ups": 2, "blow_downs": 0},
     "DualizeResult(start=ChainState(framings=(3,), eps=1), "
     "terminal=ChainState(framings=(1,), eps=1), conjugator=SL2Element(a=1, b=1, c=0, d=1), "
     "blow_ups=2, blow_downs=1)"),
    (PlumbingGraph, {"vertices": (("a", -1), ("b", -2)), "edges": (("a", "b", 1),)},
     {"vertices": (("a", -1), ("b", -2)), "edges": (("a", "b", -1),)},
     "PlumbingGraph(vertices=(('a', -1), ('b', -2)), edges=(('a', 'b', 1),))"),
    (JoinHypotheses, {"boundary_is_s1xs2": True, "complement_is_qs3": False},
     {"boundary_is_s1xs2": True, "complement_is_qs3": True},
     "JoinHypotheses(boundary_is_s1xs2=True, complement_is_qs3=False)"),
    (SurgeryPresentation, {"linking": I2}, {"linking": Z1},
     f"SurgeryPresentation(linking={I2_REPR})"),
    (KnotClass, {"kappa": (2, 0), "framing": 1}, {"kappa": (2, 0), "framing": -1},
     "KnotClass(kappa=(2, 0), framing=1)"),
    (LedgerEntry, {"descriptor": "word:3", "status": "unknown", "reason": "r"},
     {"descriptor": "word:3", "status": "obstructed", "reason": "r"},
     "LedgerEntry(descriptor='word:3', status='unknown', reason='r')"),
    (Construction, {"_steps": {}}, {"_steps": {"X": (None, ("tree",))}},
     "Construction(_steps={})"),
]
FROZEN = [case for case in CASES if case[0] is not Construction]


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=_ids(CASES))
class TestEveryValueClass:
    def test_construction(self, cls, fields, other, text):
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        for name, value in fields.items():
            assert getattr(by_position, name) == value == getattr(by_keyword, name)

    def test_equality(self, cls, fields, other, text):
        x = cls(*fields.values())
        assert x == cls(**fields)
        assert x != cls(**other)
        values = tuple(fields.values())
        assert x != values and values != x
        assert x.__eq__(values) is NotImplemented

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, other, text", FROZEN, ids=_ids(FROZEN))
class TestEveryFrozenValueClass:
    def test_hash(self, cls, fields, other, text):
        x = cls(**fields)
        assert hash(x) == hash(cls(*fields.values())) == hash(tuple(fields.values()))
        table = {x: "x", cls(**other): "other"}
        assert table[cls(**fields)] == "x"

    def test_fields_are_frozen(self, cls, fields, other, text):
        x = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == cls(**fields)

    def test_instance_dict_is_the_fields(self, cls, fields, other, text):
        assert list(vars(cls(**fields))) == list(fields)


PATH3 = PlumbingGraph((("a", -1), ("b", -2), ("c", -2)), (("a", "b", 1), ("b", "c", 1)))


def _walked(g):
    g.is_tree()
    return g


@pytest.mark.parametrize("make", [
    lambda: _walked(PlumbingGraph(PATH3.vertices, PATH3.edges)),
    lambda: join(PATH3, "b", PATH3, "a"),
    lambda: self_join(PATH3, "a", "c", -1),
    lambda: parse_graph("vertex a -3\nvertex b -3\nvertex c -3\n"
                        "edge a b -\nedge b c -\nedge c a +\n"),
], ids=["is-tree", "join", "self-join", "normalized-cycle"])
def test_cached_walk_is_not_part_of_the_value(make):
    g = make()
    assert "_walk" in vars(g)
    bare = PlumbingGraph(g.vertices, g.edges)
    assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
    assert "_walk" not in repr(g)


@pytest.mark.parametrize("make, full", [
    (lambda: MonodromyWord((3, 2)), MonodromyWord((3, 2), 1)),
    (lambda: MonodromyWord(coeffs=[3, 2]), MonodromyWord((3, 2), sign=1)),
    (lambda: ChainState((-2, 2)), ChainState((-2, 2), 1)),
    (lambda: ChainState(framings=[-2, 2]), ChainState((-2, 2), eps=1)),
    (lambda: KnotClass([2, 0], 1), KnotClass((2, 0), 1)),
], ids=["word-default-sign", "word-list", "chain-default-eps", "chain-list", "kappa-list"])
def test_defaults_and_tuple_coercion(make, full):
    made = make()
    assert made == full and repr(made) == repr(full)


def test_construction_stays_mutable_and_unhashable():
    build = Construction()
    assert build == Construction(_steps={}) and build._steps == {}
    assert Construction()._steps is not build._steps  # a fresh dict each
    assert Construction.__hash__ is None
    with pytest.raises(TypeError):
        hash(build)
    build.add_tree("X", PlumbingGraph((("a", -1),), ()))
    assert build != Construction() and build.names() == ("X",)
    build.extra = 1
    del build.extra
