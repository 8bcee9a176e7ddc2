"""Equality, hashing, repr and immutability of the library's value types.

Equal values built as distinct objects must compare equal and hash alike,
a comparison with another type falls back to ``NotImplemented``, and
systems and formulas refuse attribute assignment.
"""

import pytest

from ensynth.reductions import CubicMonotoneFormula
from ensynth.regions import Region
from ensynth.ts import TransitionSystem
from ensynth.unions import TsUnion

from corpus import PHI6


def _chain():
    return TransitionSystem.chain(["a", "b"])


def _reversed_chain():
    ts = _chain()
    return TransitionSystem(ts.states, ts.events, ts.initial, ts.edges[::-1])


CASES = {
    "TransitionSystem": (
        _chain, _reversed_chain, "TransitionSystem(3 states, 2 events, 2 edges)"),
    "TsUnion": (
        lambda: TsUnion([_chain()]), lambda: TsUnion([_reversed_chain()]),
        "TsUnion(1 components, 3 states)"),
    "Region": (
        lambda: Region.from_members(_chain(), ["s0", "s2"]),
        lambda: Region(_reversed_chain(), 0b101),
        "Region({s0, s2})"),
    "CubicMonotoneFormula": (
        lambda: CubicMonotoneFormula(PHI6),
        lambda: CubicMonotoneFormula([clause[::-1] for clause in PHI6]),
        f"CubicMonotoneFormula({PHI6})"),
}


@pytest.mark.parametrize("make, make_equal, text", CASES.values(), ids=list(CASES))
def test_equal_values_hash_alike(make, make_equal, text):
    value, equal = make(), make_equal()
    assert value is not equal and value == equal and hash(value) == hash(equal)
    assert repr(value) == text
    assert value.__eq__(42) is NotImplemented and value != 42


@pytest.mark.parametrize("make", [_chain, lambda: TsUnion([_chain()]),
                                  lambda: CubicMonotoneFormula(PHI6)])
def test_systems_and_formulas_refuse_assignment(make):
    value = make()
    with pytest.raises(AttributeError, match="is immutable"):
        value.states = ()
