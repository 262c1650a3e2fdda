"""The package's value types: equality, stored hashes, immutability, repr and pickling."""

import copy
import pickle

import pytest

from quotdt.charalg import EquivParams
from quotdt.partitions import ColoredPlanePartition, PartitionPair, PlanePartition
from quotdt.toric import SplitBundle, ToricSpace, builtin_space, split_bundle
from quotdt.vertex import ChartWeights, vertex_character

STD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def make_values():
    """One of each value type, built afresh on every call, with its repr."""
    line = PlanePartition(((0, 0, 1), (0, 0, 0)))
    space = builtin_space("p3")
    return [
        (line, "PlanePartition(boxes=((0, 0, 0), (0, 0, 1)))"),
        (ColoredPlanePartition((line, PlanePartition(()))),
         "ColoredPlanePartition(parts=(PlanePartition(boxes=((0, 0, 0), (0, 0, 1))), "
         "PlanePartition(boxes=())))"),
        (PartitionPair((2, 1, 1), (1,)), "PartitionPair(lam=(2, 1, 1), mu=(1,))"),
        (ChartWeights(STD, ((0, 0, 0), (1, 0, 0))),
         "ChartWeights(tangent=((1, 0, 0), (0, 1, 0), (0, 0, 1)), twists=((0, 0, 0), (1, 0, 0)))"),
        (ToricSpace("custom", (STD,)),
         "ToricSpace(name='custom', charts=(((1, 0, 0), (0, 1, 0), (0, 0, 1)),), twist_vertices=None)"),
        (split_bundle(space, (0, 1)),
         "SplitBundle(rank=2, per_chart=(((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 0, 0)), "
         "((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1))))"),
        (EquivParams(s=(7, 19, 53), v=(101,)), "EquivParams(s=(7, 19, 53), v=(101,))"),
    ]


def test_equal_values_compare_and_hash_equal():
    for (value, _), (twin, _) in zip(make_values(), make_values()):
        assert value is not twin
        hash(value)  # one side with its hash stored, the other without
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
    params = EquivParams((7, 19, 53))
    assert params == EquivParams((7, 19, 53), ()) != EquivParams((7, 19, 53), (0,))
    # another class with the same field values is not equal
    assert SplitBundle(1, ()) != EquivParams((1, 2, 3))
    assert params != (params.s, params.v)


def test_rebuilt_key_is_a_vertex_character_cache_hit():
    def key():
        return (ColoredPlanePartition((PlanePartition(((0, 0, 0), (1, 0, 0))),)),
                ChartWeights(STD, ((0, 0, 0),)))

    first = vertex_character(*key())
    before = vertex_character.cache_info()
    assert vertex_character(*key()) is first
    after = vertex_character.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_values_are_immutable_and_keep_their_repr():
    for value, text in make_values():
        assert repr(value) == text
        name = text[text.index("(") + 1 : text.index("=")]  # the first field
        for attr in (name, "_hash", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
                setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert repr(value) == text


def test_values_survive_pickle_and_deepcopy():
    for value, text in make_values():
        hash(value)
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value) and repr(clone) == text
            with pytest.raises(AttributeError):
                setattr(clone, "other", None)
