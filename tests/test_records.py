"""The nine result records: immutable plain classes on one base, which
behave as the frozen dataclasses they replaced did."""

import copy
import pickle

import pytest

from gamecat import (CLT, CltMorphism, ConversionResult, Game, GameMorphism, GameProperties,
                     GrandStrategy, OutTree, SeltenResult, identity_morphism, nash,
                     properties, selten_subgame, to_sequence)
from examplegames import trio_a

# Per record: its fields in order, those == compares and those repr shows,
# and whether it has a hash; as the dataclasses declared them.
RECORDS = {
    OutTree: (("nodes", "root", "pred", "children", "decision_nodes", "end_nodes", "ends",
               "order", "sorted_nodes"), ("nodes", "pred"), ("nodes",), False),
    CLT: (("tree", "cells", "info_of", "act", "cell_actions", "succ"),
          ("tree", "cells", "act"), ("tree", "cells"), False),
    Game: (("clt", "mover", "players", "payoffs"), ("clt", "mover", "payoffs"),
           ("clt", "mover"), False),
    CltMorphism: (("source", "target", "node_map", "alpha"),
                  ("source", "target", "node_map"), ("source", "target", "node_map"), False),
    GameMorphism: (("source", "target", "clt_morphism", "iota"),
                   ("source", "target", "clt_morphism"), ("source", "target", "clt_morphism"),
                   False),
    GameProperties: (("distinguished_actions", "uses_sequences", "uses_action_sets",
                      "no_absentmindedness", "perfect_information"),) * 3 + (True,),
    ConversionResult: (("game", "certificate"),) * 3 + (True,),
    GrandStrategy: (("choices",),) * 3 + (True,),
    SeltenResult: (("root", "subgame", "inclusion"),) * 3 + (True,),
}


def _records():
    g = trio_a()
    m = identity_morphism(g)
    return [g.tree, g.clt, g, m.clt_morphism, m, properties(g), to_sequence(g), nash(g)[0],
            selten_subgame(g, g.tree.root)]


def _values(r):
    return [getattr(r, f) for f in r._fields]


def _with(r, **changes):
    return type(r)(**{f: getattr(r, f) for f in r._fields} | changes)


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_a_record_has_its_fields_in_order_and_builds_by_position_or_keyword(r):
    fields = RECORDS[type(r)][0]
    assert r._fields == fields
    for built in (type(r)(*_values(r)), type(r)(**dict(zip(fields, _values(r)))),
                  type(r)(*_values(r)[:1], **dict(zip(fields[1:], _values(r)[1:])))):
        assert vars(built) == dict(zip(fields, _values(r)))
        assert all(getattr(built, f) is getattr(r, f) for f in fields)


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_a_record_takes_each_field_exactly_once(r):
    cls, values, fields = type(r), _values(r), r._fields
    for args, kwargs in [(values[:-1], {}), (values + [None], {}), (values, {"extra": None}),
                         (values[:1], dict(zip(fields, values))), ((), {})]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_a_record_cannot_be_assigned_to_or_deleted_from(r):
    for f in (*r._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
    assert not hasattr(r, "other")


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_equality_reads_only_the_compared_fields(r):
    compared = RECORDS[type(r)][1]
    assert r == _with(r) and not r != _with(r)
    for f in r._fields:
        other = _with(r, **{f: object()})
        assert (r == other) is (f not in compared), f
    assert r.__eq__(_values(r)) is NotImplemented and r != tuple(_values(r))
    # A record of another class is unequal even with the same values.
    for cls in RECORDS.keys() - {type(r)}:
        if len(cls._fields) == len(r._fields):
            assert r.__eq__(cls(*_values(r))) is NotImplemented and r != cls(*_values(r))


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_a_record_hashes_its_compared_fields_unless_unhashable(r):
    compared, hashable = RECORDS[type(r)][1], RECORDS[type(r)][3]
    assert (type(r).__hash__ is None) is not hashable
    key = tuple(getattr(r, f) for f in compared)
    try:
        want = hash(key)
    except TypeError:  # a Game in a field: hashing the record raises as well
        want = None
    if hashable and want is not None:
        assert hash(r) == want == hash(_with(r))
    else:
        with pytest.raises(TypeError):
            hash(r)


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_repr_lists_only_the_shown_fields(r):
    shown = RECORDS[type(r)][2]
    assert repr(r) == f"{type(r).__name__}({', '.join(f'{f}={getattr(r, f)!r}' for f in shown)})"


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_copy_deepcopy_and_pickle_give_an_equal_immutable_record(r):
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is type(r) and twin == r
        assert vars(twin).keys() == vars(r).keys()
        with pytest.raises(AttributeError):
            setattr(twin, r._fields[0], None)
    assert all(getattr(copy.copy(r), f) is getattr(r, f) for f in r._fields)


def test_cached_views_fill_the_instance_dict():
    g = trio_a()
    assert "edges" not in vars(g.tree) and "label" not in vars(g.clt)
    assert g.tree.edges is g.tree.edges and g.clt.label is g.clt.label
    assert "edges" in vars(g.tree) and "label" in vars(g.clt)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert vars(twin.tree)["edges"] == g.tree.edges
