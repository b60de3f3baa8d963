"""The record types: value semantics, immutability, repr, pickling, copying.

Each record is built by keyword, and its ``repr`` is pinned to the one the
earlier ``dataclasses`` definitions printed, so field names, their order
and the defaults cannot drift.  A record equals only a record of its own
class with equal fields: not the tuple of its values, and not a record of
another class with the same fields.
"""

import copy
import pickle

import pytest

from hypershuffle.chains import StationaryResult
from hypershuffle.hypergraph import (
    DegreeSequence,
    DirectedHypergraph,
    FeatureReport,
    SpaceSpec,
    _Record,
)
from hypershuffle.shuffle import ChainConfig, ChainResult
from hypershuffle.validation import BipartiteIncidence, UniformityReport

SPEC = SpaceSpec(allow_self_loops=False, allow_degenerate=True, allow_multi=False)
LOOP = DirectedHypergraph(n_vertices=1, arcs=(((0,), (0,)),))

# (class, keyword arguments, one field changed, repr)
RECORDS = [
    (
        DirectedHypergraph,
        dict(n_vertices=3, arcs=(((0, 1), (2,)), ((2,), (0,)))),
        dict(labels=("a", "b", "c")),
        "DirectedHypergraph(n_vertices=3, arcs=(((0, 1), (2,)), ((2,), (0,))), labels=None)",
    ),
    (
        DegreeSequence,
        dict(vertex_degrees=((1, 1), (0, 1), (1, 1)), arc_degrees=((2, 1), (1, 1))),
        dict(arc_degrees=((1, 1), (2, 1))),
        "DegreeSequence(vertex_degrees=((1, 1), (0, 1), (1, 1)), arc_degrees=((2, 1), (1, 1)))",
    ),
    (
        SpaceSpec,
        dict(allow_self_loops=True, allow_degenerate=False, allow_multi=True,
             labeling="vertex"),
        dict(labeling="stub"),
        "SpaceSpec(allow_self_loops=True, allow_degenerate=False, allow_multi=True,"
        " labeling='vertex')",
    ),
    (
        FeatureReport,
        dict(self_loops=(0,), degenerate=(), multi_groups=((1, 2),)),
        dict(degenerate=(1,)),
        "FeatureReport(self_loops=(0,), degenerate=(), multi_groups=((1, 2),))",
    ),
    (
        ChainConfig,
        dict(steps=10, seed=7, spec=SPEC),
        dict(record_trace=True),
        "ChainConfig(steps=10, seed=7, spec=SpaceSpec(allow_self_loops=False,"
        " allow_degenerate=True, allow_multi=False, labeling='stub'), record_trace=False)",
    ),
    (
        ChainResult,
        dict(final=LOOP, trace=(b"1|0>0",)),
        dict(trace=None),
        "ChainResult(final=DirectedHypergraph(n_vertices=1, arcs=(((0,), (0,)),),"
        " labels=None), trace=(b'1|0>0',))",
    ),
    (
        StationaryResult,
        dict(pi=(0.5, 0.5), components=None),
        dict(pi=(0.25, 0.75)),
        "StationaryResult(pi=(0.5, 0.5), components=None)",
    ),
    (
        UniformityReport,
        dict(statistic=1.5, p_value=0.25, dof=2, histogram={"x": 3}, pooled_cells=0,
             verdict="pass"),
        dict(verdict="fail"),
        "UniformityReport(statistic=1.5, p_value=0.25, dof=2, histogram={'x': 3},"
        " pooled_cells=0, verdict='pass')",
    ),
    (
        BipartiteIncidence,
        dict(vertex_nodes=("u_out_v0",), arc_nodes=("u_t_a0",),
             arcs=((("u_out_v0", "u_t_a0"), 1),)),
        dict(arcs=((("u_out_v0", "u_t_a0"), 2),)),
        "BipartiteIncidence(vertex_nodes=('u_out_v0',), arc_nodes=('u_t_a0',),"
        " arcs=((('u_out_v0', 'u_t_a0'), 1),))",
    ),
]

parametrize_records = pytest.mark.parametrize(
    "cls, kwargs, changed, text", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)


def values(record):
    return tuple(getattr(record, name) for name in record.__slots__)


@parametrize_records
def test_repr_matches_the_dataclass_repr(cls, kwargs, changed, text):
    assert repr(cls(**kwargs)) == text


@parametrize_records
def test_positional_and_keyword_construction_agree(cls, kwargs, changed, text):
    record = cls(**kwargs)
    assert cls(*values(record)) == record
    assert all(getattr(record, name) == value for name, value in kwargs.items())


def test_defaults():
    assert DirectedHypergraph(2, ()).labels is None
    assert SpaceSpec(True, True, True).labeling == "stub"
    assert ChainConfig(steps=1, seed=2, spec=SPEC).record_trace is False


@parametrize_records
def test_equality_goes_by_value(cls, kwargs, changed, text):
    a, b = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    assert a == b and not a != b
    c = cls(**{**kwargs, **changed})
    assert a != c and not a == c


@parametrize_records
def test_hash_goes_by_value(cls, kwargs, changed, text):
    a, b = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    if cls is UniformityReport:
        # Its histogram is a dict, so it hashes no more than the dict does.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values(a))
        assert len({a, b, cls(**{**kwargs, **changed})}) == 2


@parametrize_records
def test_never_equal_to_a_tuple_or_another_record_class(cls, kwargs, changed, text):
    record = cls(**kwargs)
    assert record != values(record) and values(record) != record
    twin_cls = type("Twin", (_Record,), {"__slots__": cls.__slots__})
    twin = object.__new__(twin_cls)
    twin._fill(*values(record))
    assert record != twin and twin != record


@parametrize_records
def test_fields_can_be_neither_assigned_nor_deleted(cls, kwargs, changed, text):
    record = cls(**kwargs)
    for name in record.__slots__:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@parametrize_records
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_round_trip(cls, kwargs, changed, text, clone):
    record = cls(**kwargs)
    again = clone(record)
    assert type(again) is cls and again == record and repr(again) == text
