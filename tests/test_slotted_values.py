"""Value types take their immutability from the tuple.

`ThetaSpec`, `FullCover`, `Precoloring` and `PartitionSpec` check their
fields in `__new__` and declare empty `__slots__`, so an instance carries
no `__dict__` and the tuple refuses every assignment.  `Graph` caches
properties, which need a `__dict__`, so it keeps a `__setattr__` that
refuses.  A star decomposition's `alphas` is a field that its builder
fills, and an FVS-1 result reads its graph from its decomposition.
"""

import json
import random
from pathlib import Path

import pytest

from dpchroma import analysis, chromatic, covers, graphs, verify
from dpchroma.analysis import FeedbackPolynomialResult, fvs1_dp_polynomial
from dpchroma.chromatic import Precoloring
from dpchroma.covers import PartitionSpec, random_cover
from dpchroma.errors import InvalidCenter
from dpchroma.graphs import (
    Graph,
    StarDecomposition,
    ThetaSpec,
    build_generalized_theta,
    star_forest_decomposition,
)
from dpchroma.verify import _graph_zoo

SLOTTED = {
    "ThetaSpec": lambda: ThetaSpec((2, 3, 4)),
    "FullCover": lambda: random_cover(build_generalized_theta(ThetaSpec((2, 3, 4))), 3, random.Random(1)),
    "Precoloring": lambda: Precoloring({"p0": 1, "p2": 2}, 4),
    "PartitionSpec": lambda: PartitionSpec((frozenset({"a", "c"}), frozenset({"b"}))),
}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_checked_types_hold_no_instance_dict(name):
    obj = SLOTTED[name]()
    assert type(obj).__slots__ == () and not hasattr(obj, "__dict__")
    with pytest.raises(TypeError):
        vars(obj)
    for field in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "extra")


def test_only_types_with_cached_properties_refuse_assignment_by_hand():
    refusing = {
        name
        for module in (analysis, chromatic, covers, graphs, verify)
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
        and value.__module__ == module.__name__ and "__setattr__" in vars(value)
    }
    assert refusing == {"Graph"}
    assert not hasattr(graphs, "_StarDecompositionFields")
    assert StarDecomposition.__bases__ == (tuple,)
    assert "graph" not in FeedbackPolynomialResult._fields


def _pinned_graphs():
    pins = json.loads((Path(__file__).parent / "golden" / "fvs1_pins.json").read_text())
    for pin in pins:
        yield Graph(tuple(f"x{i}" for i in range(pin["n"])), tuple(map(tuple, pin["edges"]))), pin["center"]


def _expected_alphas(g: Graph, center: str) -> tuple[str, ...]:
    c = g.index[center]
    neighbours = [g.vertices[b if a == c else a] for a, b in g.edges if c in (a, b)]
    return (center,) + tuple(sorted(neighbours))


def test_alphas_are_the_center_then_its_sorted_neighbours():
    decompositions = []
    for g in _graph_zoo().values():
        for center in g.vertices:
            try:
                decompositions.append(star_forest_decomposition(g, center))
            except InvalidCenter:
                pass
    zoo = len(decompositions)
    decompositions += [star_forest_decomposition(g, center) for g, center in _pinned_graphs()]
    assert zoo >= 20 and len(decompositions) - zoo >= 150
    for d in decompositions:
        assert d.alphas == _expected_alphas(d.graph, d.center), d


def test_an_fvs1_result_reads_its_graph_from_its_decomposition():
    for g in _graph_zoo().values():
        if len(g.feedback_set) <= 1 and g.theta is None:
            result = fvs1_dp_polynomial(g)
            assert result.decomposition.graph is g
            assert result.decomposition.alphas == _expected_alphas(g, result.decomposition.center)
            assert result.witness_cover(3).graph is g
