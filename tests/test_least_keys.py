"""One walk for each thing the twist search derives.

The least row and the keys that reach it are found by one walk of the
canonical keys per fold (`_FeedbackPlan.least_keys`), which the bound, the
search's pruning gate and the least-key table all read.  Fibres are
relabelled along a forest by one descent (`covers._forest`) and one frame
helper (`covers._frames`), whose identity step composes nothing, so a
witness whose tree twists are identities canonicalises without a
composition.  The least-key table carries each column's fixing depth down
that descent.  The bound refuses a fold below 1.
"""

from pathlib import Path

import pytest

from dpchroma import covers
from dpchroma.covers import FullCover, cover_to_json, dp_lower_bound, min_over_covers
from dpchroma.errors import OutOfRange
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

GOLDEN = Path(__file__).parent / "golden"
# the hub's star is the standard tree, so every key column waits for the
# twists of the path edges above its endpoint
FAN = "n 5\ne h p0\ne h p1\ne h p2\ne h p3\ne p0 p1\ne p1 p2\ne p2 p3\n"


def walks_of_the_keys(monkeypatch, g: Graph, m: int) -> tuple[tuple, int]:
    """A search's outcome and how often it listed the plan's canonical keys."""
    plan, calls = g.plan(covers._FeedbackPlan), [0]
    walk = covers._growth_strings

    def counting(k, most):
        calls[0] += (k, most) == (len(plan.outer), m)
        return walk(k, most)

    with monkeypatch.context() as patch:
        patch.setattr(covers, "_growth_strings", counting)
        result = min_over_covers(g, m, workers=1)
    return (result.value, cover_to_json(result.cover), result.candidates), calls[0]


def test_a_pruned_search_walks_the_keys_once_per_fold(monkeypatch):
    g = build_generalized_theta(ThetaSpec((3, 3, 4)))
    tables, table = [], covers._FeedbackPlan.least_key_table

    def building(self, m, free_edges):
        tables.append(m)
        return table(self, m, free_edges)

    monkeypatch.setattr(covers._FeedbackPlan, "least_key_table", building)
    first, calls = walks_of_the_keys(monkeypatch, g, 4)
    assert tables and calls == 1
    again, calls = walks_of_the_keys(monkeypatch, g, 4)
    assert again == first and calls == 0 and len(tables) == 2
    assert dp_lower_bound(g, 4) == first[0] == 4 * g.plan(covers._FeedbackPlan).least_keys(4)[0]


def test_a_witness_with_identity_tree_twists_composes_nothing(monkeypatch):
    g = build_generalized_theta(ThetaSpec((3, 3, 4)))
    witness = min_over_covers(g, 4, workers=1).cover
    calls = [0]
    compose = covers.compose

    def counting(outer, inner):
        calls[0] += 1
        return compose(outer, inner)

    monkeypatch.setattr(covers, "compose", counting)
    assert FullCover.from_edge_perms(g, 4, dict(witness.twists)) == witness
    assert calls[0] == 0
    # a twisted tree edge still composes along the descent below it
    tree_edge = min(g.standard_tree)
    FullCover.from_edge_perms(g, 4, {**witness.twists, tree_edge: (1, 0, 2, 3)})
    assert calls[0] > 0


def test_a_column_is_fixed_at_the_deepest_free_edge_above_its_endpoint():
    """The fan: the forest left by the hub is the path p0-p1-p2-p3, every
    edge of it free, so the columns of h-p0 and h-p1 are fixed at depth 1
    and those of h-p2 and h-p3 at depths 2 and 3."""
    g = Graph.from_text(FAN)
    free = [e for e in range(len(g.edges)) if e not in g.standard_tree]
    assert g.feedback_set == (0,) and [g.edges[e] for e in free] == [(1, 2), (2, 3), (3, 4)]
    table = g.plan(covers._FeedbackPlan).least_key_table(6, free)
    columns = [None if level is None else level[0] for level in table]
    assert columns == [None, (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    assert min_over_covers(g, 6, workers=1).value == 1920


@pytest.mark.parametrize("source", ["theta:2,2,2", "k4.txt"])
@pytest.mark.parametrize("m", (0, -1))
def test_the_bound_refuses_a_fold_below_one(source, m):
    if source.startswith("theta:"):
        g = build_generalized_theta(ThetaSpec((2, 2, 2)))
    else:
        g = Graph.from_text((GOLDEN / source).read_text())
    with pytest.raises(OutOfRange, match="m must be positive"):
        dp_lower_bound(g, m)
