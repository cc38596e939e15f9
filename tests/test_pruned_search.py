"""The conjugacy-level search pruned by the exact bound on FVS-1 graphs.

With one feedback vertex c, a cover counts `dp_lower_bound` exactly when
every row key (one per color of c) is a least key, and each column of the
keys is fixed once the free edges it depends on are placed; the search
skips every twist after which some key's fixed columns are no least
key's.  These tests compare the pruned search with the same search with
the stop and the pruning turned off (`oracles.unpruned`): value, witness
and candidate count must be equal on the Theta grid, the FVS-1 graphs of
the verify zoo and seeded random FVS-1 graphs whose cotree edges leave
the hub.  A pruned search counts one
cover; a real process pool prints what one worker does; and a search that
no chunk ends at the bound refuses to answer.
"""

import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from dpchroma import covers
from dpchroma.cli import main
from dpchroma.covers import cover_to_json, min_over_covers
from dpchroma.errors import AssumptionViolated
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta
from dpchroma.verify import _graph_zoo

from oracles import unpruned

GOLDEN = Path(__file__).parent / "golden"


def outcome(g: Graph, m: int) -> tuple:
    result = min_over_covers(g, m, workers=1)
    return result.value, cover_to_json(result.cover), result.candidates


def counted(monkeypatch, g: Graph, m: int) -> tuple[tuple, int, bool]:
    """The search's outcome, the number of covers it counted and whether
    it built a prune table."""
    calls, tables = [0], []
    count, table = covers._FeedbackPlan.count, covers._FeedbackPlan.least_key_table

    def counting(self, perms, m, fixed=None):
        calls[0] += 1
        return count(self, perms, m, fixed)

    def building(self, m, free_edges):
        tables.append(m)
        return table(self, m, free_edges)

    with monkeypatch.context() as patch:
        patch.setattr(covers._FeedbackPlan, "count", counting)
        patch.setattr(covers._FeedbackPlan, "least_key_table", building)
        return outcome(g, m), calls[0], bool(tables)


def check_against_unpruned(monkeypatch, g: Graph, m: int) -> bool:
    """Whether the search was pruned, after checking it against the
    unpruned search."""
    found, calls, pruned = counted(monkeypatch, g, m)
    with monkeypatch.context() as patch:
        unpruned(patch)
        assert outcome(g, m) == found
    # a pruned search counts the first cover that passes every test, and
    # that cover counts the bound
    assert calls == 1 or not pruned
    return pruned


def thetas(k: int) -> list[Graph]:
    """Every Theta graph with k paths of lengths at most 5, at most one of
    length 1."""
    return [
        build_generalized_theta(ThetaSpec(lengths))
        for lengths in combinations_with_replacement(range(1, 6), k)
        if lengths.count(1) <= 1
    ]


@pytest.mark.parametrize("k", (3, 4))
@pytest.mark.parametrize("m", range(2, 6))
def test_the_theta_grid_prunes_to_the_unpruned_answer(monkeypatch, k, m):
    for g in thetas(k):
        assert len(g.feedback_set) == 1
        assert check_against_unpruned(monkeypatch, g, m)


def test_the_fvs1_graphs_of_the_zoo_prune_to_the_unpruned_answer(monkeypatch):
    zoo = {name: g for name, g in _graph_zoo().items() if len(g.feedback_set) == 1}
    assert sorted(zoo) == [
        "bowtie", "c4", "theta:1,2,2", "theta:2,2,2", "theta:2,2,3", "theta:2,3,3", "triangle"
    ]
    pruned = [check_against_unpruned(monkeypatch, g, m) for g in zoo.values() for m in range(2, 7)]
    assert (len(pruned), sum(pruned)) == (35, 34)


def fvs1_graph_off_the_hub(rng: random.Random) -> Graph:
    """A random graph with one feedback vertex and a cotree edge that does
    not touch it: the hub's edges come first in a shuffled edge list, so
    the greedy spanning tree takes many of them and leaves forest edges in
    the cotree, whose twists move the frames of later key columns."""
    while True:
        n = rng.randrange(5, 8)
        others = list(range(1, n))
        hub = [(0, v) for v in rng.sample(others, rng.randrange(2, n))]
        forest = [
            (others[rng.randrange(i)], v) for i, v in enumerate(others[1:], start=1) if rng.random() < 0.7
        ]
        rng.shuffle(forest)
        g = Graph(tuple(f"x{i}" for i in range(n)), tuple(hub + forest))
        if len(g.feedback_set) != 1:
            continue
        c = g.feedback_set[0]
        if any(c not in g.edges[e] for e in range(len(g.edges)) if e not in g.standard_tree):
            return g


def test_random_fvs1_graphs_with_cotree_edges_off_the_hub(monkeypatch):
    rng = random.Random(34)
    graphs = [fvs1_graph_off_the_hub(rng) for _ in range(40)]
    pruned = [check_against_unpruned(monkeypatch, g, m) for g in graphs for m in range(2, 5)]
    assert (len(pruned), sum(pruned)) == (120, 76)


def least_key_table(g: Graph, m: int) -> list:
    free = [e for e in range(len(g.edges)) if e not in g.standard_tree]
    table = g.plan(covers._FeedbackPlan).least_key_table(m, free)
    return [None if level is None else (level[0], sorted(level[1])) for level in table]


def test_a_column_waits_for_the_free_edges_above_its_endpoint():
    # theta:2,2,2 with c = u: the column of u-v_i is fixed with the free
    # edge u-v_i itself (u-v_1 is a tree edge, listed at depth 1), and the
    # one least key at m = 4 keeps the three columns apart
    g = build_generalized_theta(ThetaSpec((2, 2, 2)))
    assert g.feedback_set == (0,)
    assert least_key_table(g, 4) == [None, ((0, 1), [(0, 1)]), ((0, 1, 2), [(0, 1, 2)])]
    # the 4-cycle a-b-c-d with x on a and c, c = a: the tree takes a-b,
    # b-c, c-d and a-x, the free edges are a-d and c-x; the column of the
    # tree edge a-x reads x's frame, which waits for the free edge c-x
    g = Graph(tuple("abcdx"), ((0, 1), (1, 2), (2, 3), (0, 4), (0, 3), (2, 4)))
    assert g.feedback_set == (0,)
    assert [g.edges[e] for e in range(len(g.edges)) if e not in g.standard_tree] == [(0, 3), (2, 4)]
    assert least_key_table(g, 3) == [None, ((0, 2), [(0, 1)]), ((0, 1, 2), [(0, 1, 2)])]


def test_no_chunk_at_the_bound_is_refused(monkeypatch):
    """A table that no twist passes leaves every chunk without a count;
    the search names the bound instead of printing an unproven minimum."""

    def nothing_passes(self, m, free_edges):
        return tuple(None if d == 0 else ((0,), frozenset()) for d in range(len(free_edges) + 1))

    monkeypatch.setattr(covers._FeedbackPlan, "least_key_table", nothing_passes)
    with pytest.raises(AssumptionViolated, match="dp_lower_bound = 2592"):
        min_over_covers(build_generalized_theta(ThetaSpec((2, 2, 2))), 6, workers=1)


@pytest.mark.parametrize("source", [str(GOLDEN / "bowtie.txt"), "theta:2,2,2"])
def test_a_process_pool_prints_what_one_worker_does(capsys, source):
    printed = []
    for workers in ("1", "2"):
        assert main(["dp-exact", source, "--m", "6", "--format", "json", "--workers", workers]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
