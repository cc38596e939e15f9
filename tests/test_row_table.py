"""The row table of the feedback-set counter.

Every count is read from one table per fold, keyed by the colors that
the edges from the plan's slots block once each tree of the forest left
is relabeled to the identity.  The slots are the feedback set S and
every vertex with a fixed color.  These tests compare the table, with
every color allowed and with random fixed colors, with the brute-force
oracle on seeded graphs with |S| = 1, 2 and 3, some with a tree
component, whose count sits in every row; check that each tree of the
forest is one slice of the plan's descent, that a repeated blocked
pattern runs no tree DP, that each fold has its own table, that raw
keys stop at `RAW_KEY_LIMIT`, that a row depends only on the equality
pattern of its key, and pin how many rows a search builds.  What the
search counts and returns through the table is pinned in
`tests/test_orderly_search.py`.
"""

import random
from math import prod
from pathlib import Path

import pytest

from dpchroma import covers
from dpchroma.covers import (
    _canonical,
    _FeedbackPlan,
    count_from_edge_perms,
    min_over_covers,
    random_cover,
)
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

from oracles import transversal_count

GOLDEN = Path(__file__).parent / "golden"
BOWTIE = Graph.from_text((GOLDEN / "bowtie.txt").read_text())


def golden(name: str) -> Graph:
    """A fresh graph, so its plan starts with empty tables."""
    return Graph.from_text((GOLDEN / name).read_text())


def theta(*lengths: int) -> Graph:
    return build_generalized_theta(ThetaSpec(lengths))


def seeded_graphs(size: int, count: int = 3) -> list[Graph]:
    """The first `count` seeded random graphs whose feedback set has `size`
    vertices: 4-6 random vertices, then a path of 0-2 vertices apart from
    them, a tree that touches no edge from the feedback set."""
    rng = random.Random(18 + size)
    found = []
    while len(found) < count:
        n = rng.randint(4, 6)
        p = rng.choice((0.5, 0.7, 0.9))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        extra = rng.randint(0, 2)
        pairs += [(v, v + 1) for v in range(n, n + extra - 1)]
        labels = [f"x{i}" for i in range(n + extra)]
        rng.shuffle(labels)
        g = Graph(tuple(labels), tuple(pairs))
        if len(g.feedback_set) == size:
            found.append(g)
    return found


def tree_of(plan: _FeedbackPlan) -> dict[int, int]:
    """The root of the tree of G - S that holds each vertex outside S."""
    root = {r: r for r in plan.roots}
    for v, parent, _, _ in plan.descent:
        root[v] = root[parent]
    return root


def random_perms(g: Graph, m: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A random permutation on every edge, tree edges included, so that a
    count has to relabel the trees of G - S."""
    return [tuple(rng.sample(range(m), m)) for _ in g.edges]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_table_matches_the_oracle_and_the_vector_route(size):
    """The vector route: each vertex fixed to one color or free, those of S
    half the time, the others 30% of it, so fixed vertices sit in trees
    whose edges are twisted; the oracle reads one-hot vectors.  Some graph
    has a tree component, a tree of G - S that no edge from S touches."""
    rng = random.Random(size)
    graphs = seeded_graphs(size)
    plans = [g.plan(_FeedbackPlan) for g in graphs]
    assert any(set(plan.roots) - {tree_of(plan)[y] for _, y, _, _ in plan.outer} for plan in plans)
    for g, plan in zip(graphs, plans):
        for m in range(2, 6):
            for perms in (random_cover(g, m, rng).edge_perms(), random_perms(g, m, rng)):
                assert plan.count(perms, m) == transversal_count(g, m, perms)
                chance = [0.5 if v in g.feedback_set else 0.3 for v in range(g.n)]
                fixed = {v: rng.randrange(m) for v in range(g.n) if rng.random() < chance[v]}
                allowed = [[int(c == fixed.get(v, c)) for c in range(m)] for v in range(g.n)]
                want = transversal_count(g, m, perms, allowed)
                assert count_from_edge_perms(g, m, perms, fixed) == want


def test_a_repeated_pattern_runs_no_tree_dp(monkeypatch):
    g = seeded_graphs(2, 1)[0]
    perms = random_cover(g, 4, random.Random(7)).edge_perms()
    plan = g.plan(_FeedbackPlan)
    want = plan.count(perms, 4)
    assert plan.tables[4]

    def no_dp(*args):
        raise AssertionError("forest DP on a known pattern")

    monkeypatch.setattr(covers, "_forest_count", no_dp)
    assert plan.count(perms, 4) == want


@pytest.mark.parametrize("size", [1, 2, 3])
def test_each_tree_is_one_slice_of_the_descent(size):
    """Each tree of the forest left by the slots is one slice of the plan's
    descent, rooted at its least vertex, the slices in the order of
    `plan.roots`; a slot, alone in the walk, roots no tree.  The forest's
    count over the whole descent is the product of its counts over the
    slices and the oracle's count of that forest."""
    rng = random.Random(30 + size)
    plans = [
        (g, g.plan(_FeedbackPlan, *restricted))
        for g in seeded_graphs(size)
        for restricted in ((), ((0,),), ((0, g.n - 1),))
    ]
    assert any(len(plan.roots) > 1 for _, plan in plans)
    assert any(set(plan.roots) - {tree_of(plan)[y] for _, y, _, _ in plan.outer} for _, plan in plans)
    for g, plan in plans:
        root = tree_of(plan)
        assert sorted(root) == sorted(set(range(g.n)) - set(plan.slots))
        slices, start = [], 0
        for r in plan.roots:
            stop = start + sum(root[v] == r for v, _, _, _ in plan.descent)
            steps = plan.descent[start:stop]
            assert all(root[v] == r < v for v, _, _, _ in steps)
            slices.append(([r], steps))
            start = stop
        assert start == len(plan.descent)
        keep = sorted(root)
        where = {v: i for i, v in enumerate(keep)}
        forest = Graph(
            tuple(g.vertices[v] for v in keep),
            tuple((where[a], where[b]) for a, b in g.edges if a in where and b in where),
        )
        for m in (2, 3):
            seeds = [[int(rng.random() < 0.8) for _ in range(m)] for _ in range(g.n)]
            whole = covers._forest_count(plan.roots, plan.descent, seeds)
            parts = [covers._forest_count(r, steps, seeds) for r, steps in slices]
            assert whole == prod(parts)
            ident = [tuple(range(m))] * len(forest.edges)
            assert whole == transversal_count(forest, m, ident, [seeds[v] for v in keep])


def test_each_fold_has_its_own_table():
    plan = BOWTIE.plan(_FeedbackPlan)
    ident = [tuple(range(3))] * len(BOWTIE.edges)
    assert plan.count(ident, 3) == transversal_count(BOWTIE, 3, ident)
    ident = [tuple(range(4))] * len(BOWTIE.edges)
    assert plan.count(ident, 4) == transversal_count(BOWTIE, 4, ident)
    assert sorted(plan.tables) == [3, 4]


def test_raw_keys_stop_at_the_limit(monkeypatch):
    """Past `RAW_KEY_LIMIT` entries a fold's table stores only canonical
    rows, and every count stays exact."""
    monkeypatch.setattr(covers, "RAW_KEY_LIMIT", 8)
    rng = random.Random(21)
    for g in (golden("k4.txt"), *seeded_graphs(3, 2)):
        plan = g.plan(_FeedbackPlan)
        for m in (3, 4):
            for perms in (random_cover(g, m, rng).edge_perms(), random_perms(g, m, rng)):
                assert plan.count(perms, m) == transversal_count(g, m, perms)
            rows = plan.tables[m]
            canonical = sum(key == _canonical(key) for key in rows)
            assert len(rows) - canonical <= 8 < len(rows), (g, m)


def test_a_row_depends_only_on_the_equality_pattern_of_its_key():
    rng = random.Random(20)
    for g in (golden("bowtie.txt"), golden("k4.txt"), theta(2, 2, 2, 2)):
        plan = g.plan(_FeedbackPlan)
        for m in (3, 4, 5):
            for _ in range(20):
                key = tuple(rng.randrange(m) for _ in plan.outer)
                assert plan._row(key, m) == plan._row(_canonical(key), m), (g, key)
    assert _canonical((2, 0, 2)) == (0, 1, 0)


@pytest.mark.parametrize(
    "source, m, rows",
    [
        (lambda: theta(2, 2, 2), 6, 5),
        (lambda: theta(2, 3, 4), 4, 5),
        (lambda: theta(2, 2, 2, 2), 4, 15),
        (lambda: golden("bowtie.txt"), 6, 15),
        (lambda: golden("k4.txt"), 4, 15),
        (lambda: golden("k4.txt"), 5, 15),
    ],
    ids=["theta:2,2,2-6", "theta:2,3,4-4", "theta:2,2,2,2-4", "bowtie-6", "k4-4", "k4-5"],
)
def test_a_search_builds_one_row_per_equality_pattern(monkeypatch, source, m, rows):
    """Bell(|edges from S|) tree-DP rows per fold, 5 for three edges and 15
    for four: the lower bound reads every canonical key once, and the
    search builds no other."""
    built = []
    row = _FeedbackPlan._row

    def counting(self, key, m):
        built.append(key)
        return row(self, key, m)

    monkeypatch.setattr(_FeedbackPlan, "_row", counting)
    min_over_covers(source(), m, workers=1)
    assert len(built) == rows
    assert all(key == _canonical(key) for key in built)
