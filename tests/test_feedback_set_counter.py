"""The one feedback-set counter behind every count, Theta graphs included.

`count_from_edge_perms` conditions on the colors of `Graph.feedback_set`,
a vertex set S whose removal leaves a forest: empty for forests, the
`find_feedback_vertex` pivot when one vertex suffices, otherwise grown
greedily and shrunk to a minimum while `EXACT_FEEDBACK_SUBSETS` allows.
These tests check S itself against a minimum found by trying every vertex
subset and against a shrink that tests every candidate set for a forest,
every count against plain enumeration for |S| from 0 to 3, the cost of
S, and the fold limit on m^|S|.
"""

import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import dpchroma.covers as covers
import dpchroma.graphs as graphs
from dpchroma.covers import count_from_edge_perms, identity_perm, min_over_covers
from dpchroma.errors import OutOfRange
from dpchroma.graphs import (
    FeedbackVertex,
    Graph,
    ThetaSpec,
    build_generalized_theta,
    feedback_vertex_set,
    find_feedback_vertex,
    spanning_forest,
)

from oracles import transversal_count
from test_merged_counter import complete, random_forest, random_fvs1

BOWTIE = Path(__file__).parent / "golden" / "bowtie.txt"


def random_dense(rng: random.Random, n: int) -> Graph:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.7]
    labels = [f"d{i}" for i in range(n)]
    rng.shuffle(labels)  # so label order and index order differ
    return Graph(tuple(labels), tuple(pairs))


def zoo(seed: int) -> list[Graph]:
    rng = random.Random(seed)
    graphs_ = [complete(4), complete(5), build_generalized_theta(ThetaSpec((2, 2, 2)))]
    graphs_ += [random_forest(rng, rng.randint(1, 6)) for _ in range(8)]
    graphs_ += [random_fvs1(rng, rng.randint(3, 6)) for _ in range(8)]
    graphs_ += [random_dense(rng, rng.randint(4, 7)) for _ in range(16)]
    return graphs_


def random_perm(rng: random.Random, m: int):
    return tuple(rng.sample(range(m), m))


def test_feedback_set_leaves_a_forest_and_keeps_the_pivot():
    sizes = set()
    for g in zoo(11):
        fvs = g.feedback_set
        assert fvs == feedback_vertex_set(g)
        assert len(set(fvs)) == len(fvs)
        rest = [e for e in g.edges if set(fvs).isdisjoint(e)]
        assert not spanning_forest(g.n, rest)[1]
        pivot = find_feedback_vertex(g)
        if pivot is FeedbackVertex.NONE_NEEDED:
            assert fvs == ()
        elif isinstance(pivot, str):
            assert fvs == (g.index[pivot],)
        else:
            assert len(fvs) >= 2
        sizes.add(len(fvs))
    assert {0, 1, 2, 3} <= sizes
    assert len(complete(4).feedback_set) == 2
    assert len(complete(5).feedback_set) == 3
    # A wheel: hub h, rim p-q-r-s.  Taking the first endpoint of each
    # cotree edge would remove p, q and r; the higher-degree one gives two.
    wheel = Graph(
        tuple("hpqrs"),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)),
    )
    assert wheel.feedback_set == (1, 3)


def minimum_feedback_size(g: Graph) -> int:
    """Size of a minimum feedback vertex set, trying every vertex subset."""
    for size in range(g.n + 1):
        for removed in combinations(range(g.n), size):
            if not spanning_forest(g.n, [e for e in g.edges if not set(removed) & set(e)])[1]:
                return size
    raise AssertionError("removing every vertex leaves a forest")


def test_feedback_set_is_a_minimum_up_to_the_exact_size(monkeypatch):
    rng = random.Random(404)
    samples = []
    for _ in range(400):
        n = rng.randint(4, 9)
        density = rng.uniform(0.3, 0.9)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
        samples.append(Graph(tuple(f"r{i}" for i in range(n)), tuple(pairs)))
    greedy_above = 0
    for g in samples:
        fvs = g.feedback_set
        rest = [e for e in g.edges if set(fvs).isdisjoint(e)]
        assert not spanning_forest(g.n, rest)[1]
        want = minimum_feedback_size(g)
        assert len(fvs) == want, g.edges
        with monkeypatch.context() as m:  # the greedy set alone
            m.setattr(graphs, "EXACT_FEEDBACK_SUBSETS", 0)
            greedy_above += len(feedback_vertex_set(g)) > want
    assert greedy_above >= 20  # graphs on which the greedy set alone is too large


def shrink_by_forest_tests(g: Graph, monkeypatch) -> tuple[int, ...]:
    """The greedy set shrunk by testing every candidate for a forest."""
    with monkeypatch.context() as m:
        m.setattr(graphs, "EXACT_FEEDBACK_SUBSETS", 0)
        best = feedback_vertex_set(g)
    while len(best) > 2 and comb(g.n, len(best) - 1) <= graphs.EXACT_FEEDBACK_SUBSETS:
        subsets = combinations(range(g.n), len(best) - 1)
        smaller = next((s for s in subsets if graphs._leaves_forest(g, s)), None)
        if smaller is None:
            break
        best = smaller
    return best


def test_shrink_skips_sets_that_leave_too_many_edges(monkeypatch):
    rng = random.Random(99)
    dense = [(a, b) for a in range(14) for b in range(a + 1, 14) if rng.random() < 0.6]
    samples = [Graph(tuple(f"q{i:02d}" for i in range(14)), tuple(dense))]
    for _ in range(100):
        n = rng.randint(5, 10)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.6]
        samples.append(Graph(tuple(f"r{i}" for i in range(n)), tuple(pairs)))
    original = graphs._leaves_forest
    tried = {}
    for g in samples:
        want = shrink_by_forest_tests(g, monkeypatch)
        tried[g] = []

        def counting(g, removed):
            tried[g].append(tuple(removed))
            return original(g, removed)

        with monkeypatch.context() as m:
            m.setattr(graphs, "_leaves_forest", counting)
            assert feedback_vertex_set(g) == want
        for removed in tried[g][g.n :]:  # past the single-vertex tests
            left = [e for e in g.edges if set(removed).isdisjoint(e)]
            assert len(left) <= g.n - len(removed) - 1
    # the dense graph has a 7-vertex minimum, and each of its 3,003
    # six-vertex sets leaves too many edges to be tried
    dense = samples[0]
    assert len(dense.edges) == 60 and len(dense.feedback_set) == 7
    assert not any(len(removed) == 6 for removed in tried[dense])


def test_the_shrink_keeps_every_feedback_set(monkeypatch):
    """On seeded dense graphs S equals the shrink that tests every candidate
    for a forest, so the edge-count test rules out no feedback set."""
    rng = random.Random(26)
    for _ in range(40):
        n, density = rng.randint(8, 12), rng.uniform(0.5, 0.95)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
        g = Graph(tuple(f"r{i}" for i in range(n)), tuple(pairs))
        assert feedback_vertex_set(g) == shrink_by_forest_tests(g, monkeypatch), g.edges


def test_counts_match_enumeration_for_every_feedback_set_size():
    rng = random.Random(23)
    sizes = set()
    for g in zoo(29):
        sizes.add(len(g.feedback_set))
        for with_fixed in (False, True) * 2:
            m = rng.randint(1, 3 if g.n > 5 else 4)
            perms = [random_perm(rng, m) for _ in g.edges]
            fixed = {}
            if with_fixed:
                fixed = {v: rng.randrange(m) for v in range(g.n) if rng.random() < 0.3}
            allowed = [[int(c == fixed.get(v, c)) for c in range(m)] for v in range(g.n)]
            want = transversal_count(g, m, perms, allowed)
            assert count_from_edge_perms(g, m, perms, fixed) == want
    assert {0, 1, 2, 3} <= sizes


def test_feedback_set_is_computed_once_per_search(monkeypatch):
    calls = []
    original = graphs.feedback_vertex_set

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "feedback_vertex_set", counting)
    for g, m in ((complete(4), 3), (Graph.from_text(BOWTIE.read_text()), 4)):
        calls.clear()
        result = min_over_covers(g, m)
        assert result.candidates > 1
        assert calls == [g]


def test_k5_identity_cover_beyond_the_old_enumeration_limit():
    g = complete(5)
    perms = [identity_perm(21)] * len(g.edges)
    assert count_from_edge_perms(g, 21, perms) == 21 * 20 * 19 * 18 * 17 == 2_441_880


def test_min_over_covers_rejects_non_positive_folds_before_searching(monkeypatch):
    def no_work(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(Graph, "standard_tree", property(no_work))
    monkeypatch.setattr(covers, "_search_chunk", no_work)
    theta = build_generalized_theta(ThetaSpec((2, 2, 2)))
    for g in (theta, Graph.from_text(BOWTIE.read_text())):
        for m in (0, -1):
            with pytest.raises(OutOfRange, match="m must be positive"):
                min_over_covers(g, m)
