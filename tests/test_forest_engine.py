"""Random-oracle tests for the one forest engine.

`graphs.spanning_forest` (one union-find pass) answers every forest,
component, spanning-tree, cycle-edge and feedback-vertex question, and
`covers._forest` (one walk: the forest's roots and one parent-first
descent) carries the fiber transport and the forest DP.  Each question
is checked here against an independent route on seeded random graphs
with several components: cycle enumeration, vertex deletion,
inclusion-exclusion and plain enumeration.
"""

import random
import tracemalloc
from itertools import product

import pytest

import dpchroma.graphs as graphs
from dpchroma.chromatic import chromatic_polynomial
from dpchroma.cli import main
from dpchroma.covers import (
    FullCover,
    _FeedbackPlan,
    count_colorings,
    count_from_edge_perms,
    identity_perm,
    random_cover,
)
from dpchroma.errors import InvalidCenter
from dpchroma.graphs import (
    FeedbackVertex,
    Graph,
    ThetaSpec,
    build_generalized_theta,
    find_feedback_vertex,
    spanning_forest,
    star_forest_decomposition,
    subset_cycle_lengths,
)

from oracles import chromatic_by_subsets, full_mask, subset_agreement_count, to_text, without_vertex


def complete(n: int) -> Graph:
    return Graph(
        tuple(f"k{i}" for i in range(n)),
        tuple((a, b) for a in range(n) for b in range(a + 1, n)),
    )


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Each pair an edge with probability p; sparse draws split into
    several components."""
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)  # label order and index order differ
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    return Graph(tuple(labels), tuple(edges))


def random_graphs(seed: int, count: int, max_n: int = 7, max_edges: int = 20):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng, rng.randint(1, max_n), rng.choice((0.2, 0.35, 0.5, 0.7)))
        if len(g.edges) <= max_edges:
            out.append(g)
    return out


def random_perm(rng: random.Random, m: int) -> tuple[int, ...]:
    p = list(range(m))
    rng.shuffle(p)
    return tuple(p)


def test_random_graphs_span_several_components():
    gs = random_graphs(1, 120)
    components = [len(set(spanning_forest(g.n, g.edges)[0])) for g in gs]
    assert sum(c >= 2 for c in components) >= 40
    assert sum(not g.is_forest() for g in gs) >= 40


def test_spanning_forest_splits_edges_into_tree_and_cotree():
    for g in random_graphs(2, 120):
        roots, cotree = spanning_forest(g.n, g.edges)
        tree = [e for i, e in enumerate(g.edges) if i not in cotree]
        tree_roots, tree_cotree = spanning_forest(g.n, tree)
        assert not tree_cotree
        assert len(tree) == g.n - len(set(roots)) == g.n - len(set(tree_roots))
        for i in cotree:
            a, b = g.edges[i]
            assert roots[a] == roots[b]


def test_is_forest_matches_cycle_enumeration():
    for g in random_graphs(3, 150):
        assert g.is_forest() == (subset_cycle_lengths(g, full_mask(g)) == [])


def test_find_feedback_vertex_matches_vertex_deletion():
    for g in random_graphs(4, 150):
        if g.is_forest():
            want = FeedbackVertex.NONE_NEEDED
        else:
            good = [v for v in sorted(g.vertices) if without_vertex(g, v).is_forest()]
            want = good[0] if good else FeedbackVertex.NOT_SIZE_ONE
        assert find_feedback_vertex(g) == want


def test_chromatic_polynomial_matches_inclusion_exclusion():
    for g in random_graphs(5, 60, max_edges=12):
        poly = chromatic_polynomial(g)
        for m in range(1, 5):
            assert poly(m) == chromatic_by_subsets(g, m)


def agreement_by_enumeration(g: Graph, cover: FullCover, subset: int) -> int:
    perms = cover.edge_perms()
    chosen = [i for i in range(len(g.edges)) if subset >> i & 1]
    return sum(
        1
        for colors in product(range(cover.m), repeat=g.n)
        if all(perms[i][colors[g.edges[i][0]]] == colors[g.edges[i][1]] for i in chosen)
    )


def test_subset_agreement_count_matches_enumeration():
    rng = random.Random(6)
    for g in random_graphs(6, 40, max_n=6):
        m = rng.randint(1, 3)
        cover = random_cover(g, m, rng)
        subsets = {0, full_mask(g)} | {rng.randrange(1 << len(g.edges)) for _ in range(6)}
        for subset in subsets:
            assert subset_agreement_count(cover, subset) == agreement_by_enumeration(
                g, cover, subset
            )


def test_from_edge_perms_keeps_the_count_of_the_raw_assignment():
    rng = random.Random(7)
    for g in random_graphs(7, 60, max_n=6):
        m = rng.randint(1, 4)
        raw = [random_perm(rng, m) for _ in g.edges]
        cover = FullCover.from_edge_perms(g, m, dict(enumerate(raw)))
        assert count_colorings(g, cover) == count_from_edge_perms(g, m, raw)


def test_forest_and_feedback_vertex_tests_enumerate_no_cycles(
    monkeypatch, tmp_path, capsys
):
    def enumerate_cycles(*args):
        raise AssertionError("cycle enumeration")

    monkeypatch.setattr(graphs, "subset_cycle_lengths", enumerate_cycles)
    k12 = complete(12)
    assert find_feedback_vertex(k12) is FeedbackVertex.NOT_SIZE_ONE
    theta = build_generalized_theta(ThetaSpec((2, 2, 3)))
    d = star_forest_decomposition(theta, "u")
    assert d.forest.is_forest() and d.alphas == ("u", "v_1_1", "v_2_1", "v_3_1")
    with pytest.raises(InvalidCenter):
        star_forest_decomposition(theta, "v_1_1")
    path = tmp_path / "k12.txt"
    path.write_text(to_text(k12))
    code = main(["dp-formula", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "no feedback vertex set of size one" in err


def test_forest_count_keeps_no_read_vector():
    # a cycle at m = 3 conditions on one vertex and counts the path left,
    # whose vectors grow to n bits.  Each is dropped once its parent has
    # read it, so the traced peak stays under 1 MiB; it was 14 MiB when
    # every vector stayed to the end of the pass.
    n = 8000
    g = Graph(tuple(f"c{i:04d}" for i in range(n)), tuple((i, (i + 1) % n) for i in range(n)))
    g.plan(_FeedbackPlan)  # built outside the trace
    tracemalloc.start()
    try:
        got = count_from_edge_perms(g, 3, [identity_perm(3)] * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:  # a trace left running slows every later test
        tracemalloc.stop()
    assert got == 2**n + 2
    assert peak < 3 * 2**20, peak
