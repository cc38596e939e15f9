"""Random-oracle tests for deletion-contraction on memoised 2-cores.

`chromatic._chrom` strips vertices of degree <= 1, renumbers the 2-core
that is left and expands each distinct core once per call.  The graphs
here have what that reduction must get right: isolated vertices, pendant
trees, several components, cycles sharing a vertex and cycles joined by
bridges, with their vertices numbered in a shuffled order.
"""

import random

from dpchroma import chromatic
from dpchroma.chromatic import (
    CHROMATIC_NODE_LIMIT,
    Precoloring,
    chromatic_polynomial,
    precolored_count,
    precolored_polynomial,
)
from dpchroma.cli import main
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta, spanning_forest
from dpchroma.poly import M, IntPoly
from dpchroma.verify import _valid_length_tuples

from oracles import chromatic_by_subsets


def reference_chrom(n, edges):
    """Plain deletion-contraction with forests as base cases: no stripping, no memo."""
    if any(a == b for a, b in edges):
        return IntPoly()
    edges = sorted(set((min(e), max(e)) for e in edges))
    roots, cotree = spanning_forest(n, edges)
    if not cotree:
        return (M ** len(set(roots))) * ((M - 1) ** len(edges))
    cycle_edge = edges[cotree[0]]
    deleted = [e for e in edges if e != cycle_edge]
    contracted = reference_contract(n, deleted, cycle_edge)
    return reference_chrom(n, deleted) - reference_chrom(n - 1, contracted)


def reference_contract(n, edges, merged):
    a, b = merged

    def remap(x):
        if x == b:
            x = a
        return x - 1 if x > b else x

    return [(remap(p), remap(q)) for p, q in edges]


def random_graph(rng: random.Random, max_vertices: int, max_edges: int) -> Graph:
    """Cycles (alone, sharing a vertex or joined by a bridge), chords,
    pendant vertices, tree components and isolated vertices."""
    n = 0
    edges: set[tuple[int, int]] = set()

    def add(a, b):
        if a != b and len(edges) < max_edges:
            edges.add((min(a, b), max(a, b)))

    while n < max_vertices:
        kind = rng.choice(["cycle"] * 3 + ["pendant"] * 2 + ["tree", "isolated", "chord", "chord"])
        if kind == "cycle" and n + 3 <= max_vertices:
            length = rng.randint(3, min(5, max_vertices - n))
            ring = list(range(n, n + length))
            n += length
            if ring[0] > 0 and rng.random() < 0.4:
                ring[0] = rng.randrange(ring[0])  # share a vertex
                n -= 1
                ring = [ring[0]] + [v - 1 for v in ring[1:]]
            elif ring[0] > 0 and rng.random() < 0.5:
                add(rng.randrange(ring[0]), ring[0])  # a bridge
            for i in range(len(ring)):
                add(ring[i], ring[(i + 1) % len(ring)])
        elif kind == "pendant" and n > 0:
            add(rng.randrange(n), n)
            n += 1
        elif kind == "tree" and n + 2 <= max_vertices:
            add(n, n + 1)
            if n + 3 <= max_vertices:
                add(n + rng.randrange(2), n + 2)
                n += 1
            n += 2
        elif kind == "chord" and n >= 4:
            add(*rng.sample(range(n), 2))
        elif kind == "isolated":
            n += 1
    order = list(range(n))
    rng.shuffle(order)
    return Graph(
        tuple(f"x{i}" for i in range(n)),
        tuple(sorted((min(order[a], order[b]), max(order[a], order[b])) for a, b in edges)),
    )


def test_random_graphs_against_inclusion_exclusion():
    rng = random.Random(20240607)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 11), 13)
        poly = chromatic_polynomial(g)
        assert poly == reference_chrom(g.n, list(g.edges)), g.edges
        for m in range(1, 6):
            assert poly(m) == chromatic_by_subsets(g, m), (g.edges, m)


def test_random_precolorings_against_counts():
    rng = random.Random(770)
    conflicts = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 6), 9)
        domain = [v for v in g.vertices if rng.random() < 0.5]
        bound = g.n + rng.randint(0, 1)
        assignment = {v: rng.randint(1, min(bound, 3)) for v in domain}
        pc = Precoloring(assignment, bound)
        poly = precolored_polynomial(g, pc)
        if chromatic._conflicts(g, pc):
            conflicts += 1
            assert poly == IntPoly()
        for m in range(bound, bound + 3):
            assert poly(m) == precolored_count(g, pc, m), (g.edges, assignment, m)
    assert conflicts >= 3


def test_theta_identity_graphs_against_plain_recursion():
    for lengths in _valid_length_tuples(4, 5):
        g = build_generalized_theta(ThetaSpec(lengths))
        poly = chromatic_polynomial(g, limit=g.n)
        assert poly == reference_chrom(g.n, list(g.edges)), lengths
    for lengths in _valid_length_tuples(3, 4):
        g = build_generalized_theta(ThetaSpec(lengths))
        for j in range(len(lengths)):
            gg = g.without_edges([j])
            assert chromatic_polynomial(gg, limit=gg.n) == reference_chrom(
                gg.n, list(gg.edges)
            ), (lengths, j)


def test_each_two_core_is_expanded_once(monkeypatch):
    calls = []

    def counted(n, edges):
        calls.append(n)
        return spanning_forest(n, edges)

    monkeypatch.setattr(chromatic, "spanning_forest", counted)
    g = build_generalized_theta(ThetaSpec((5, 5, 5, 5)))
    assert chromatic_polynomial(g, limit=g.n) == reference_chrom(g.n, list(g.edges))
    # One pass per memo miss: 36 here, where the unmemoised recursion made
    # one pass per node, 737 in all.
    assert len(calls) <= 36


def test_sparse_16_vertex_graph_exhausts_the_node_budget(tmp_path, capsys):
    rng = random.Random(16)
    pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    g = Graph(tuple(f"v{i:02d}" for i in range(16)), tuple(sorted(rng.sample(pairs, 60))))
    path = tmp_path / "sparse.txt"
    path.write_text(g.to_text())
    assert main(["chrom", str(path)]) == 2
    err = capsys.readouterr().err
    assert "search budget exceeded" in err
    assert f"limit of {CHROMATIC_NODE_LIMIT}" in err
