"""Random-oracle tests for the color-pattern transfer behind every
chromatic polynomial.

`chromatic._transfer` walks the vertices in a frontier-greedy order and
keeps the partitions of the active vertices by color.  Each component
starts at a least-degree vertex; each next vertex is the frontier vertex
that leaves the fewest active vertices, then the one with the most
entered neighbors, then the one with the fewest unentered neighbors,
then the lowest index.  The transfer also takes colors a vertex must
avoid, as the feedback-vertex-one weights need.  The graphs here have what
that walk must get right: isolated vertices, pendant trees, several
components, cycles sharing a vertex and cycles joined by bridges, with
their vertices numbered in a shuffled order.
"""

import json
import random

import pytest

from dpchroma import chromatic
from dpchroma.chromatic import (
    CHROMATIC_WORK_LIMIT,
    Precoloring,
    chromatic_polynomial,
    precolored_count,
    precolored_polynomial,
    theta_closed_form,
)
from dpchroma.cli import main
from dpchroma.covers import count_colorings, identity_cover
from dpchroma.errors import SearchBudgetExceeded
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta, spanning_forest
from dpchroma.poly import M, IntPoly
from dpchroma.verify import _valid_length_tuples

from oracles import chromatic_by_subsets, reference_transfer, to_text, transversal_count


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
    for trial in range(90):
        g = random_graph(rng, rng.randint(3, 6), 9)
        domain = [v for v in g.vertices if rng.random() < 0.5]
        bound = g.n + rng.randint(0, 1)
        if trial < 60:
            assignment = {v: rng.randint(1, min(bound, 3)) for v in domain}
        else:  # colors that are not 1..s, such as {2, 5}
            palette = rng.sample(range(1, bound + 1), min(bound, 2))
            assignment = {v: rng.choice(palette) for v in domain}
        pc = Precoloring(assignment, bound)
        poly = precolored_polynomial(g, pc)
        colors = [assignment.get(v) for v in g.vertices]
        if any(colors[a] is not None and colors[a] == colors[b] for a, b in g.edges):
            conflicts += 1
            assert poly == IntPoly()
        for m in range(bound, bound + 3):
            assert poly(m) == precolored_count(g, pc, m), (g.edges, assignment, m)
    assert conflicts >= 3


def test_avoided_colors_against_enumeration():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = tuple((rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.7)
        g = Graph(tuple(f"t{i}" for i in range(n)), edges)
        avoid = {v: rng.randrange(3) for v in range(n) if rng.random() < 0.6}
        s = 1 + max(avoid.values(), default=-1)
        poly = chromatic._transfer(g, {}, avoid)
        for m in range(max(s, 1), s + 3):
            allowed = [[int(c != avoid.get(v)) for c in range(m)] for v in range(n)]
            want = transversal_count(g, m, [tuple(range(m))] * len(edges), allowed)
            assert poly(m) == want, (edges, avoid, m)


def theta_identity_graphs() -> list[Graph]:
    """The 840 graphs of the theta-identity suite: Theta graphs and Theta
    graphs less one edge at u."""
    graphs = [build_generalized_theta(ThetaSpec(t)) for t in _valid_length_tuples(4, 5)]
    for lengths in _valid_length_tuples(3, 4):
        g = build_generalized_theta(ThetaSpec(lengths))
        graphs += [g.without_edges([j]) for j in range(len(lengths))]
    return graphs


def test_theta_identity_graphs_against_plain_recursion():
    for g in theta_identity_graphs():
        assert chromatic_polynomial(g) == reference_chrom(g.n, list(g.edges)), g.edges


class WorkMeter:
    """Stands in for CHROMATIC_WORK_LIMIT: refuses nothing and keeps the
    largest count compared with it, a transfer's whole work."""

    def __init__(self):
        self.need = 0

    def __lt__(self, work: int) -> bool:  # `work > limit` lands here
        self.need = max(self.need, work)
        return False


def transfer_outcome(transfer, g: Graph, named, avoid) -> IntPoly | str:
    try:
        return transfer(g, named, avoid)
    except SearchBudgetExceeded as exc:
        return str(exc)


def transfer_cases() -> list[tuple[Graph, dict, dict]]:
    """The 840 theta-identity graphs, and 200 seeded random graphs with
    random fixed and avoided colors, a vertex sometimes given both."""
    rng = random.Random(2828)
    cases = [(g, {}, {}) for g in theta_identity_graphs()]
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), 14)
        s = rng.randint(1, 3)
        named = {v: rng.randrange(s) for v in range(g.n) if rng.random() < 0.25}
        avoid = {v: rng.randrange(s) for v in range(g.n) if rng.random() < 0.4}
        cases.append((g, named, avoid))
    return cases


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_tabled_moves_match_the_reference_transfer(monkeypatch, cold):
    # cold clears the move table before every transfer; warm lets it fill
    # across all 1,040 of them, as one process does
    rng = random.Random(1040)
    refusals = 0

    def tabled(g, named, avoid):
        if cold:
            chromatic._moves.cache_clear()
        return chromatic._transfer(g, named, avoid)

    for g, named, avoid in transfer_cases():
        monkeypatch.setattr(chromatic, "CHROMATIC_WORK_LIMIT", CHROMATIC_WORK_LIMIT)
        g.plan(chromatic._transfer_steps)  # so the order's scans meet no meter
        meter = WorkMeter()
        monkeypatch.setattr(chromatic, "CHROMATIC_WORK_LIMIT", meter)
        want = reference_transfer(g, named, avoid)
        limits = [CHROMATIC_WORK_LIMIT, meter.need]
        if meter.need:
            limits.append(rng.randrange(meter.need))
        for limit in limits:
            monkeypatch.setattr(chromatic, "CHROMATIC_WORK_LIMIT", limit)
            got = transfer_outcome(tabled, g, named, avoid)
            assert got == transfer_outcome(reference_transfer, g, named, avoid), (
                g.edges, named, avoid, limit,
            )
            if limit < meter.need:
                refusals += 1
                assert "coefficient updates at vertex" in got
            else:
                assert got == want
    assert refusals >= 1000


def test_the_move_table_stays_bounded():
    # the 7x7 grid meets 6,478 distinct moves, more than the table keeps
    # (the 6x6 grid meets 1,353); every answer after it is still right
    chromatic._moves.cache_clear()
    assert chromatic_polynomial(grid(7, 7))(2) == 2
    info = chromatic._moves.cache_info()
    assert info.maxsize == chromatic._MOVE_TABLE_SIZE
    assert info.misses > info.maxsize >= info.currsize
    spec = ThetaSpec((2, 3, 4))
    assert chromatic_polynomial(build_generalized_theta(spec)) == theta_closed_form(spec.lengths)
    assert chromatic_polynomial(grid(4, 5)) == chromatic_polynomial(grid(4, 5, by_rows=False))


def transfer_order(g: Graph) -> list[int]:
    return [v for v, *_ in chromatic._transfer_steps(g)]


def active_counts(g: Graph) -> list[int]:
    """Vertices active after each step of the transfer's order: entered,
    with a neighbor still to enter."""
    order = transfer_order(g)
    step = {v: i for i, v in enumerate(order)}
    last = [max((step[u] for u in g.adjacency[v]), default=-1) for v in range(g.n)]
    return [sum(last[u] > i for u in order[: i + 1]) for i in range(g.n)]


def test_order_keeps_theta_identity_graphs_narrow():
    graphs = theta_identity_graphs()
    assert len(graphs) == 840
    for g in graphs:
        assert sorted(transfer_order(g)) == list(range(g.n))
        assert max(active_counts(g)) <= 3, g.edges


def test_order_keeps_the_sparse_16_vertex_graph_narrow():
    # the seeded 16-vertex 60-edge graph below: width 10 when score ties
    # went straight to the fewest unentered neighbors
    assert max(active_counts(sparse_16_vertex_graph())) <= 9


def scored_frontier_order(g: Graph) -> list[int]:
    """The transfer's order as a plain scan, `min` over the frontier at
    every step, each score recounted: the order that the walk's heap of
    scores must equal."""
    adj = g.adjacency
    left = [len(a) for a in adj]
    roots = iter(sorted(range(g.n), key=left.__getitem__))
    entered = [False] * g.n
    frontier: set[int] = set()
    order: list[int] = []

    def score(x: int) -> tuple[int, int, int, int]:
        retired = sum(entered[u] and left[u] == 1 for u in adj[x])
        return (left[x] > 0) - retired, left[x] - len(adj[x]), left[x], x

    for _ in range(g.n):
        v = min(frontier, key=score) if frontier else next(r for r in roots if not entered[r])
        entered[v] = True
        order.append(v)
        frontier.discard(v)
        for u in adj[v]:
            left[u] -= 1
            if not entered[u]:
                frontier.add(u)
    return order


def star(leaves: int) -> Graph:
    edges = tuple((0, i) for i in range(1, leaves + 1))
    return Graph(tuple(f"s{i:03d}" for i in range(leaves + 1)), edges)


def broom(handle: int, leaves: int) -> Graph:
    """A path of `handle` edges, `leaves` leaves on its last vertex."""
    edges = [(i, i + 1) for i in range(handle)]
    edges += [(handle, handle + 1 + i) for i in range(leaves)]
    return Graph(tuple(f"b{i:03d}" for i in range(handle + leaves + 1)), tuple(edges))


def path(n: int) -> Graph:
    return Graph(tuple(f"p{i:03d}" for i in range(n)), tuple((i, i + 1) for i in range(n - 1)))


def with_isolated(g: Graph, extra: int) -> Graph:
    return Graph(g.vertices + tuple(f"z{i:03d}" for i in range(extra)), g.edges)


def test_a_lone_frontier_vertex_is_taken_in_the_same_order():
    # the order keeps each vertex's retired count as it goes; stars,
    # brooms and paths enter many vertices with exactly one unentered
    # neighbor, the steps that count rises on
    rng = random.Random(2024)
    graphs = theta_identity_graphs()
    graphs += [random_graph(rng, rng.randint(1, 14), 24) for _ in range(300)]
    graphs += [relabeled(g, rng) for g in graphs[-100:]]
    shapes = [star(k) for k in (1, 2, 5, 30)] + [path(n) for n in (1, 2, 3, 17)]
    shapes += [broom(h, k) for h in (1, 2, 6) for k in (1, 3, 12)]
    shapes += [with_isolated(g, 3) for g in shapes[::3]] + [with_isolated(path(0), 4)]
    graphs += shapes + [relabeled(g, rng) for g in shapes for _ in range(3)]
    for g in graphs:
        assert transfer_order(g) == scored_frontier_order(g), g.edges


def reference_transfer_steps(g: Graph) -> list[tuple[int, tuple[int, ...], tuple[int, ...], bool]]:
    """The step table as a second pass over the order, as it was built
    before the order's own walk recorded it: a vertex is active from its
    entry step until the step its last neighbor enters.  (A lone frontier
    vertex is its own `min`, so `scored_frontier_order` is that order.)"""
    adj = g.adjacency
    order = scored_frontier_order(g)
    step = {v: i for i, v in enumerate(order)}
    last = [max((step[u] for u in adj[v]), default=-1) for v in range(g.n)]
    active: list[int] = []
    steps = []
    for i, v in enumerate(order):
        near = tuple(k for k, u in enumerate(active) if u in adj[v])
        keep = tuple(k for k, u in enumerate(active) if last[u] > i)
        stays = last[v] > i
        active = [active[k] for k in keep] + [v] * stays
        steps.append((v, near, keep, stays))
    return steps


def test_one_pass_step_table_matches_the_two_pass_reference():
    rng = random.Random(1240)
    graphs = theta_identity_graphs()
    graphs += [random_graph(rng, rng.randint(1, 12), 24) for _ in range(200)]
    for _ in range(200):  # dense draws, where many vertices stay active
        n, p = rng.randint(1, 12), rng.uniform(0.2, 0.9)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        graphs.append(Graph(tuple(f"d{i}" for i in range(n)), tuple(pairs)))
    assert len(graphs) == 1240
    for g in graphs:
        assert chromatic._transfer_steps(g) == reference_transfer_steps(g), g.edges


def test_a_star_of_7000_precolored_leaves_answers():
    # the walk has no budget of its own: a transfer whose fixed colors keep
    # it to one state per step answers however large its frontier grows
    g = star(7000)
    pc = Precoloring({name: 1 for name in g.vertices[1:]}, g.n)
    assert precolored_polynomial(g, pc) == M - 1


def test_the_walk_spends_none_of_the_transfer_budget(monkeypatch):
    # a 20,000-leaf broom: the leaves sit on the frontier together
    monkeypatch.setattr(chromatic, "CHROMATIC_WORK_LIMIT", 1)
    assert len(chromatic._transfer_steps(broom(1, 20_000))) == 20_002


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """The same graph, names kept, its vertices renumbered at random."""
    new = list(range(g.n))
    rng.shuffle(new)
    vertices = [""] * g.n
    for v, name in enumerate(g.vertices):
        vertices[new[v]] = name
    edges = sorted((min(new[a], new[b]), max(new[a], new[b])) for a, b in g.edges)
    return Graph(tuple(vertices), tuple(edges))


def test_polynomials_do_not_depend_on_the_labelling():
    rng = random.Random(1313)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 10), 14)
        assignment = {v: rng.randint(1, 3) for v in g.vertices if rng.random() < 0.4}
        pc = Precoloring(assignment, g.n + 1)
        poly, pre = chromatic_polynomial(g), precolored_polynomial(g, pc)
        for _ in range(3):
            h = relabeled(g, rng)
            assert chromatic_polynomial(h) == poly, (g.edges, h.edges)
            assert precolored_polynomial(h, pc) == pre, (g.edges, h.edges, assignment)


def cycle(n: int) -> Graph:
    return Graph(tuple(f"c{i:04d}" for i in range(n)), tuple((i, (i + 1) % n) for i in range(n)))


def grid(rows: int, cols: int, by_rows: bool = True) -> Graph:
    """The rows x cols grid, its vertices numbered row by row or column by column."""
    number = (lambda r, c: r * cols + c) if by_rows else (lambda r, c: c * rows + r)
    edges = [(number(r, c), number(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(number(r, c), number(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph(tuple(f"g{i:03d}" for i in range(rows * cols)), tuple(edges))


def test_cycles_against_their_closed_form():
    for n in (3, 4, 5, 12, 31, 200):
        assert chromatic_polynomial(cycle(n)) == (M - 1) ** n + (-1) ** n * (M - 1), n


def test_grid_polynomial_does_not_depend_on_the_labelling():
    by_rows = chromatic_polynomial(grid(4, 30))
    assert by_rows == chromatic_polynomial(grid(4, 30, by_rows=False))
    assert by_rows(2) == 2  # a connected bipartite graph


def sparse_16_vertex_graph() -> Graph:
    rng = random.Random(16)
    pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    return Graph(tuple(f"v{i:02d}" for i in range(16)), tuple(sorted(rng.sample(pairs, 60))))


def test_sparse_16_vertex_graph_against_the_feedback_set_counter(tmp_path, capsys):
    g = sparse_16_vertex_graph()
    path = tmp_path / "sparse.txt"
    path.write_text(to_text(g))
    assert main(["chrom", str(path), "--format", "json"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["polynomial"]["coefficients"]
    poly = IntPoly(int(c) for c in coeffs)
    for m in range(1, 6):
        assert poly(m) == count_colorings(g, identity_cover(g, m)), m


def test_wide_grid_is_refused_by_the_work_limit(tmp_path, capsys):
    path = tmp_path / "grid10.txt"
    path.write_text(to_text(grid(10, 10)))
    assert main(["chrom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("dpchroma: search budget exceeded: ")
    assert f"CHROMATIC_WORK_LIMIT = {CHROMATIC_WORK_LIMIT:,}" in err
