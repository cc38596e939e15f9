"""Random-oracle tests for the one transversal counter.

`count_from_edge_perms` counts transversals of a cover, optionally with a
0/1 vector of allowed colors per vertex; `precolored_count` is that
counter on the identity cover with one-hot vectors.  Forests, one-vertex
feedback sets and larger ones (K4) are checked here against plain
enumeration on random inputs, including conflicting precolorings.
"""

import random
from pathlib import Path

import pytest

import dpchroma.cli as cli
from dpchroma import covers
from dpchroma.chromatic import Precoloring, precolored_count
from dpchroma.covers import (
    BRUTE_FORCE_LIMIT,
    _canonical,
    count_from_edge_perms,
    identity_cover,
    identity_perm,
    worker_count,
)
from dpchroma.errors import CoverMismatch, GraphTooLarge, OutOfRange
from dpchroma.graphs import (
    FeedbackVertex,
    Graph,
    ThetaSpec,
    build_generalized_theta,
    find_feedback_vertex,
)

from oracles import cover_count_by_subsets, transversal_count

BOWTIE = Path(__file__).parent / "golden" / "bowtie.txt"


def precolored_by_enumeration(g: Graph, pc: Precoloring, m: int) -> int:
    """Transversals of the identity cover, each precolored vertex allowed
    its color alone (none when the color is above m)."""
    allowed = [[1] * m for _ in g.vertices]
    for v, c in pc.assignment.items():
        allowed[g.index[v]] = [int(i == c - 1) for i in range(m)]
    return transversal_count(g, m, [tuple(range(m))] * len(g.edges), allowed)


def random_forest(rng: random.Random, n: int) -> Graph:
    edges = tuple((rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8)
    return Graph(tuple(f"t{i}" for i in range(n)), edges)


def random_fvs1(rng: random.Random, n: int) -> Graph:
    """A hub joined to at least two vertices of a random tree."""
    tree = [(rng.randint(1, v - 1), v) for v in range(2, n)]
    hub = [(0, v) for v in rng.sample(range(1, n), rng.randint(2, n - 1))]
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(tree + hub))


def complete(n: int) -> Graph:
    return Graph(
        tuple(f"k{i}" for i in range(n)),
        tuple((a, b) for a in range(n) for b in range(a + 1, n)),
    )


def random_precoloring(rng: random.Random, g: Graph, m: int) -> Precoloring:
    # Few colors relative to the vertices, so adjacent conflicts are common.
    bound = g.n + rng.randint(0, 1)
    domain = [v for v in g.vertices if rng.random() < 0.5]
    return Precoloring({v: rng.randint(1, min(m + 1, bound)) for v in domain}, bound)


def random_perm(rng: random.Random, m: int):
    return tuple(rng.sample(range(m), m))


def test_precolored_count_matches_enumeration_on_random_forests():
    rng = random.Random(101)
    for _ in range(40):
        g = random_forest(rng, rng.randint(1, 6))
        m = rng.randint(1, 4)
        pc = random_precoloring(rng, g, m)
        assert precolored_count(g, pc, m) == precolored_by_enumeration(g, pc, m)


def test_precolored_count_matches_enumeration_on_random_fvs1_graphs():
    rng = random.Random(202)
    for _ in range(40):
        g = random_fvs1(rng, rng.randint(3, 6))
        assert isinstance(find_feedback_vertex(g), str)
        m = rng.randint(1, 4)
        pc = random_precoloring(rng, g, m)
        assert precolored_count(g, pc, m) == precolored_by_enumeration(g, pc, m)


def test_precolored_count_on_theta_skips_the_transfer_route():
    g = build_generalized_theta(ThetaSpec((2, 2, 3)))
    rng = random.Random(303)
    for _ in range(10):
        m = rng.randint(2, 3)
        pc = random_precoloring(rng, g, m)
        assert precolored_count(g, pc, m) == precolored_by_enumeration(g, pc, m)


def test_precolored_count_brute_force_route_on_k4():
    g = complete(4)
    assert find_feedback_vertex(g) is FeedbackVertex.NOT_SIZE_ONE
    rng = random.Random(404)
    cases = [Precoloring({}, 4), Precoloring({"k0": 1, "k1": 1}, 4)]  # free, conflicting
    cases += [random_precoloring(rng, g, 4) for _ in range(12)]
    for pc in cases:
        for m in (3, 4, 5):
            assert precolored_count(g, pc, m) == precolored_by_enumeration(g, pc, m)


def test_precolored_vertices_isolated_or_in_the_feedback_set():
    """A precolored vertex joins the plan's slots: an isolated one has no
    edge out of them and still takes its one color, and one already in S
    keeps its slot."""
    lone = Graph(("a", "b", "c", "z"), ((0, 1), (1, 2)))
    k4 = complete(4)
    assert k4.feedback_set
    inside = k4.vertices[k4.feedback_set[0]]
    rng = random.Random(808)
    for g, pcs in (
        (lone, [{"z": 2}, {"z": 1, "a": 1}, {"z": 3, "b": 3}]),
        (k4, [{inside: 1}, {inside: 2, "k3": 1}, {inside: 1, "k3": 1}]),
    ):
        for assignment in pcs:
            pc = Precoloring(assignment, 4)
            for m in (3, 4, 5):
                assert precolored_count(g, pc, m) == precolored_by_enumeration(g, pc, m), (g, pc, m)
                perms = [random_perm(rng, m) for _ in g.edges]
                allowed = [[1] * m for _ in g.vertices]
                for v, c in assignment.items():
                    allowed[g.index[v]] = [int(i == c - 1) for i in range(m)]
                want = transversal_count(g, m, perms, allowed)
                assert count_from_edge_perms(g, m, perms, allowed) == want


def test_precolored_k5_at_a_large_fold_reads_the_row_table():
    """K5 with k0 precolored conditions on S and k0: 60^3 rows of four
    blocked colors each, built as at most Bell(4) = 15 canonical rows."""
    g = complete(5)
    assert precolored_count(g, Precoloring({"k0": 1}, 5), 60) == 10_923_024 == 59 * 58 * 57 * 56
    (plan,) = [p for key, p in g._plans.items() if key[0] is covers._FeedbackPlan]
    assert set(plan.slots) == set(range(5)) - {4} and len(plan.outer) == 4
    rows = plan.tables[60][0]
    assert 0 < sum(key == _canonical(key) for key in rows) <= 15


def test_malformed_allowed_vectors_are_refused():
    """One 0/1 vector of length m per vertex, or `CoverMismatch`: a longer
    vector, an entry other than 0 and 1, or too few vectors were counted
    (18 and 24 on the triangle at m = 3, whose count is 6) or failed with
    `IndexError`."""
    g = complete(3)
    perms = [identity_perm(3)] * 3
    assert count_from_edge_perms(g, 3, perms, [[1, 1, 1]] * 3) == 6
    for allowed in ([[1] * 4] * 3, [[2, 2, 2]] * 3, [[1] * 3] * 2, [[1] * 3] * 4, [], [[1, 0]] * 3):
        with pytest.raises(CoverMismatch):
            count_from_edge_perms(g, 3, perms, allowed)


def test_conflicting_precolorings_count_zero():
    rng = random.Random(505)
    for _ in range(20):
        g = random_fvs1(rng, rng.randint(3, 6))
        a, b = g.edge_labels(rng.randrange(len(g.edges)))
        pc = Precoloring({a: 2, b: 2}, g.n)
        assert precolored_count(g, pc, 4) == 0


def test_non_full_covers_on_forests_are_refused():
    """A matching that leaves a fiber vertex unmatched is refused: P_DP is
    a minimum over full covers, so the counter takes full covers alone."""
    rng = random.Random(606)
    forests = [random_forest(rng, rng.randint(2, 6)) for _ in range(40)]
    forests = [g for g in forests if g.edges]
    assert len(forests) >= 30
    for g in forests:
        m = rng.randint(1, 4)
        perms = [random_perm(rng, m) for _ in g.edges]
        e, j = rng.randrange(len(g.edges)), rng.randrange(m)
        perms[e] = perms[e][:j] + (None,) + perms[e][j + 1 :]
        with pytest.raises(CoverMismatch):
            count_from_edge_perms(g, m, perms)


def test_counts_refuse_twists_that_are_not_permutations_of_the_fold():
    g = build_generalized_theta(ThetaSpec((2, 2, 2)))
    ident = [identity_perm(4)] * len(g.edges)
    assert count_from_edge_perms(g, 4, ident) == 204
    for m, twist in ((4, (0, 1, 2)), (3, (0, 0, 1)), (3, (0, 1, None)), (3, (0, 1, 3))):
        with pytest.raises(CoverMismatch):
            count_from_edge_perms(g, m, [twist] * len(g.edges))
        with pytest.raises(CoverMismatch):
            count_from_edge_perms(g, m, [twist] * len(g.edges), [[1] * m] * g.n)
    with pytest.raises(CoverMismatch):
        count_from_edge_perms(g, 3, [identity_perm(3)] * (len(g.edges) - 1))


def test_allowed_vectors_on_every_route():
    rng = random.Random(707)
    graphs = [complete(4), build_generalized_theta(ThetaSpec((2, 2, 2)))]
    graphs += [random_forest(rng, 5) for _ in range(3)]
    graphs += [random_fvs1(rng, 5) for _ in range(3)]
    for g in graphs:
        for _ in range(4):
            m = rng.randint(1, 4)
            perms = [random_perm(rng, m) for _ in g.edges]
            allowed = [[int(rng.random() < 0.7) for _ in range(m)] for _ in g.vertices]
            want = transversal_count(g, m, perms, allowed)
            assert count_from_edge_perms(g, m, perms, allowed) == want


def test_one_brute_force_limit():
    g = complete(5)
    assert BRUTE_FORCE_LIMIT == 4_000_000
    # The limit bounds the m^|S| rows of the feedback-set conditioning.
    size = len(g.feedback_set)
    over = next(m for m in range(2, 1000) if m**size > BRUTE_FORCE_LIMIT)
    assert (size, over) == (3, 159)
    perms = [identity_perm(over)] * len(g.edges)
    with pytest.raises(GraphTooLarge, match="BRUTE_FORCE_LIMIT = 4,000,000"):
        count_from_edge_perms(g, over, perms)
    with pytest.raises(GraphTooLarge, match="BRUTE_FORCE_LIMIT"):
        precolored_count(g, Precoloring({"k0": 1}, 5), over)


def test_cover_subset_sum_edge_limit():
    big = Graph(tuple(f"p{i}" for i in range(22)), tuple((i, i + 1) for i in range(21)))
    with pytest.raises(GraphTooLarge, match="21 edges exceed SUBSET_EDGE_LIMIT = 20"):
        cover_count_by_subsets(identity_cover(big, 2))


def test_worker_count_precedence(monkeypatch):
    monkeypatch.delenv("DPCHROMA_WORKERS", raising=False)
    assert worker_count() == 1
    assert worker_count(None) == 1
    assert worker_count(3) == 3
    monkeypatch.setenv("DPCHROMA_WORKERS", "2")
    assert worker_count(3) == 2
    assert worker_count() == 2
    monkeypatch.setenv("DPCHROMA_WORKERS", "-4")  # the variable is clamped to 1
    assert worker_count(3) == 1
    monkeypatch.setenv("DPCHROMA_WORKERS", "")  # empty counts as unset
    assert worker_count(3) == 3
    for flag in (0, -3):
        with pytest.raises(OutOfRange, match=f"--workers must be positive, not {flag}"):
            worker_count(flag)
    for env in ("abc", "1.5"):
        monkeypatch.setenv("DPCHROMA_WORKERS", env)
        with pytest.raises(OutOfRange, match="DPCHROMA_WORKERS must be an integer"):
            worker_count()


def test_compare_computes_the_fvs1_polynomial_once(monkeypatch, capsys):
    calls = []
    original = cli.fvs1_dp_polynomial

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(cli, "fvs1_dp_polynomial", counting)
    assert cli.main(["compare", str(BOWTIE), "--m", "2..8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert len(calls) == 1
