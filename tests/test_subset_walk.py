"""`covers.subset_walk` against its per-subset oracles, and the verify
suites that read its tables.

The walk gives the component count and the agreement count of every edge
subset: the component counts from one cover-free pass per graph, and the
agreements of the subsets holding a cycle from one undoable union-find walk
per cover (a forest agrees on m^c colorings whatever the twists);
`graphs.component_count` and the oracle `subset_agreement_count` answer one
subset each from a fresh forest pass.  Every mask is compared on seeded
random graphs (isolated vertices, several components, forests) and on Theta
graphs, K4 and the bowtie, at folds 1-4, with identity and random full
covers.  A forest at the edge limit is walked with no permutation composed,
and the subset audit builds its graph's component table once and
enumerates no cycles.
"""

import random
import sys

import pytest

import dpchroma.covers as covers
from dpchroma.cli import main
from dpchroma.covers import (
    SUBSET_EDGE_LIMIT,
    FullCover,
    identity_cover,
    random_cover,
    subset_walk,
)
from dpchroma.errors import CoverMismatch, GraphTooLarge
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta, component_count

from oracles import subset_agreement_count

ABCDE = ("a", "b", "c", "d", "e")
NAMED = [
    build_generalized_theta(ThetaSpec((2, 2, 2))),
    build_generalized_theta(ThetaSpec((1, 2, 3))),
    build_generalized_theta(ThetaSpec((2, 3, 3))),
    Graph(ABCDE[:4], ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),  # K4
    Graph(ABCDE, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),  # bowtie
    Graph(ABCDE, ((0, 1), (1, 2), (3, 4))),  # forest of two paths
    Graph(ABCDE, ((1, 2), (2, 3), (1, 3))),  # triangle and two isolated vertices
]


def random_graph(rng: random.Random) -> Graph:
    """Up to 7 vertices and 9 edges; sparse draws leave isolated vertices
    and several components."""
    n = rng.randint(1, 7)
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    p = rng.choice((0.2, 0.4, 0.7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    return Graph(tuple(labels), tuple(pairs[:9]))


def assert_walk_matches_oracles(cover: FullCover):
    g = cover.graph
    components, agreements = subset_walk(cover)
    assert len(components) == len(agreements) == 1 << len(g.edges)
    for mask in range(1 << len(g.edges)):
        assert components[mask] == component_count(g, mask)
        assert agreements[mask] == subset_agreement_count(cover, mask)


def test_walk_matches_the_per_subset_routes_on_named_graphs():
    rng = random.Random(12)
    for g in NAMED:
        for m in range(1, 5):
            assert_walk_matches_oracles(identity_cover(g, m))
            assert_walk_matches_oracles(random_cover(g, m, rng))


def test_walk_matches_the_per_subset_routes_on_random_graphs():
    rng = random.Random(2020)
    for _ in range(40):
        g = random_graph(rng)
        m = rng.randint(1, 4)
        assert_walk_matches_oracles(random_cover(g, m, rng))


def test_walk_refuses_too_many_edges_before_walking(monkeypatch):
    path = Graph(
        tuple(f"p{i:02d}" for i in range(22)), tuple((i, i + 1) for i in range(21))
    )
    assert len(path.edges) == SUBSET_EDGE_LIMIT + 1
    cover = identity_cover(path, 2)

    def no_walk(self):
        raise AssertionError("the walk started")

    monkeypatch.setattr(FullCover, "edge_perms", no_walk)
    with pytest.raises(GraphTooLarge, match="21 edges exceed SUBSET_EDGE_LIMIT = 20"):
        subset_walk(cover)


def test_forest_at_the_limit_composes_no_permutation(monkeypatch):
    path = Graph(
        tuple(f"p{i:02d}" for i in range(21)), tuple((i, i + 1) for i in range(20))
    )
    assert len(path.edges) == SUBSET_EDGE_LIMIT
    cover = random_cover(path, 3, random.Random(5))

    def no_perms(*args):
        raise AssertionError("a permutation was composed")

    patch_everywhere(monkeypatch, "compose", no_perms)
    patch_everywhere(monkeypatch, "invert_perm", no_perms)
    components, agreements = subset_walk(cover)
    assert components == [21 - mask.bit_count() for mask in range(1 << 20)]
    assert agreements == [3**c for c in components]


def test_walk_refuses_non_full_covers():
    """A non-full cover never reaches the walk: `FullCover` refuses it."""
    g = NAMED[0]
    with pytest.raises(CoverMismatch):
        subset_walk(FullCover(g, 2, {1: (1, None), 2: (0, 1)}))


def patch_everywhere(monkeypatch, attr: str, replacement):
    """Replace `attr` in every dpchroma module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "dpchroma" or name.startswith("dpchroma."):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("suite", ["inclusion-exclusion", "subset-audit"])
def test_subset_suites_take_no_per_subset_route(monkeypatch, capsys, suite):
    def per_subset(*args):
        raise AssertionError("per-subset route")

    # the per-subset agreement route lives only in the test oracles
    patch_everywhere(monkeypatch, "component_count", per_subset)
    assert main(["verify", "--suite", suite]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_subset_audit_enumerates_no_cycles(monkeypatch, capsys):
    def enumerate_cycles(*args):
        raise AssertionError("cycle enumeration")

    # the audit reads each subset's cycles from the Theta paths it holds whole
    patch_everywhere(monkeypatch, "subset_cycle_lengths", enumerate_cycles)
    assert main(["verify", "--suite", "subset-audit"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_subset_audit_builds_the_component_table_once(monkeypatch, capsys):
    tables, walks = [], []
    build, walk = covers._subset_components, covers.subset_walk

    def counting_build(g):
        tables.append(g)
        return build(g)

    def counting_walk(cover):
        walks.append(cover)
        return walk(cover)

    monkeypatch.setattr(covers, "_subset_components", counting_build)
    patch_everywhere(monkeypatch, "subset_walk", counting_walk)
    assert main(["verify", "--suite", "subset-audit"]) == 0
    capsys.readouterr()
    # The 18 audited covers of theta:2,3,3 share one graph and one table.
    assert len(walks) == 18
    assert len(tables) == 1 and tables[0] is walks[0].graph
