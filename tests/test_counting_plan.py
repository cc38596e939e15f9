"""The counting plan behind `min_over_covers`.

Each search chunk counts every candidate through the one plan built for
its graph, Theta graph or not: conditioning on the feedback set, with a
row table per fold.
These tests compare the search with a plain loop that calls
`count_from_edge_perms` on every candidate (so the orderly conjugacy level,
which counts one cover per orbit, must return the plain loop's first
minimum), pin new grid values, and check that the process pool never
asks for more workers than there are chunks and is left at the first chunk
that reaches the proven lower bound.
"""

import multiprocessing
from itertools import permutations, product
from pathlib import Path

import pytest

from dpchroma.analysis import fvs1_dp_polynomial
from dpchroma.covers import (
    FullCover,
    count_from_edge_perms,
    cover_to_json,
    cycle_type_representatives,
    identity_perm,
    min_over_covers,
)
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

from oracles import transversal_count

LEVELS = ("none", "tree-canonical", "tree-canonical+conjugacy")
BOWTIE = Graph.from_text((Path(__file__).parent / "golden" / "bowtie.txt").read_text())
C5 = Graph(tuple("abcde"), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
K4 = Graph(tuple("abcd"), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
# "none" puts a permutation on every edge: (m!)^|E| candidates, so that
# level runs only on graphs with at most six edges.
NONE_LEVEL_MAX_EDGES = 6


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(tuple(lengths)))


GRID = [
    theta(a, b, c) for a in range(2, 5) for b in range(a, 5) for c in range(b, 5)
]


def reference_search(g, m, symmetry):
    """Every candidate in the search's enumeration order, each counted by a
    fresh `count_from_edge_perms` call; the first strict minimum wins."""
    if symmetry == "none":
        free = list(range(len(g.edges)))
    else:
        free = sorted(set(range(len(g.edges))) - g.standard_tree)
    options = list(permutations(range(m)))
    first = cycle_type_representatives(m) if symmetry == LEVELS[2] else options
    best = None
    for assignment in product(first, *[options] * (len(free) - 1)):
        perms = [identity_perm(m)] * len(g.edges)
        for e, p in zip(free, assignment):
            perms[e] = p
        value = count_from_edge_perms(g, m, perms)
        if best is None or value < best[0]:
            best = (value, assignment)
    witness = FullCover.from_edge_perms(g, m, dict(zip(free, best[1])))
    return best[0], cover_to_json(witness)


@pytest.mark.parametrize(
    "g",
    GRID + [theta(1, 2, 2), theta(2, 2, 2, 2), BOWTIE, C5, K4],
    ids=[str(g.theta) for g in GRID] + ["theta:1,2,2", "theta:2,2,2,2", "bowtie", "c5", "k4"],
)
def test_search_matches_a_plain_loop_over_count_from_edge_perms(g):
    m = 3
    for symmetry in LEVELS:
        if symmetry == "none" and len(g.edges) > NONE_LEVEL_MAX_EDGES:
            continue
        result = min_over_covers(g, m, symmetry=symmetry, workers=1)
        want_value, want_witness = reference_search(g, m, symmetry)
        assert result.value == want_value
        assert cover_to_json(result.cover) == want_witness


@pytest.mark.parametrize(
    "g", [BOWTIE, K4, theta(2, 2, 2, 2)], ids=["bowtie", "k4", "theta:2,2,2,2"]
)
def test_orderly_search_matches_a_plain_loop_at_fold_4(g):
    result = min_over_covers(g, 4, workers=1)
    want_value, want_witness = reference_search(g, 4, LEVELS[2])
    assert result.value == want_value
    assert cover_to_json(result.cover) == want_witness


def test_theta_2222_at_fold_5():
    g = theta(2, 2, 2, 2)
    result = min_over_covers(g, 5, workers=1)
    assert result.value == 2565
    assert transversal_count(g, 5, result.cover.edge_perms()) == 2565


def test_k4_at_fold_5():
    result = min_over_covers(K4, 5, workers=1)
    assert result.value == 120
    assert transversal_count(K4, 5, result.cover.edge_perms()) == 120


def test_bowtie_at_fold_6_equals_the_fvs1_polynomial():
    result = min_over_covers(BOWTIE, 6, workers=1)
    assert result.value == 2400 == fvs1_dp_polynomial(BOWTIE).dp_polynomial(6)


def fake_pool(monkeypatch) -> list:
    """Replace `multiprocessing.Pool` with an in-process pool whose `imap`
    is lazy; each pool made is appended to the returned list, with the
    workers it was asked for, the prefix of every chunk it evaluated and
    whether its `with` block was left."""
    pools = []

    class SerialPool:
        def __init__(self, processes):
            self.processes, self.evaluated, self.left = processes, [], False
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.left = True
            return False

        def imap(self, fn, args):
            for a in args:
                self.evaluated.append(a[3])
                yield fn(a)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return pools


def test_pool_is_capped_at_the_number_of_chunks(monkeypatch):
    pools = fake_pool(monkeypatch)
    g = theta(2, 2, 2)
    result = min_over_covers(g, 3, workers=5000)
    # one chunk per cycle type of a 3-permutation
    assert [pool.processes for pool in pools] == [3]
    serial = min_over_covers(g, 3, workers=1)
    assert result.value == serial.value
    assert cover_to_json(result.cover) == cover_to_json(serial.cover)


def test_a_pool_is_left_at_the_first_chunk_that_reaches_the_bound(monkeypatch):
    """K4 at m = 5 meets `dp_lower_bound` in its first chunk, so the pool's
    ordered map is read no further and the chunks after it never run."""
    pools = fake_pool(monkeypatch)
    result = min_over_covers(K4, 5, workers=2)
    [pool] = pools
    assert pool.evaluated == [(cycle_type_representatives(5)[0],)]
    assert pool.left
    serial = min_over_covers(K4, 5, workers=1)
    assert result.value == serial.value == 120
    assert cover_to_json(result.cover) == cover_to_json(serial.cover)
