"""The product lower bound `dp_lower_bound` and the search's stop at it.

L(G, m) is at most P_DP(G, m), found by a search that never stops early,
on every graph with a cycle on 3 to 5 vertices (up to isomorphism) at
m = 2, 3 and on seeded 6-vertex graphs at m = 3, and equals it on every
graph with a one-vertex feedback set.  The bound reads every canonical key
with at most m classes.  The search that stops at its first count equal
to L returns the value, the witness and the candidate count of the search
that never stops, and a real process pool returns what one worker does.
"""

import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from dpchroma.covers import (
    _canonical,
    _growth_string_count,
    _growth_strings,
    cover_to_json,
    dp_lower_bound,
    min_over_covers,
)
from dpchroma.errors import SearchBudgetExceeded
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

from oracles import unpruned

GOLDEN = Path(__file__).parent / "golden"
BOWTIE = Graph.from_text((GOLDEN / "bowtie.txt").read_text())
K4 = Graph.from_text((GOLDEN / "k4.txt").read_text())
TRIANGLE = Graph(tuple("abc"), ((0, 1), (1, 2), (0, 2)))
C5 = Graph(tuple("abcde"), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
K33 = Graph(tuple("abcxyz"), tuple((a, b) for a in range(3) for b in range(3, 6)))
PRISM = Graph(tuple("abcxyz"), ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def theta(*lengths: int) -> Graph:
    return build_generalized_theta(ThetaSpec(lengths))


def graphs_with_a_cycle(n: int) -> list[Graph]:
    """One graph per isomorphism class on n vertices that is not a forest."""
    pairs = list(combinations(range(n), 2))
    relabelings = list(permutations(range(n)))
    seen, found = set(), []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        form = min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in relabelings)
        if form in seen:
            continue
        seen.add(form)
        g = Graph(tuple(f"v{i}" for i in range(n)), tuple(edges))
        if not g.is_forest():
            found.append(g)
    return found


def test_the_bound_reads_every_canonical_key_and_counts_them():
    """The keys `least_keys` reads are the canonical keys with at most m
    classes, and the cost guard counts them without listing them."""
    for k in range(6):
        for m in range(0, 7):
            keys = sorted({_canonical(key) for key in product(range(m), repeat=k)})
            assert list(_growth_strings(k, m)) == keys
            assert _growth_string_count(k, m) == len(keys)


@pytest.fixture
def unstopped(monkeypatch):
    """The search with its stop out of reach and no pruning
    (`oracles.unpruned`), so that it checks `dp_lower_bound` rather than
    relies on it."""
    unpruned(monkeypatch)


def test_the_bound_is_below_the_search_and_exact_with_one_feedback_vertex(unstopped):
    checked = exact = 0
    for n in (3, 4, 5):
        for g in graphs_with_a_cycle(n):
            for m in (2, 3):
                bound, value = dp_lower_bound(g, m), min_over_covers(g, m, workers=1).value
                assert bound <= value, (g, m)
                if len(g.feedback_set) == 1:
                    assert bound == value, (g, m)
                    exact += 1
                checked += 1
    # 1 + 5 + 24 classes with a cycle, 22 of them with one feedback vertex
    assert (checked, exact) == (60, 44)


def test_the_bound_is_below_the_search_on_seeded_six_vertex_graphs(unstopped):
    """Eight graphs with at least two feedback vertices, where the bound
    can be loose."""
    rng = random.Random(26)
    searched = 0
    while searched < 8:
        pairs = [p for p in combinations(range(6), 2) if rng.random() < 0.6]
        g = Graph(tuple(f"v{i}" for i in range(6)), tuple(pairs))
        if len(g.feedback_set) < 2:
            continue
        try:
            value = min_over_covers(g, 3, budget=200_000, workers=1).value
        except SearchBudgetExceeded:
            continue
        assert dp_lower_bound(g, 3) <= value, g
        searched += 1


GRID = [theta(a, b, c) for a in range(2, 5) for b in range(a, 5) for c in range(b, 5)]
NAMED = {"triangle": TRIANGLE, "c5": C5, "bowtie": BOWTIE, "k4": K4, "k33": K33, "prism": PRISM}
SEARCHES = [(g, m) for g in GRID for m in (3, 4)]
SEARCHES += [(theta(2, 2, 2), 5), (theta(2, 2, 2), 6), (theta(2, 2, 2, 2), 4)]
SEARCHES += [(NAMED[name], m) for name in ("triangle", "c5", "bowtie") for m in range(3, 7)]
SEARCHES += [(NAMED[name], m) for name in ("k4", "k33", "prism") for m in (3, 4)]


def search_id(g: Graph, m: int) -> str:
    name = str(g.theta) if g.theta else next(k for k, v in NAMED.items() if v is g)
    return f"{name}-{m}"


def outcome(g: Graph, m: int, workers: int = 1) -> tuple:
    result = min_over_covers(g, m, workers=workers)
    return result.value, cover_to_json(result.cover), result.candidates


@pytest.mark.parametrize("g, m", SEARCHES, ids=[search_id(g, m) for g, m in SEARCHES])
def test_the_stopped_search_returns_what_the_full_search_does(monkeypatch, g, m):
    """The twist-search graphs of the benchmark, K_{3,3} and the prism."""
    stopped = outcome(g, m)
    unpruned(monkeypatch)
    assert outcome(g, m) == stopped


def test_a_process_pool_stops_where_one_worker_does():
    """K4 at m = 5: the first chunk reaches the bound, and every pooled
    chunk stops on its own."""
    assert outcome(K4, 5, workers=2) == outcome(K4, 5, workers=1)
