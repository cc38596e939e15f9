"""The orderly twist search behind the conjugacy level of `min_over_covers`.

At that level each free edge takes one twist per orbit of the
permutations that commute with every earlier twist, so the search counts
one cover per conjugacy orbit.  These tests check the centraliser it is
built from, pin how many covers it counts, check that the two unpruned
levels still count every cover, and check that a graph with at most one
cotree edge never enumerates all m! permutations.
"""

from itertools import permutations
from pathlib import Path

import pytest

from dpchroma import covers
from dpchroma.analysis import fvs1_dp_polynomial
from dpchroma.covers import _centralizer, compose, min_over_covers
from dpchroma.errors import SearchBudgetExceeded
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

GOLDEN = Path(__file__).parent / "golden"
BOWTIE = Graph.from_text((GOLDEN / "bowtie.txt").read_text())
TREE = Graph.from_text((GOLDEN / "tree.txt").read_text())
K4 = Graph.from_text((GOLDEN / "k4.txt").read_text())
C5 = Graph(tuple("abcde"), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
TRIANGLE = Graph(tuple("abc"), ((0, 1), (1, 2), (0, 2)))


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(tuple(lengths)))


@pytest.fixture
def plan_counts(monkeypatch):
    """Number of covers counted through either counting plan."""
    calls = [0]
    for plan in (covers._ThetaPlan, covers._FeedbackPlan):
        def count(self, perms, *fold, original=plan.count):
            calls[0] += 1
            return original(self, perms, *fold)

        monkeypatch.setattr(plan, "count", count)
    return calls


@pytest.mark.parametrize("m", range(1, 7))
def test_centralizer_is_every_commuting_permutation(m):
    everything = list(permutations(range(m)))
    for f in everything:
        commuting = [
            t for t in everything
            if tuple(t[x] for x in f) == tuple(f[x] for x in t)
        ]
        pairs = _centralizer(f)
        assert sorted(tau for tau, _ in pairs) == commuting
        assert all(compose(tau, inv) == tuple(range(m)) for tau, inv in pairs)


@pytest.mark.parametrize(
    "g, m, candidates, counted",
    [
        (BOWTIE, 6, 11 * 720, 901),
        (theta(2, 2, 2), 6, 11 * 720, 901),
        (K4, 4, 5 * 24 * 24, 681),
    ],
    ids=["bowtie-6", "theta:2,2,2-6", "k4-4"],
)
def test_conjugacy_level_counts_one_cover_per_orbit(
    plan_counts, g, m, candidates, counted
):
    result = min_over_covers(g, m, workers=1)
    # candidates still names the size of the level's cover space
    assert result.candidates == candidates
    assert plan_counts[0] == counted


@pytest.mark.parametrize(
    "g, m, symmetry",
    [
        (BOWTIE, 3, "tree-canonical"),
        (K4, 3, "tree-canonical"),
        (theta(2, 2, 2, 2), 3, "tree-canonical"),
        (C5, 3, "none"),
        (TRIANGLE, 3, "none"),
    ],
)
def test_unpruned_levels_count_every_candidate(plan_counts, g, m, symmetry):
    result = min_over_covers(g, m, symmetry=symmetry, workers=1)
    assert plan_counts[0] == result.candidates


def test_no_free_edge_to_enumerate_builds_no_permutation_list(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated all m! permutations")

    monkeypatch.setattr(covers, "permutations", refuse)
    assert min_over_covers(TREE, 12, workers=1).value == 12 * 11**5
    want = fvs1_dp_polynomial(TRIANGLE).dp_polynomial(11)
    assert min_over_covers(TRIANGLE, 11, workers=1).value == want
    # the unreduced level is refused by its budget before any enumeration
    with pytest.raises(SearchBudgetExceeded):
        min_over_covers(TRIANGLE, 12, symmetry="tree-canonical", workers=1)
