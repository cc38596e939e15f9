"""The orderly twist search behind the conjugacy level of `min_over_covers`.

At that level each free edge takes one twist per orbit of the
permutations that commute with every earlier twist, so the search counts
one cover per conjugacy orbit.  These tests check the centraliser it is
built from and the cached orbit sweep, pin how many covers it counts with
and without the stop at `dp_lower_bound`, check that the two unpruned
levels still count every cover, that searches at one fold share each
sweep, and that a graph with at most one cotree edge never enumerates all
m! permutations.
"""

from itertools import permutations
from pathlib import Path

import pytest

from dpchroma import covers
from dpchroma.analysis import fvs1_dp_polynomial
from dpchroma.covers import (
    _centralizer,
    _orbit_sweep,
    compose,
    cover_to_json,
    cycle_type_representatives,
    min_over_covers,
)
from dpchroma.errors import SearchBudgetExceeded
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

from oracles import unpruned

GOLDEN = Path(__file__).parent / "golden"
BOWTIE = Graph.from_text((GOLDEN / "bowtie.txt").read_text())
TREE = Graph.from_text((GOLDEN / "tree.txt").read_text())
K4 = Graph.from_text((GOLDEN / "k4.txt").read_text())
C5 = Graph(tuple("abcde"), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
TRIANGLE = Graph(tuple("abc"), ((0, 1), (1, 2), (0, 2)))
K33 = Graph(tuple("abcxyz"), tuple((a, b) for a in range(3) for b in range(3, 6)))
PRISM = Graph(tuple("abcxyz"), ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(tuple(lengths)))


@pytest.fixture
def plan_counts(monkeypatch):
    """Number of covers counted through the counting plan."""
    calls = [0]
    original = covers._FeedbackPlan.count

    def count(self, perms, m, fixed=None):
        calls[0] += 1
        return original(self, perms, m, fixed)

    monkeypatch.setattr(covers._FeedbackPlan, "count", count)
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


def uncached_sweep(m, group):
    """The first twist of each conjugation orbit of `group`, in lex order,
    each with its stabiliser, from a fresh loop."""
    seen, kept = set(), []
    for p in permutations(range(m)):
        if p in seen:
            continue
        orbit = {tuple(tau[p[j]] for j in inv) for tau, inv in group}
        seen |= orbit
        kept.append((p, [(tau, inv) for tau, inv in group if tuple(tau[p[j]] for j in inv) == p]))
    return kept


@pytest.mark.parametrize("m", range(1, 7))
def test_cached_sweep_matches_an_uncached_sweep(m):
    for rep in cycle_type_representatives(m):
        group = _centralizer(rep)
        swept = _orbit_sweep(m, group)
        assert [(p, list(s)) for p, s in swept] == uncached_sweep(m, group)
        assert _orbit_sweep(m, group) is swept
    # the whole of S_m (the centraliser of the identity) has the
    # cycle-type representatives as its first twists
    swept = _orbit_sweep(m, _centralizer(tuple(range(m))))
    assert tuple(p for p, _ in swept) == cycle_type_representatives(m)


def test_searches_at_one_fold_sweep_each_group_once():
    """K_{3,3} and the prism at m = 4 have a loose lower bound (192 < 280
    and 160 < 232), so both search every orbit and reach the same groups."""
    _orbit_sweep.cache_clear()
    min_over_covers(K33, 4, workers=1)
    first = _orbit_sweep.cache_info()
    # the centralisers of the four non-identity cycle types of 4, and six
    # stabilisers inside them, each swept once over 726 sweeps
    reps = cycle_type_representatives(4)[1:]
    assert len({_centralizer(p) for p in reps}) == len(reps) == 4
    assert (first.misses, first.hits) == (10, 716)
    min_over_covers(PRISM, 4, workers=1)
    second = _orbit_sweep.cache_info()
    assert second.misses == first.misses
    assert second.hits == first.hits + first.misses + first.hits


# (graph, fold, candidates, covers counted with and without the stop at the
# lower bound, value, witness twists)
SEARCHES = {
    "bowtie-6": (
        BOWTIE, 6, 11 * 720, 1, 901, 2400,
        [("a", "b", [1, 2, 3, 4, 5, 6]), ("d", "e", [1, 2, 3, 4, 5, 6])],
    ),
    "theta:2,2,2-6": (
        theta(2, 2, 2), 6, 11 * 720, 1, 901, 2592,
        [("u", "v_2_1", [2, 1, 4, 3, 6, 5]), ("u", "v_3_1", [3, 4, 5, 6, 1, 2])],
    ),
    "k4-4": (
        K4, 4, 5 * 24 * 24, 1, 681, 24,
        [("b", "c", [1, 2, 3, 4]), ("b", "d", [1, 2, 3, 4]), ("c", "d", [1, 2, 3, 4])],
    ),
    # loose bounds, L < P_DP: the stop never fires
    "k33-3": (
        K33, 3, 3 * 6**3, 251, 251, 14,
        [("b", "y", [1, 3, 2]), ("b", "z", [2, 1, 3]), ("c", "y", [2, 3, 1]), ("c", "z", [3, 2, 1])],
    ),
    "prism-3": (
        PRISM, 3, 3 * 6**3, 251, 251, 6,
        [("a", "c", [1, 2, 3]), ("x", "z", [1, 2, 3]), ("b", "y", [2, 3, 1]), ("c", "z", [3, 1, 2])],
    ),
}


def check_search(plan_counts, name, stopped):
    g, m, candidates, counted, unstopped, value, twists = SEARCHES[name]
    result = min_over_covers(g, m, workers=1)
    # candidates still names the size of the level's cover space
    assert result.candidates == candidates
    assert plan_counts[0] == (counted if stopped else unstopped)
    assert result.value == value
    got = [(*t["edge"], t["perm"]) for t in cover_to_json(result.cover)["twists"]]
    assert got == twists


@pytest.mark.parametrize("name", SEARCHES)
def test_conjugacy_level_counts_one_cover_per_orbit(plan_counts, name):
    """The search ends at its first count equal to `dp_lower_bound`."""
    check_search(plan_counts, name, stopped=True)


@pytest.mark.parametrize("name", SEARCHES)
def test_without_the_stop_every_orbit_is_counted(monkeypatch, plan_counts, name):
    """With the bound out of reach the search counts one cover per orbit,
    and finds the same value and witness."""
    unpruned(monkeypatch)
    check_search(plan_counts, name, stopped=False)


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
    sweeps = _orbit_sweep.cache_info()
    result = min_over_covers(g, m, symmetry=symmetry, workers=1)
    assert plan_counts[0] == result.candidates
    assert _orbit_sweep.cache_info() == sweeps  # no orbit sweep


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
