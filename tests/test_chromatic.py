import random
from itertools import product

import pytest

from dpchroma import chromatic
from dpchroma.chromatic import (
    _theta_closed_form,
    chromatic_polynomial,
    precolored_count,
    precolored_polynomial,
    Precoloring,
    theta_chromatic,
    theta_closed_form,
    theta_edge_deleted_chromatic,
    theta_edge_pair_graphs,
    theta_edge_pair_polynomials,
)
from dpchroma.errors import BadPathIndex, GraphTooLarge
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta, component_count
from dpchroma.poly import IntPoly, M
from dpchroma.verify import SUITES, _valid_length_tuples

from oracles import chromatic_by_subsets, interpolated_chromatic, mask_of, proper_coloring_count


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(lengths))


def test_base_cases():
    assert chromatic_polynomial(Graph(("a",), ())) == M
    assert chromatic_polynomial(Graph(("a", "b"), ((0, 1),))) == M**2 - M


def test_c4_against_interpolation_oracle():
    c4 = Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert chromatic_polynomial(c4) == interpolated_chromatic(c4)
    assert chromatic_polynomial(c4) == M**4 - 4 * M**3 + 6 * M**2 - 3 * M


def test_small_graphs_against_interpolation():
    zoo = [
        Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2))),
        Graph(("a", "b", "c", "d"), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
        Graph(("a", "b", "c", "d"), ((0, 1), (2, 3))),
        theta(2, 2, 2),
    ]
    for g in zoo:
        assert chromatic_polynomial(g) == interpolated_chromatic(g)


def test_theta_closed_form_values():
    assert theta_chromatic(ThetaSpec((2, 2, 2)))(2) == 2  # the two K_{2,3} sides
    assert theta_chromatic(ThetaSpec((2, 2, 2)))(3) == 30
    assert theta_chromatic(ThetaSpec((2, 2, 3)))(3) == 42


def test_theta_identity_against_deletion_contraction():
    for k in (2, 3, 4):
        for lengths in product(range(1, 6), repeat=k):
            if sum(1 for x in lengths if x == 1) > 1:
                continue
            spec = ThetaSpec(lengths)
            g = build_generalized_theta(spec)
            assert theta_chromatic(spec) == chromatic_polynomial(g)


def test_theta_edge_deleted_examples():
    assert theta_edge_deleted_chromatic(ThetaSpec((2, 2, 3)), 2)(3) == 60
    assert theta_edge_deleted_chromatic(ThetaSpec((2, 2, 2)), 1)(2) == 2
    assert theta_edge_deleted_chromatic(ThetaSpec((2, 3, 3)), 3)(3) == 120
    with pytest.raises(BadPathIndex):
        theta_edge_deleted_chromatic(ThetaSpec((2, 2, 2)), 4)


def test_theta_edge_deleted_identity():
    for k in (2, 3, 4):
        for lengths in product(range(1, 6), repeat=k):
            if sum(1 for x in lengths if x == 1) > 1:
                continue
            spec = ThetaSpec(lengths)
            g = build_generalized_theta(spec)
            for j in range(1, k + 1):
                deleted = g.without_edges([j - 1])
                assert theta_edge_deleted_chromatic(spec, j) == chromatic_polynomial(deleted)


def test_edge_pair_polynomials_pinned_values():
    polys = theta_edge_pair_polynomials(2, 2, 2)
    assert [p(3) for p in polys] == [30, 48, 36, 36, 12]
    assert theta_edge_pair_polynomials(2, 2, 3).g(3) == 42
    for l1, l2, l3 in ((2, 2, 2), (2, 3, 4), (3, 3, 5)):
        assert theta_edge_pair_polynomials(l1, l2, l3).g0(1) == 0


def test_edge_pair_polynomials_match_explicit_graphs():
    # G* is the one form written out for the family, so its grid is wider
    # than the verify suite's.
    for l1 in range(2, 7):
        for l2 in range(l1, 7):
            for l3 in range(l2, 7):
                graphs = theta_edge_pair_graphs(l1, l2, l3)
                polys = theta_edge_pair_polynomials(l1, l2, l3)
                for gg, pp in zip(graphs, polys):
                    assert pp == chromatic_polynomial(gg)


def test_edge_pair_family_reads_the_theta_closed_forms():
    for l1, l2, l3 in ((2, 2, 2), (2, 3, 4), (3, 3, 5), (4, 6, 6)):
        spec = ThetaSpec((l1, l2, l3))
        polys = theta_edge_pair_polynomials(l1, l2, l3)
        assert polys.g is theta_chromatic(spec)
        assert polys.g1 is theta_edge_deleted_chromatic(spec, 1)
        assert polys.g2 is theta_edge_deleted_chromatic(spec, 2)
        assert polys.g0 == M * (M - 1) ** (l1 + l2 + l3 - 2)


def test_theta_closed_form_cache_key_ignores_the_order_of_the_lengths():
    # The cache is keyed by the sorted lengths; the body itself must give
    # the same polynomial for every ordering, or that key would be wrong.
    for lengths in _valid_length_tuples(4, 5):
        assert theta_closed_form(lengths) == _theta_closed_form.__wrapped__(lengths)


def test_closed_forms_are_built_once_per_argument():
    _theta_closed_form.cache_clear()
    theta_edge_deleted_chromatic.cache_clear()
    theta_edge_pair_polynomials.cache_clear()
    assert all(check.passed for check in SUITES["theta-identity"]())
    assert all(check.passed for check in SUITES["term-differences"]())
    # 840 closed forms over 103 length multisets, and 20 more that only the
    # 35 surgery families of the 350 term-difference rows read.
    assert _theta_closed_form.cache_info().misses == 123
    assert theta_edge_pair_polynomials.cache_info().misses == 35


def test_theta_identity_runs_one_transfer_per_walk_and_pattern():
    # its 840 rows, each planning its own walk, meet 324 distinct walks
    chromatic._transfers.cache_clear()
    assert all(check.passed for check in SUITES["theta-identity"]())
    info = chromatic._transfers.cache_info()
    assert (info.hits + info.misses, info.misses) == (840, 324)


def test_edge_pair_polynomials_reject_bad_triples_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            theta_edge_pair_polynomials(3, 2, 4)

def test_precolored_count_examples():
    path = Graph(("u", "x", "w"), ((0, 1), (1, 2)))
    assert precolored_count(path, Precoloring({"u": 1, "w": 1}, 3), 3) == 2
    assert precolored_count(path, Precoloring({"u": 1, "w": 2}, 3), 3) == 1
    edge = Graph(("u", "w"), ((0, 1),))
    for m in (2, 3, 7):
        assert precolored_count(edge, Precoloring({"u": 1, "w": 1}, 2), m) == 0


def test_precolored_count_matches_enumeration_on_cyclic_graphs():
    tri = Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    pc = Precoloring({"a": 1}, 3)
    direct = sum(
        1
        for cols in product(range(3), repeat=3)
        if cols[0] == 0 and cols[0] != cols[1] and cols[0] != cols[2] and cols[1] != cols[2]
    )
    assert precolored_count(tri, pc, 3) == direct


def test_precolored_polynomial_examples():
    path = Graph(("u", "x", "w"), ((0, 1), (1, 2)))
    assert precolored_polynomial(path, Precoloring({"u": 1, "w": 1}, 3)) == M - 1
    assert precolored_polynomial(path, Precoloring({"u": 1, "w": 2}, 3)) == M - 2
    edge = Graph(("u", "w"), ((0, 1),))
    assert precolored_polynomial(edge, Precoloring({"u": 1, "w": 1}, 2)) == IntPoly()


def test_precolored_polynomial_matches_counts_on_random_forests():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 7)
        labels = tuple(f"t{i}" for i in range(n))
        edges = tuple(
            (rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.75
        )
        g = Graph(labels, edges)
        domain = [v for v in labels if rng.random() < 0.5]
        bound = n + rng.randint(0, 2)
        pc = Precoloring({v: rng.randint(1, bound) for v in domain}, bound)
        poly = precolored_polynomial(g, pc)
        for m in range(bound, bound + 4):
            assert poly(m) == precolored_count(g, pc, m)


def test_subset_agreement_counts():
    g = theta(2, 2, 2)
    assert 3 ** component_count(g, 0) == 243
    g2 = theta(2, 3, 3)
    five = mask_of(
        g2,
        [("u", "v_1_1"), ("v_1_1", "w"), ("u", "v_2_1"), ("v_2_1", "v_2_2"), ("v_2_2", "w")]
    )
    assert 3 ** component_count(g2, five) == 27
    tree = mask_of(
        g2,
        [
            ("u", "v_1_1"),
            ("v_1_1", "w"),
            ("v_2_1", "v_2_2"),
            ("v_2_2", "w"),
            ("v_3_1", "v_3_2"),
            ("v_3_2", "w"),
        ]
    )
    for m in (2, 3, 5):
        assert m ** component_count(g2, tree) == m


def test_inclusion_exclusion_examples():
    tri = Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    assert chromatic_by_subsets(tri, 3) == 6
    assert chromatic_by_subsets(theta(2, 2, 2), 3) == 30
    # theta:2,2,3 has an odd cycle, so there are no proper 2-colorings;
    # the bipartite theta:2,2,2 has exactly the two side-swaps.
    assert chromatic_by_subsets(theta(2, 2, 3), 2) == 0
    assert proper_coloring_count(theta(2, 2, 3), 2) == 0
    assert chromatic_by_subsets(theta(2, 2, 2), 2) == 2


def test_inclusion_exclusion_matches_polynomial_and_enumeration():
    zoo = [
        Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3))),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
        theta(1, 2, 2),
        theta(2, 3, 3),
        Graph(("a", "b", "c", "d"), ((0, 1), (2, 3))),
    ]
    for g in zoo:
        assert len(g.edges) <= 8
        poly = chromatic_polynomial(g)
        for m in range(1, 5):
            ie = chromatic_by_subsets(g, m)
            assert ie == poly(m)
            assert ie == proper_coloring_count(g, m)


def test_inclusion_exclusion_edge_limit():
    big = Graph(
        tuple(f"p{i}" for i in range(22)), tuple((i, i + 1) for i in range(21))
    )
    with pytest.raises(GraphTooLarge):
        chromatic_by_subsets(big, 2)
