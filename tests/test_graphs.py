import pytest

from dpchroma.errors import BadEdge, InvalidCenter, InvalidThetaSpec
from dpchroma.graphs import (
    FeedbackVertex,
    Graph,
    ThetaSpec,
    build_generalized_theta,
    component_count,
    find_feedback_vertex,
    star_forest_decomposition,
    subset_cycle_lengths,
)

from oracles import full_mask, mask_of, simple_cycles_by_enumeration, to_text, without_vertex


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(lengths))


def all_valid_length_tuples(max_k, max_len):
    from itertools import product

    for k in range(2, max_k + 1):
        for lengths in product(range(1, max_len + 1), repeat=k):
            if sum(1 for x in lengths if x == 1) <= 1:
                yield lengths


def test_build_counts_basic():
    g = theta(2, 2, 2)
    assert g.n == 5 and g.edge_count == 6
    g = theta(1, 2, 2)
    assert g.n == 4 and g.edge_count == 5
    assert g.edge_index("u", "w") == 0  # the length-1 path is a direct edge


def test_build_rejects_parallel_and_nonpositive():
    with pytest.raises(InvalidThetaSpec):
        ThetaSpec((1, 1, 2))
    with pytest.raises(InvalidThetaSpec):
        ThetaSpec((0, 2, 2))
    with pytest.raises(InvalidThetaSpec):
        ThetaSpec((3,))


def test_vertex_and_edge_naming():
    g = theta(2, 3, 3)
    assert g.vertices[:2] == ("u", "w")
    # edge i-1 is the u-incident edge of path i
    assert g.edge_labels(0) == ("u", "v_1_1")
    assert g.edge_labels(1) == ("u", "v_2_1")
    assert g.edge_labels(2) == ("u", "v_3_1")
    # remaining edges are path-major in position order
    assert g.edge_labels(3) == ("v_1_1", "w")
    assert g.edge_labels(4) == ("v_2_1", "v_2_2")
    assert g.edge_labels(5) == ("v_2_2", "w")


def test_counts_forced_by_definition_full_range():
    for lengths in all_valid_length_tuples(6, 6):
        spec = ThetaSpec(lengths)
        g = build_generalized_theta(spec)
        assert g.n == spec.vertex_count
        assert g.edge_count == spec.edge_count


def test_component_count_examples():
    g = theta(2, 2, 2)
    assert component_count(g, 0) == 5
    two = mask_of(g, [("u", "v_1_1"), ("v_1_1", "w")])
    assert component_count(g, two) == 3
    g2 = theta(2, 3, 3)
    assert component_count(g2, full_mask(g2)) == 1


def test_component_count_rejects_foreign_bits():
    g = theta(2, 2, 2)
    with pytest.raises(BadEdge):
        component_count(g, 1 << g.edge_count)


def test_cycles_of_subsets():
    g = theta(2, 3, 3)
    tree = mask_of(
        g,
        [
            ("u", "v_1_1"),
            ("v_1_1", "w"),
            ("v_2_1", "v_2_2"),
            ("v_2_2", "w"),
            ("v_3_1", "v_3_2"),
            ("v_3_2", "w"),
        ]
    )
    assert subset_cycle_lengths(g, tree) == []
    both = mask_of(
        g,
        [
            ("u", "v_1_1"),
            ("v_1_1", "w"),
            ("u", "v_2_1"),
            ("v_2_1", "v_2_2"),
            ("v_2_2", "w"),
        ]
    )
    assert subset_cycle_lengths(g, both) == [5]
    assert subset_cycle_lengths(g, full_mask(g)) == [5, 5, 6]


def test_cycles_match_enumeration_oracle():
    g = theta(2, 2, 2)
    for mask in range(1 << g.edge_count):
        assert subset_cycle_lengths(g, mask) == simple_cycles_by_enumeration(g, mask)


def test_rank_inequality_over_subsets():
    for lengths in ((2, 2, 2), (2, 3, 3)):
        g = theta(*lengths)
        for mask in range(1 << g.edge_count):
            slack = g.n - component_count(g, mask)
            size = bin(mask).count("1")
            assert slack <= size
            assert (slack == size) == (subset_cycle_lengths(g, mask) == [])


def test_feedback_vertex():
    assert find_feedback_vertex(theta(2, 2, 2)) == "u"
    tree = Graph(("a", "b", "c"), ((0, 1), (1, 2)))
    assert find_feedback_vertex(tree) is FeedbackVertex.NONE_NEEDED
    # two vertex-disjoint triangles joined by an edge need two deletions
    g = Graph(
        ("a", "b", "c", "d", "e", "f"),
        ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)),
    )
    for v in g.vertices:  # oracle: removing any single vertex leaves a cycle
        assert not without_vertex(g, v).is_forest()
    assert find_feedback_vertex(g) is FeedbackVertex.NOT_SIZE_ONE


def test_feedback_vertex_on_thetas_is_an_endpoint():
    for lengths in all_valid_length_tuples(4, 4):
        got = find_feedback_vertex(build_generalized_theta(ThetaSpec(lengths)))
        assert got in ("u", "w")


def test_star_forest_decomposition():
    g = theta(2, 2, 2)
    d = star_forest_decomposition(g, "u")
    assert d.alphas == ("u", "v_1_1", "v_2_1", "v_3_1")
    assert bin(d.star_edges).count("1") == 3
    assert d.forest.is_forest()
    assert sorted(d.forest.edge_labels(i) for i in range(d.forest.edge_count)) == [
        ("v_1_1", "w"),
        ("v_2_1", "w"),
        ("v_3_1", "w"),
    ]
    tri = Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    dt = star_forest_decomposition(tri, "a")
    assert bin(dt.star_edges).count("1") == 2
    assert dt.forest.edge_count == 1
    with pytest.raises(InvalidCenter):
        star_forest_decomposition(g, "v_1_1")  # a 4-cycle survives


def test_theta_spec_string_forms():
    spec = ThetaSpec.parse("theta:2,3,4")
    assert spec.lengths == (2, 3, 4)
    assert str(spec) == "theta:2,3,4"
    assert ThetaSpec.parse("2,2,2").lengths == (2, 2, 2)
    with pytest.raises(InvalidThetaSpec):
        ThetaSpec.parse("theta:2,x")


def test_text_round_trip():
    g = theta(2, 2, 3)
    back = Graph.from_text(to_text(g))
    assert set(back.vertices) == set(g.vertices)
    assert {frozenset(back.edge_labels(i)) for i in range(back.edge_count)} == {
        frozenset(g.edge_labels(i)) for i in range(g.edge_count)
    }


def test_text_isolated_vertices_and_errors():
    g = Graph.from_text("n 3\ne a b\n")
    assert g.n == 3 and g.edge_count == 1
    with pytest.raises(ValueError):
        Graph.from_text("e a b\n")  # missing header
    with pytest.raises(ValueError):
        Graph.from_text("n 1\ne a b\n")  # count below labels used
    with pytest.raises(ValueError):
        Graph.from_text("n 2\nedge a b\n")


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((0, 0),))
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((0, 1), (1, 0)))
    # every edge is oriented once, from the smaller label, in __post_init__
    path = Graph(("c", "b", "a"), ((0, 1),))
    assert path.with_edge("b", "a") == path.with_edge("a", "b")
