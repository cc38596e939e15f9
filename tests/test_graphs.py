import pytest

from dpchroma.errors import BadEdge, GraphTooLarge, InvalidCenter, InvalidThetaSpec
from dpchroma.graphs import (
    GRAPH_VERTEX_LIMIT,
    FeedbackVertex,
    Graph,
    ThetaSpec,
    build_generalized_theta,
    component_count,
    find_feedback_vertex,
    star_forest_decomposition,
    subset_cycle_lengths,
)

from oracles import (
    full_mask,
    mask_of,
    simple_cycles_by_enumeration,
    theta_by_labels,
    to_text,
    without_vertex,
)


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
    assert g.n == 5 and len(g.edges) == 6
    g = theta(1, 2, 2)
    assert g.n == 4 and len(g.edges) == 5
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
        assert len(g.edges) == spec.edge_count


def test_theta_builder_matches_the_label_reference():
    # every spec of at most 5 paths of length at most 6, in every order
    specs = [ThetaSpec(lengths) for lengths in all_valid_length_tuples(5, 6)]
    assert len(specs) == 7_610
    for spec in specs:
        g, ref = build_generalized_theta(spec), theta_by_labels(spec)
        assert (g.vertices, g.edges, g.theta) == (ref.vertices, ref.edges, spec), spec
        walks = [
            ["u", *(f"v_{i}_{j}" for j in range(1, length)), "w"]
            for i, length in enumerate(spec.lengths, start=1)
        ]
        masks = tuple(mask_of(ref, zip(walk, walk[1:])) for walk in walks)
        assert spec.path_masks == masks, spec


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
        component_count(g, 1 << len(g.edges))


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
    for mask in range(1 << len(g.edges)):
        assert subset_cycle_lengths(g, mask) == simple_cycles_by_enumeration(g, mask)


def test_path_masks_give_every_subsets_cycles():
    """On Theta(l_1, ..., l_k) the cycles of an edge subset are the pairs
    of u--w paths it holds whole: 219 length tuples of k = 2..4 paths of
    length at most 6 and at most 10 edges, 124,192 subsets, against the
    cycle enumerator."""
    tuples = [x for x in all_valid_length_tuples(4, 6) if sum(x) <= 10]
    assert len(tuples) == 219
    for lengths in tuples:
        g = theta(*lengths)
        masks = ThetaSpec(lengths).path_masks
        union = 0
        for path in masks:
            assert not union & path
            union |= path
        assert union == full_mask(g) and len(masks) == len(lengths)
        for path, length in zip(masks, lengths):
            # walk from u along the path's edges: each step has one way on
            edges = {g.edges[i] for i in range(len(g.edges)) if path >> i & 1}
            at = g.index["u"]
            for _ in range(length):
                (step,) = [e for e in edges if at in e]
                edges.remove(step)
                at = step[0] + step[1] - at
            assert not edges and at == g.index["w"]
        for mask in range(1 << len(g.edges)):
            whole = [x for path, x in zip(masks, lengths) if mask & path == path]
            pairs = sorted(a + b for i, a in enumerate(whole) for b in whole[i + 1:])
            assert subset_cycle_lengths(g, mask) == pairs


def test_rank_inequality_over_subsets():
    for lengths in ((2, 2, 2), (2, 3, 3)):
        g = theta(*lengths)
        for mask in range(1 << len(g.edges)):
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
    assert sorted(d.forest.edge_labels(i) for i in range(len(d.forest.edges))) == [
        ("v_1_1", "w"),
        ("v_2_1", "w"),
        ("v_3_1", "w"),
    ]
    tri = Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    dt = star_forest_decomposition(tri, "a")
    assert bin(dt.star_edges).count("1") == 2
    assert len(dt.forest.edges) == 1
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
    assert {frozenset(back.edge_labels(i)) for i in range(len(back.edges))} == {
        frozenset(g.edge_labels(i)) for i in range(len(g.edges))
    }


def test_text_isolated_vertices_and_errors():
    g = Graph.from_text("n 3\ne a b\n")
    assert g.n == 3 and len(g.edges) == 1
    with pytest.raises(ValueError):
        Graph.from_text("e a b\n")  # missing header
    with pytest.raises(ValueError):
        Graph.from_text("n 1\ne a b\n")  # count below labels used
    with pytest.raises(ValueError):
        Graph.from_text("n 2\nedge a b\n")


def test_a_graph_text_declares_at_most_the_vertex_limit():
    assert Graph.from_text(f"n {GRAPH_VERTEX_LIMIT}\ne a b\n").n == GRAPH_VERTEX_LIMIT
    for count in (GRAPH_VERTEX_LIMIT + 1, 10**12):
        with pytest.raises(GraphTooLarge, match=f"^{count:,} vertices exceed GRAPH_VERTEX_LIMIT = "):
            Graph.from_text(f"e a b\nn {count}\n")


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((0, 0),))
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((0, 1), (1, 0)))
    # every edge is oriented once, from the smaller label, in __new__
    path = Graph(("c", "b", "a"), ((0, 1),))
    assert path.with_edge("b", "a") == path.with_edge("a", "b")


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (("a", "b", "a"), ((0, 1),), "duplicate vertex labels"),
        (("a", "a"), ((0, 0),), "duplicate vertex labels"),  # labels before edges
        (("a", "b"), ((1, 1),), "loops are not allowed"),
        (("a", "b"), ((5, 5),), "loops are not allowed"),  # a loop before its range
        (("a", "b"), ((0, 2),), "edge endpoint out of range"),
        (("a", "b"), ((-1, 0),), "edge endpoint out of range"),
        (("a", "b", "c"), ((0, 1), (0, 1)), "parallel edges are not allowed"),
        (("a", "b", "c"), ((0, 1), (1, 0)), "parallel edges are not allowed"),
        # labels ordered against their indices: the edge is stored as (1, 0)
        (("c", "b", "a"), ((1, 0), (0, 1)), "parallel edges are not allowed"),
        (("c", "b", "a"), ((0, 1), (0, 1)), "parallel edges are not allowed"),
        # several defects: the first defective edge decides
        (("a", "b", "c"), ((0, 1), (1, 0), (2, 2), (0, 5)), "parallel edges are not allowed"),
        (("a", "b", "c"), ((0, 1), (2, 2), (1, 0), (0, 5)), "loops are not allowed"),
        (("a", "b", "c"), ((0, 1), (0, 5), (2, 2), (1, 0)), "edge endpoint out of range"),
    ],
)
def test_graph_refuses_each_defect_with_its_message(vertices, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(vertices, edges)
