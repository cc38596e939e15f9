"""Every refusal of the library names its input: the exception class and
its whole message, one case per guard.  Beside them, the few plain paths
that no other test reads: comment lines of a graph file, the text forms
of `IntPoly`, and the text `verify` prints for a failed check.
"""

import pytest

from dpchroma import verify
from dpchroma.analysis import partition_weight
from dpchroma.chromatic import Precoloring, precolored_count, theta_edge_pair_graphs
from dpchroma.cli import CHECK_FAILED, main
from dpchroma.covers import (
    FullCover,
    PartitionSpec,
    identity_cover,
    min_over_covers,
    shift_cover,
    twist_profile,
)
from dpchroma.errors import AssumptionViolated, BadEdge, CoverMismatch, InexactDivision
from dpchroma.graphs import (
    Graph,
    ThetaSpec,
    build_generalized_theta,
    star_forest_decomposition,
    subset_cycle_lengths,
)
from dpchroma.poly import IntPoly, positive_from

TRIANGLE = Graph(tuple("abc"), ((0, 1), (1, 2), (0, 2)))
THETA = build_generalized_theta(ThetaSpec((2, 2, 2)))
STAR = star_forest_decomposition(THETA, "u")  # alphas ('u', 'v_1_1', 'v_2_1', 'v_3_1')
ONE_PART = PartitionSpec((frozenset(STAR.alphas[:2]),))


def _set_coeffs():
    IntPoly([1]).coeffs = (2,)


REFUSALS = {
    # covers
    "cover fold below 1": (lambda: FullCover(TRIANGLE, 0, {}), CoverMismatch, "fold must be at least 1"),
    "profile of an unsorted spec": (
        lambda: twist_profile(identity_cover(build_generalized_theta(ThetaSpec((2, 5, 3))), 2)),
        AssumptionViolated,
        "paths 2..k must be sorted with l_2 >= max(l_1, 2)",
    ),
    "empty part": (lambda: PartitionSpec((frozenset("a"), frozenset())), ValueError, "parts must be nonempty"),
    "overlapping parts": (
        lambda: PartitionSpec((frozenset("ab"), frozenset("bc"))),
        ValueError,
        "parts must be disjoint",
    ),
    "shift cover of another graph": (
        lambda: shift_cover(TRIANGLE, STAR, ONE_PART, 3),
        CoverMismatch,
        "decomposition belongs to a different graph",
    ),
    "shift cover of part of the star": (
        lambda: shift_cover(THETA, STAR, ONE_PART, 3),
        ValueError,
        "partition must cover exactly the star's vertices",
    ),
    "shift cover with the center off part 0": (
        lambda: shift_cover(
            THETA, STAR, PartitionSpec((frozenset(STAR.alphas[1:]), frozenset({"u"}))), 3
        ),
        ValueError,
        "the center must sit in part 0",
    ),
    "unknown symmetry": (
        lambda: min_over_covers(TRIANGLE, 2, symmetry="orbits"),
        ValueError,
        "unknown symmetry level 'orbits'",
    ),
    # chromatic
    "edge-pair lengths": (lambda: theta_edge_pair_graphs(3, 2, 4), ValueError, "need 2 <= l1 <= l2 <= l3"),
    "precolor outside the bound": (lambda: Precoloring({"a": 4}, 3), ValueError, "color 4 for 'a' outside 1..3"),
    "precolored vertex not in the graph": (
        lambda: precolored_count(TRIANGLE, Precoloring({"z": 1}, 3), 3),
        ValueError,
        "precolored vertex 'z' not in graph",
    ),
    "precoloring bound below n": (
        lambda: precolored_count(TRIANGLE, Precoloring({"a": 1}, 2), 3),
        ValueError,
        "precoloring bound smaller than the vertex count",
    ),
    "precolored count at fold 0": (
        lambda: precolored_count(TRIANGLE, Precoloring({"a": 1}, 3), 0),
        ValueError,
        "m must be positive",
    ),
    # graphs
    "endpoint out of range": (lambda: Graph(("a", "b"), ((0, 2),)), ValueError, "edge endpoint out of range"),
    "index of a non-edge": (lambda: THETA.edge_index("u", "w"), BadEdge, "u-w is not an edge"),
    "subset past the edges": (
        lambda: subset_cycle_lengths(TRIANGLE, 1 << 3),
        BadEdge,
        "subset references nonexistent edges",
    ),
    # the partition guards of the weight and of its oracle
    "weight of part of the star": (
        lambda: partition_weight(STAR, ONE_PART),
        ValueError,
        "partition must cover exactly the star's vertices",
    ),
    "weight by subsets of part of the star": (
        lambda: verify.partition_weight_by_subsets(STAR, ONE_PART),
        ValueError,
        "partition must cover exactly the star's vertices",
    ),
    # poly
    "assigning to a polynomial": (_set_coeffs, AttributeError, "IntPoly is immutable"),
    "negative exponent": (lambda: IntPoly([0, 1]) ** -1, ValueError, "negative exponent"),
    "fold of the zero polynomial": (
        lambda: positive_from(IntPoly()),
        ValueError,
        "the leading coefficient must be positive",
    ),
    "fold of a negative-leading polynomial": (
        lambda: positive_from(IntPoly([5, 1, -1])),
        ValueError,
        "the leading coefficient must be positive",
    ),
    "divisor of higher degree": (
        lambda: IntPoly([1, 1]).exact_div(IntPoly([0, 0, 1])),
        InexactDivision,
        "degree of divisor exceeds degree of dividend",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refusal_names_its_input(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_comment_and_blank_lines_of_a_graph_file_are_skipped():
    text = "n 3\ne a b\ne b c\ne a c\n"
    commented = "# a triangle\n\nn 3\n   \ne a b\n# the middle edge\ne b c\ne a c\n"
    assert Graph.from_text(commented) == Graph.from_text(text)


def test_polynomial_truth_and_text():
    assert not IntPoly() and IntPoly([0, 1])
    assert str(IntPoly()) == "0"
    assert str(IntPoly([2, -3, 0, 1])) == "2 + -3*m + 0*m^2 + 1*m^3"
    assert repr(IntPoly([2, -3, 0, 1])) == "IntPoly([2, -3, 0, 1])"


def test_a_failed_verify_check_prints_its_rule_expected_and_actual(monkeypatch, capsys):
    def failing(seed: int = 0) -> list[verify.Check]:
        return [verify.Check("poly-mul", "a * b == b * a", "m + 1", "2", "3", False)]

    monkeypatch.setitem(verify.SUITES, "poly", failing)
    code = main(["verify", "--suite", "poly"])
    out = capsys.readouterr().out
    assert code == CHECK_FAILED == 1
    assert out.splitlines() == [
        "[FAIL] poly-mul: m + 1",
        "        rule:     a * b == b * a",
        "        expected: 2",
        "        actual:   3",
        "0/1 checks passed",
    ]
