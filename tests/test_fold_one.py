"""Fold 1 on a graph with thousands of edges from one vertex.

S_1 has one permutation, so at fold 1 no edge is free: the search counts
the one cover with no recursion over edges.  The bound walks the
restricted-growth strings of the hub's edges, one string of length
|edges| at fold 1, with no frame per entry.  The enumerator makes the
strings of the recursive reference, in its order.
"""

from dpchroma.cli import main
from dpchroma.covers import _growth_string_count, _growth_strings, dp_lower_bound, min_over_covers
from dpchroma.graphs import Graph

from oracles import growth_strings_by_recursion

PATH_VERTICES = 2_000


def fan_text(k: int) -> str:
    """A hub joined to every vertex of a k-vertex path."""
    hub = "".join(f"e h p{i}\n" for i in range(k))
    path = "".join(f"e p{i} p{i + 1}\n" for i in range(k - 1))
    return f"n {k + 1}\n" + hub + path


def test_growth_strings_match_the_recursive_reference():
    for k in range(10):
        for most in range(-1, 11):
            strings = list(_growth_strings(k, most))
            assert strings == list(growth_strings_by_recursion(k, most)), (k, most)
            assert len(strings) == _growth_string_count(k, most)


def test_one_class_makes_one_string_of_any_length():
    assert list(_growth_strings(3000, 1)) == [(0,) * 3000]


def test_a_fold_1_search_on_a_large_fan_counts_one_cover():
    g = Graph.from_text(fan_text(PATH_VERTICES))
    result = min_over_covers(g, 1)
    assert (result.value, result.candidates) == (0, 1)
    assert set(result.cover.twists.values()) == {(0,)}
    assert dp_lower_bound(g, 1) == 0


def test_dp_exact_at_fold_1_on_a_large_fan_answers(tmp_path, capsys):
    path = tmp_path / "fan.graph"
    path.write_text(fan_text(PATH_VERTICES))
    assert main(["dp-exact", str(path), "--m", "1"]) == 0
    assert capsys.readouterr().err == ""
