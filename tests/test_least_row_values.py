"""The value `compare` and `dp-formula --m` print below `stable_from`.

Below its `stable_from`, the eventual FVS-1 polynomial can miss P_DP
(theta:2,3,3,3 at m = 3 reads 210, not 207).  There the CLI prints
`dp_lower_bound`, exact with a feedback set of at most one vertex,
labelled "fvs1-least-row", while its key walk builds at most
`BRUTE_FORCE_LIMIT` row entries, and a `compare` range at most that many
over all its folds; past that, the polynomial's value keeps its
"fvs1(below-stabilization)" label.  Each value is checked against the
exhaustive search, or against `dp_lower_bound` one fold at a time.
"""

import json
import random

import pytest

from dpchroma import cli, covers
from dpchroma.analysis import FeedbackPolynomialResult
from dpchroma.chromatic import chromatic_polynomial
from dpchroma.cli import dp_formula_route, main
from dpchroma.covers import (
    BRUTE_FORCE_LIMIT,
    _growth_string_count,
    dp_lower_bound,
    least_row_entries,
    min_over_covers,
)
from dpchroma.graphs import Graph
from dpchroma.verify import _graph_zoo

from oracles import to_text
from test_merged_counter import random_fvs1


def alt_hub(paths: int, length: int) -> Graph:
    """A hub joined to vertices 1, 3, 5, ... of each of `paths` paths with
    `length` vertices."""
    labels, edges = ["h"], []
    for p in range(paths):
        first = len(labels)
        labels += [f"p{p}_{i}" for i in range(1, length + 1)]
        edges += [(first + i, first + i + 1) for i in range(length - 1)]
        edges += [(0, first + i) for i in range(0, length, 2)]
    return Graph(tuple(labels), tuple(edges))


def hub20() -> Graph:
    """A hub joined to vertices 1, 6, 11 and 20 of a 20-vertex path."""
    labels = ("h",) + tuple(f"p{i}" for i in range(1, 21))
    edges = tuple((i, i + 1) for i in range(1, 20)) + tuple((0, i) for i in (1, 6, 11, 20))
    return Graph(labels, edges)


def _cases() -> dict[str, tuple[Graph | str, range]]:
    """Source (a graph or a theta spec) and folds, by name."""
    zoo = {
        name: g
        for name, g in _graph_zoo().items()
        if len(g.feedback_set) <= 1 and isinstance(dp_formula_route(g), FeedbackPolynomialResult)
    }
    assert sorted(zoo) == ["bowtie", "c4", "path4", "star+edge", "theta:1,2,2", "triangle", "two-comps"]
    rng = random.Random(43)
    randoms = {f"random-fvs1-{i}": random_fvs1(rng, rng.randint(4, 6)) for i in range(8)}
    cases = {name: (g, range(1, 5)) for name, g in {**zoo, **randoms}.items()}
    cases.update({spec: (spec, range(1, 5)) for spec in ("theta:2,3,3,3", "theta:2,2,2,2")})
    cases["alt-hub-2x7"] = (alt_hub(2, 7), range(2, 4))
    return cases


CASES = _cases()


def _source(case, tmp_path) -> tuple[str, Graph]:
    if isinstance(case, str):
        return case, cli.load_graph(case)
    path = tmp_path / "graph.txt"
    path.write_text(to_text(case), encoding="utf-8")
    return str(path), case


def _dp_formula(source: str, m: int, capsys) -> dict:
    assert main(["dp-formula", source, "--m", str(m), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_and_dp_formula_print_the_search_minimum(name, tmp_path, capsys):
    case, folds = CASES[name]
    source, g = _source(case, tmp_path)
    want = [str(min_over_covers(g, m).value) for m in folds]
    printed = [_dp_formula(source, m, capsys) for m in folds]
    stable_from = printed[0]["stable_from"]
    labels = ["fvs1" if m >= stable_from else "fvs1-least-row" for m in folds]
    assert [(p["value"], p["value_route"]) for p in printed] == list(zip(want, labels))
    assert main(["compare", source, "--m", f"{folds[0]}..{folds[-1]}", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(row["P_DP"], row["route"]) for row in rows] == list(zip(want, labels))


def test_a_fold_past_the_walk_cap_keeps_the_polynomial_and_its_label(tmp_path, monkeypatch, capsys):
    # alt-hub 2x7 has 15 vertices and 8 edges from its hub, so the walk of
    # its keys fits up to m = 64; at m = 100 it would build
    # Bell(8) * 15 * 100 = 6,210,000 row entries
    assert _growth_string_count(8, 64) * 15 * 64 <= BRUTE_FORCE_LIMIT < _growth_string_count(8, 65) * 15 * 65
    path = tmp_path / "alt-hub.txt"
    path.write_text(to_text(alt_hub(2, 7)), encoding="utf-8")

    def no_walk(g, m):
        raise AssertionError("the key walk ran past its cap")

    monkeypatch.setattr(cli, "dp_lower_bound", no_walk)
    payload = _dp_formula(str(path), 100, capsys)
    coefficients = [int(c) for c in payload["polynomial"]["coefficients"]]
    assert payload["stable_from"] == 52_816
    assert payload["value"] == str(sum(c * 100**i for i, c in enumerate(coefficients)))
    assert payload["value_route"] == "fvs1(below-stabilization)"


def test_a_lone_fold_may_spend_the_whole_walk_cap(tmp_path, capsys):
    # alt-hub 2x7 at m = 64 builds 3,974,400 row entries, the most a fold
    # of it may, and dp-formula and a one-fold compare both walk them
    g = alt_hub(2, 7)
    assert least_row_entries(g, 64) == _growth_string_count(8, 64) * 15 * 64 == 3_974_400
    path = tmp_path / "alt-hub.txt"
    path.write_text(to_text(g), encoding="utf-8")
    payload = _dp_formula(str(path), 64, capsys)
    assert payload["value_route"] == "fvs1-least-row"
    assert main(["compare", str(path), "--m", "64", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["P_DP"], row["route"]) == (payload["value"], "fvs1-least-row")


def test_a_compare_range_spends_one_walk_cap_in_all(tmp_path, monkeypatch, capsys):
    # each fold of hub20 up to 12,698 fits the one-fold cap, so a walk per
    # fold would build about 10^8 row entries over 1..800
    g = hub20()
    assert least_row_entries(g, 800) <= BRUTE_FORCE_LIMIT
    path = tmp_path / "hub20.txt"
    path.write_text(to_text(g), encoding="utf-8")
    built, row = [], covers._FeedbackPlan._row

    def counting(self, key, m):
        built.append(self.n * m)
        return row(self, key, m)

    monkeypatch.setattr(covers._FeedbackPlan, "_row", counting)
    assert main(["compare", str(path), "--m", "1..800", "--format", "json"]) == 0
    monkeypatch.undo()
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert 0 < sum(built) <= BRUTE_FORCE_LIMIT
    walked = sum(r["route"] == "fvs1-least-row" for r in rows)
    past = ["fvs1(below-stabilization)"] * (800 - walked)
    assert [r["route"] for r in rows] == ["fvs1-least-row"] * walked + past
    assert 100 < walked < 800
    chrom = chromatic_polynomial(g)
    for m in sorted({*range(1, 801, 25), walked, walked + 1, 800}):
        want = str(chrom(m)), str(dp_lower_bound(hub20(), m))  # a fresh graph, one fold
        assert (rows[m - 1]["P"], rows[m - 1]["P_DP"]) == want, m
