"""The value `compare` and `dp-formula --m` print below `stable_from`.

Below its `stable_from`, the eventual FVS-1 polynomial can miss P_DP
(theta:2,3,3,3 at m = 3 reads 210, not 207).  There the CLI prints
`FeedbackPolynomialResult.value_at`, the least count over the leaf
groupings with at most m classes, labelled "fvs1-least-row": no key walk
runs, so no fold is capped.  Each value is checked against the
exhaustive search, or against `dp_lower_bound` one fold at a time.  From
`stable_from` on, the exact fold from which no such count undercuts the
polynomial, the CLI prints the polynomial, labelled "fvs1".
"""

import json
import random
from pathlib import Path

import pytest

from dpchroma import cli, covers
from dpchroma.analysis import FeedbackPolynomialResult, fvs1_dp_polynomial
from dpchroma.chromatic import chromatic_polynomial
from dpchroma.cli import dp_formula_route, main
from dpchroma.covers import count_colorings, dp_lower_bound, min_over_covers, partitions_of
from dpchroma.errors import OutOfRange
from dpchroma.graphs import Graph
from dpchroma.verify import _graph_zoo

from oracles import avoidance_count, star_partitions, to_text
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


def _no_walk(monkeypatch):
    def refuse(self, m):
        raise AssertionError("a key walk ran")

    monkeypatch.setattr(covers._FeedbackPlan, "least_keys", refuse)


@pytest.mark.parametrize("m", [64, 100])
def test_dp_formula_reads_the_least_count_without_a_key_walk(m, tmp_path, monkeypatch, capsys):
    # alt-hub 2x7 has 15 vertices and 8 edges from its hub: Bell(8) = 4,140
    # groupings, and a key walk at m = 100 would build 6,210,000 row entries;
    # from stable_from on the least count is the polynomial's value
    path = tmp_path / "alt-hub.txt"
    path.write_text(to_text(alt_hub(2, 7)), encoding="utf-8")
    _no_walk(monkeypatch)
    payload = _dp_formula(str(path), m, capsys)
    monkeypatch.undo()
    assert payload["stable_from"] == 4
    assert payload["value_route"] == "fvs1"
    assert payload["value"] == str(dp_lower_bound(alt_hub(2, 7), m))  # a fresh graph


def test_a_compare_range_reads_the_least_count_without_a_key_walk(tmp_path, monkeypatch, capsys):
    # hub20's stable_from is 1, so every fold of 1..800 prints the
    # polynomial; alt-hub 2x7 reads the least count at folds 1..3 only
    g = hub20()
    path = tmp_path / "hub20.txt"
    path.write_text(to_text(g), encoding="utf-8")
    alt = tmp_path / "alt-hub.txt"
    alt.write_text(to_text(alt_hub(2, 7)), encoding="utf-8")
    _no_walk(monkeypatch)
    assert main(["compare", str(path), "--m", "1..800", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert main(["compare", str(alt), "--m", "1..400", "--format", "json"]) == 0
    alt_rows = json.loads(capsys.readouterr().out)["rows"]
    monkeypatch.undo()
    assert [r["route"] for r in rows] == ["fvs1"] * 800
    assert [r["route"] for r in alt_rows] == ["fvs1-least-row"] * 3 + ["fvs1"] * 397
    chrom = chromatic_polynomial(g)
    for m in sorted({*range(1, 801, 25), 158, 159, 800}):
        want = str(chrom(m)), str(dp_lower_bound(hub20(), m))  # a fresh graph, one fold
        assert (rows[m - 1]["P"], rows[m - 1]["P_DP"]) == want, m
    for m in range(1, 6):
        assert alt_rows[m - 1]["P_DP"] == str(dp_lower_bound(alt_hub(2, 7), m)), m


def _fvs1_graphs() -> dict[str, Graph]:
    """The zoo's graphs with a feedback set of at most one vertex, and 40
    seeded `random_fvs1` graphs."""
    graphs = {name: g for name, g in _graph_zoo().items() if len(g.feedback_set) <= 1}
    rng = random.Random(45)
    graphs.update({f"random-fvs1-{i}": random_fvs1(rng, rng.randint(4, 7)) for i in range(40)})
    return graphs


FVS1_GRAPHS = _fvs1_graphs()


@pytest.mark.parametrize("name", sorted(FVS1_GRAPHS))
def test_value_at_is_the_least_row_bound_at_every_fold(name):
    g = FVS1_GRAPHS[name]
    result = fvs1_dp_polynomial(g)
    polys = [c for _, c, _ in result.counts]
    assert len(set(polys)) == len(polys)
    # `counts` keeps what `value_at` reads below stable_from, the grouping
    # of every leaf in one class among them, each with a grouping of its
    # fewest classes that has its count
    assert all(s < result.stable_from for s, _, _ in result.counts)
    for s, c, r in result.counts:
        assert max(r, default=-1) + 1 == s and avoidance_count(result.decomposition, r) == c
    assert result.stable_from == 1 or result.counts[0][0] <= 1
    assert result.stable_from <= 12
    bounds = [dp_lower_bound(g, m) for m in range(1, 13)]
    assert [result.value_at(m) for m in range(1, 13)] == bounds
    folds = range(result.stable_from, 13)
    assert [result.dp_polynomial(m) for m in folds] == bounds[result.stable_from - 1 :]
    assert all(c(m) >= result.dp_polynomial(m) for _, c, _ in result.counts for m in folds)
    with pytest.raises(OutOfRange):
        result.value_at(0)


def _pinned_graphs() -> dict[str, Graph]:
    pins = json.loads((Path(__file__).parent / "golden" / "fvs1_pins.json").read_text())
    return {
        f"pin-{i}": Graph(tuple(f"x{j}" for j in range(pin["n"])), tuple(map(tuple, pin["edges"])))
        for i, pin in enumerate(pins)
    }


VALUE_GROUPS = {
    "zoo": lambda: {n: g for n, g in FVS1_GRAPHS.items() if not n.startswith("random")},
    "pins": _pinned_graphs,
    "random": lambda: {n: g for n, g in FVS1_GRAPHS.items() if n.startswith("random")},
    "wide": lambda: {
        **{spec: cli.load_graph(spec) for spec in ("theta:2,3,3,3", "theta:2,2,2,2")},
        "alt-hub-2x7": alt_hub(2, 7),
    },
}


@pytest.mark.parametrize("group", sorted(VALUE_GROUPS))
def test_value_at_is_the_least_count_up_to_the_cauchy_ceiling(group):
    # the oracle: at fold m, the least avoidance count over every leaf
    # grouping with at most m classes (each from `partitions_of`), up to
    # the Cauchy ceiling stable_from once had, max(n, 1 + the largest
    # coefficient gap to the polynomial), capped at 300 folds
    graphs = VALUE_GROUPS[group]()
    assert len(graphs) == {"zoo": 10, "pins": 160, "random": 40, "wide": 3}[group]
    for name, g in graphs.items():
        result = fvs1_dp_polynomial(g)
        d, dp = result.decomposition, result.dp_polynomial
        counts = []
        for spec in partitions_of(d.alphas[1:]):
            parts = spec.parts
            grouping = tuple(next(i for i, p in enumerate(parts) if v in p) for v in d.alphas[1:])
            counts.append((len(parts), avoidance_count(d, grouping)))
        gap = max(abs(a - b) for _, c in counts for a, b in zip(c.coeffs, dp.coeffs))
        for m in range(1, min(max(g.n, 1 + gap), 300) + 1):
            assert result.value_at(m) == min(c(m) for s, c in counts if s <= m), (name, m)
        top = result.stable_from
        if top > len(result.partition.parts):
            assert result.value_at(top - 1) < dp(top - 1), name
        assert count_colorings(g, result.witness_cover(top)) == dp(top), name


@pytest.mark.parametrize("group", sorted(VALUE_GROUPS))
def test_the_witness_cover_counts_the_value_at_every_fold(group):
    # below stable_from the witness is the shift cover of the least count's
    # grouping, the center in its class 0, so it has no more parts than m;
    # `partition` is the least of the tied star partitions
    for name, g in VALUE_GROUPS[group]().items():
        result = fvs1_dp_polynomial(g)
        assert result.partition == star_partitions(result)[0], name
        for m in range(1, 7):
            assert count_colorings(g, result.witness_cover(m)) == result.value_at(m), (name, m)
        with pytest.raises(OutOfRange):
            result.witness_cover(0)
