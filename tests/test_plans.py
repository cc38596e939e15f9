"""Each per-input set-up is built once and reused.

`cli.main` builds the parser it needs, the named command's or the whole
one, on first use and keeps it for the process.  A graph keeps its plans
(`Graph.plan`): the colour-pattern transfer's step table and one
`_FeedbackPlan` per set of restricted vertices, which keeps one row table
per fold.  The plans are left out of the graph's pickled state, so a
process pool still receives the graph.
"""

import argparse
import json
import pickle
import random

from dpchroma import chromatic, cli, covers, verify
from dpchroma.analysis import fvs1_dp_polynomial
from dpchroma.chromatic import Precoloring, precolored_polynomial
from dpchroma.covers import (
    count_colorings,
    count_from_edge_perms,
    identity_perm,
    min_over_covers,
    random_cover,
)
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

from test_analysis import fan
from test_golden import CASES, EXPECTED, GOLDEN_DIR


def test_main_builds_each_parser_once_per_process(monkeypatch, capsys):
    """A call naming a command builds that command's parser alone; a call
    the whole parser must read (here `--help`) builds it; a later call
    builds nothing."""
    inits = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        inits.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser()
    per_build = len(inits)  # the parser and one per command
    assert per_build == 1 + len(cli.COMMANDS)
    cli._parser.cache_clear()
    inits.clear()
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.delenv("DPCHROMA_WORKERS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    name = "dp-formula-fvs1-json"
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    assert cli.main(list(CASES[name])) == 0
    assert capsys.readouterr().out == expected["stdout"]
    assert len(inits) == 1
    assert cli.main(["dp-exact", "theta:2,2,2"]) == 2
    assert len(inits) == 2
    assert cli.main(["--help"]) == 0
    assert len(inits) == 2 + per_build
    for argv in (CASES[name], ["dp-exact", "theta:2,2,2"], ["--help"]):
        cli.main(list(argv))
    assert len(inits) == 2 + per_build
    capsys.readouterr()
    assert cli.main(list(CASES[name])) == 0
    assert capsys.readouterr().out == expected["stdout"]


def test_a_command_parser_matches_its_subparser():
    whole = cli.build_parser()
    (commands,) = [a for a in whole._actions if a.dest == "command"]
    assert list(commands.choices) == list(cli.COMMANDS)
    for name, sub in commands.choices.items():
        assert cli.build_command_parser(name).format_help() == sub.format_help()


def _parsed(parse, argv, capsys):
    try:
        args = vars(parse(list(argv)))
    except SystemExit as exc:
        args = exc.code
    out = capsys.readouterr()
    return args, out.out, out.err


def test_parse_args_reads_argv_as_the_whole_parser_does(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    whole = cli.build_parser()
    cases = [
        ["dp-formula", "theta:2,2,2"],
        ["dp-formula", "--format", "json", "theta:2,2,2", "--m", "3"],
        ["dp-formula", "theta:2,2,2", "--form", "json"],
        ["dp-formula", "theta:2,2,2", "--bogus"],
        ["dp-formula", "theta:2,2,2", "extra"],
        ["dp-formula"],
        ["dp-formula", "-h"],
        ["dp-exact", "theta:2,2,2", "--m", "three"],
        ["dp-exact", "theta:2,2,2", "--m", "3", "--symmetry", "none", "--workers", "2"],
        ["compare", "theta:2,2,2", "--m", "3..4", "--exact", "--format", "json"],
        ["compare", "--help"],
        ["verify", "--suite", "no-such-suite"],
        ["verify", "--suite", "poly", "--seed", "7"],
        ["scan", "theta:2,2,2", "--format", "json"],
        ["threshold", "--edges", "4"],
        ["chrom", "theta:2,2,2", "--m", "9"],
        ["theta-chrom", "theta:2,2,2", "--m", "4"],
        ["--help"],
        ["no-such-command"],
        [],
        ["--", "dp-formula", "theta:2,2,2"],
    ]
    for argv in cases:
        assert _parsed(cli.parse_args, argv, capsys) == _parsed(whole.parse_args, argv, capsys), argv


def test_fvs1_computes_the_frontier_order_once(monkeypatch):
    from dpchroma.verify import partition_weight_by_subsets

    orders = []
    original = chromatic._transfer_steps

    def counting(g):
        orders.append(g)
        return original(g)

    monkeypatch.setattr(chromatic, "_transfer_steps", counting)
    result = fvs1_dp_polynomial(fan(5))
    d = result.decomposition
    assert orders == [d.forest]
    # the subset-sum oracle and repeated precolored polynomials reuse it
    assert partition_weight_by_subsets(d, result.partition) == result.weight
    center = d.alphas[0]
    for color in (1, 2):
        precolored_polynomial(d.forest, Precoloring({center: color}, d.forest.n))
    assert orders == [d.forest]


def test_verify_precolor_builds_one_feedback_plan_per_forest(monkeypatch):
    """Each forest's precolored vertices are the slots of its one plan,
    built through `Graph.plan(_FeedbackPlan, restricted)` and read at every
    fold, fold 1 included, where each is fixed to color 0."""
    counted, built = {}, []
    count, init = verify.precolored_count, covers._FeedbackPlan.__init__

    def counting(g, pc, m):
        counted.setdefault(id(g), (g, pc, []))[2].append(m)
        return count(g, pc, m)

    def building(self, g, restricted=()):
        built.append(g)
        init(self, g, restricted)

    monkeypatch.setattr(verify, "precolored_count", counting)
    monkeypatch.setattr(covers._FeedbackPlan, "__init__", building)
    checks = verify.run_suites(["precolor"], seed=20200801)
    assert checks and all(c.passed for c in checks)
    assert len(counted) == len(checks) == verify.PRECOLOR_SAMPLES
    for g, pc, folds in counted.values():
        assert len(folds) == 6 and g.feedback_set == ()
        restricted = tuple(sorted(g.index[v] for v in pc.assignment))
        args = (restricted,) if restricted else ()
        assert [key for key in g._plans if key[0] is covers._FeedbackPlan] == [
            (covers._FeedbackPlan, args)
        ]
        plan = g.plan(covers._FeedbackPlan, *args)
        assert plan.slots == restricted
        assert sorted(plan.tables) == sorted(folds)
    assert any(1 in folds and pc.assignment for _, pc, folds in counted.values())
    assert list(map(id, built)) == list(counted)


def test_one_feedback_plan_per_theta_graph_and_one_table_per_fold(monkeypatch):
    built = []
    init = covers._FeedbackPlan.__init__

    def building(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(covers._FeedbackPlan, "__init__", building)
    g = build_generalized_theta(ThetaSpec((2, 3, 3)))
    rng = random.Random(5)
    for m in (3, 4, 3):
        for _ in range(3):
            count_colorings(g, random_cover(g, m, rng))
    assert len(built) == 1 and built[0] is g
    tables = g.plan(covers._FeedbackPlan).tables
    assert sorted(tables) == [3, 4]
    assert all(rows for rows, _ in tables.values())  # one memo per fold


def test_a_counted_graph_pickles_and_the_pool_search_agrees(monkeypatch):
    monkeypatch.delenv("DPCHROMA_WORKERS", raising=False)
    g = Graph.from_text((GOLDEN_DIR / "bowtie.txt").read_text())
    count_from_edge_perms(g, 4, [identity_perm(4)] * len(g.edges))
    chromatic.chromatic_polynomial(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and "_plans" not in vars(copy)
    assert copy.plan(covers._FeedbackPlan) is not g.plan(covers._FeedbackPlan)
    assert min_over_covers(g, 4, workers=2) == min_over_covers(g, 4, workers=1)
