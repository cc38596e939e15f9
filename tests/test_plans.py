"""Each per-input set-up is built once and reused.

`cli.main` reads a plain argv from its command's table with no parser,
and builds the whole parser on the first argv argparse must read, once
for the process.  A graph keeps its plans
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
    """A plain argv, cold or warm, constructs no `ArgumentParser`; the
    whole parser (one parser and one per command) is built once, on the
    first argv argparse must read (here `dp-exact` missing its `--m`), and
    a later call builds nothing."""
    inits = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        inits.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.setenv("COLUMNS", "80")
    name = "dp-formula-fvs1-json"
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    for _ in range(2):  # cold, then warm
        assert cli.main(list(CASES[name])) == 0
        assert capsys.readouterr().out == expected["stdout"]
        assert inits == []
    assert cli.main(["dp-exact", "theta:2,2,2"]) == 2
    assert len(inits) == 1 + len(cli.COMMANDS)
    for argv in (CASES[name], ["dp-exact", "theta:2,2,2"], ["--help"], ["dp-exact", "theta:2,2,2", "--m=3"]):
        cli.main(list(argv))
    assert len(inits) == 1 + len(cli.COMMANDS)
    capsys.readouterr()
    assert cli.main(list(CASES[name])) == 0
    assert capsys.readouterr().out == expected["stdout"]


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
    plain = 0
    for argv in [*cases, *_random_argvs(random.Random(51), 3000)]:
        assert _parsed(cli.parse_args, argv, capsys) == _parsed(whole.parse_args, argv, capsys), argv
        if argv and argv[0] in cli.COMMANDS:
            plain += cli.read_plain(argv[0], argv[1:]) is not None
    assert plain > 100  # the table's own path is drawn, not only argparse's


def _random_argvs(rng, count):
    """Seeded argvs for every command, drawn from `cli.COMMANDS`: each
    command's flags with good and bad values, other spellings of them
    (`--opt=v`, a prefix), repeats, `--`, `-h` and extra tokens, some left
    plain on purpose."""
    bad = ["-3", "3.5", "", "bogus", "0", "--m"]
    positional = ["theta:2,2,2", "bowtie.txt", "", "-3", "a b"]
    for _ in range(count):
        name = rng.choice(list(cli.COMMANDS))
        arguments = cli._arguments(name)
        tokens = []
        for flag, keywords in arguments:
            if not flag.startswith("-"):
                tokens.append([rng.choice(positional[:2])])
            elif "action" not in keywords:
                good = list(keywords.get("choices") or (["3", "7"] if keywords.get("type") is int else ["3..4", "2"]))
                if keywords.get("required") or rng.random() < 0.4:
                    tokens.append([flag, rng.choice(good)])
        flags = [flag for flag, _ in arguments if flag.startswith("-")] + ["-h", "--help"]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):  # spoil it
            option = rng.choice(flags)
            value = rng.choice(bad + positional)
            tokens.append(
                rng.choice(
                    [
                        [option, value],
                        [f"{option}={rng.choice(bad + ['json', '3'])}"],
                        [option[: rng.randint(1, len(option) - 1)], "3"],
                        [option],
                        ["--"],
                        ["-h"],
                        [rng.choice(positional)],
                        tokens[0] if tokens else ["--help"],  # a repeat
                    ]
                )
            )
        rng.shuffle(tokens)
        yield [name, *(token for group in tokens for token in group)]


def test_a_warm_plain_argv_runs_no_argparse_parse(monkeypatch, capsys):
    """A plain argv is read from its command's table alone, cold or warm;
    every other spelling goes through argparse."""
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    plain = ["dp-exact", "theta:2,2,3", "--m", "3", "--format", "json"]
    expected = vars(cli.build_parser().parse_args(plain))
    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert vars(cli.parse_args(plain)) == expected  # cold: builds no parser, parses nothing
    assert vars(cli.parse_args(plain)) == expected
    assert cli.parse_args(["verify"]).suite == "all"
    assert calls == []
    fallbacks = [
        ["dp-exact", "theta:2,2,3", "--m=3"],
        ["dp-exact", "theta:2,2,3", "--m", "3", "--form", "json"],
        ["dp-exact", "theta:2,2,3", "--m", "3", "--m", "4"],
        ["dp-exact", "theta:2,2,3", "--m", "-3"],
        ["dp-exact", "--m", "3", "--", "theta:2,2,3"],
        ["compare", "theta:2,2,3", "--m", "3..4", "--exact"],
        ["dp-exact", "theta:2,2,3", "--m", "3.5"],
        ["dp-exact", "theta:2,2,3", "--m", "3", "--symmetry", "bogus"],
        ["dp-exact", "theta:2,2,3"],
        ["dp-exact", "theta:2,2,3", "--m", "3", "extra"],
        ["dp-exact", "-h"],
    ]
    for argv in fallbacks:
        calls.clear()
        try:
            cli.parse_args(argv)
        except SystemExit:
            pass
        assert calls, argv
    capsys.readouterr()


def test_fvs1_computes_the_frontier_order_once(monkeypatch):
    from dpchroma.verify import partition_weight_by_subsets

    orders = []
    original = chromatic._walk

    def counting(g):
        orders.append(g)
        return original(g)

    monkeypatch.setattr(chromatic, "_walk", counting)
    result = fvs1_dp_polynomial(fan(5))
    d = result.decomposition
    assert orders == []  # the leaf DP walks the forest's own descent
    # the subset-sum oracle and repeated precolored polynomials share one walk
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
    assert all(tables.values())  # one memo per fold


def test_a_counted_graph_pickles_and_the_pool_search_agrees():
    g = Graph.from_text((GOLDEN_DIR / "bowtie.txt").read_text())
    count_from_edge_perms(g, 4, [identity_perm(4)] * len(g.edges))
    chromatic.chromatic_polynomial(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and "_plans" not in vars(copy)
    assert copy.plan(covers._FeedbackPlan) is not g.plan(covers._FeedbackPlan)
    assert min_over_covers(g, 4, workers=2) == min_over_covers(g, 4, workers=1)
