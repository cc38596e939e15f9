import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpchroma import cli
from dpchroma.cli import main
from dpchroma.covers import SEARCH_BUDGET, min_over_covers
from dpchroma.graphs import GRAPH_VERTEX_LIMIT, Graph
from dpchroma.poly import M


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dp_exact(capsys):
    code, out, _ = run(capsys, "dp-exact", "theta:2,2,2", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == "18"
    assert payload["witness"]["m"] == 3
    assert len(payload["witness"]["twists"]) == 2


def test_compare_csv_rows(capsys):
    code, out, _ = run(capsys, "compare", "theta:2,2,3", "--m", "2..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,P,P_DP,equal,gap,route"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][:4] == ["2", "0", "0", "true"]
    for row in rows[1:]:  # m = 3, 4, 5: strictly below the chromatic value
        assert int(row[2]) < int(row[1])


def test_compare_exact_matches_formula(capsys):
    code, formula_out, _ = run(capsys, "compare", "theta:2,2,2", "--m", "3..4")
    code2, exact_out, _ = run(
        capsys, "compare", "theta:2,2,2", "--m", "3..4", "--exact"
    )
    assert code == code2 == 0
    strip_route = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip_route(formula_out) == strip_route(exact_out)


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "--edges", "1")
    assert code == 0 and "least integer above 1" in out
    code, out, _ = run(capsys, "threshold", "--edges", "8", "--format", "json")
    payload = json.loads(out)
    assert payload["least_integer_above"] == 8


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "theta:2,2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "eventually-less"
    assert payload["empirical_bound"] == 3


def test_dp_formula_routes(capsys):
    code, out, _ = run(capsys, "dp-formula", "theta:2,2,2", "--m", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "18"
    code, out, _ = run(capsys, "dp-formula", "theta:2,3,3,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "feedback-vertex-one"


def test_chrom_from_file(tmp_path, capsys):
    path = tmp_path / "triangle.graph"
    path.write_text("n 3\ne a b\ne a c\ne b c\n")
    code, out, _ = run(capsys, "chrom", str(path), "--m", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "6"


def test_usage_and_input_errors(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "chrom", "/nonexistent/file.graph")
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, "dp-exact", "theta:2,2,2", "--m", "3", "--budget", "2")
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, "chrom", "theta:1,1,2")
    assert code == 2
    code, _, err = run(capsys, "compare", "theta:2,2,2", "--m", "5..3")
    assert code == 2


def test_dp_formula_labels_the_value_at_a_fold(capsys):
    # theta:2,2,2,2 has a one-vertex feedback set; its polynomial is proven
    # from m = 21, and below that the least row gives the value (24 at m = 3)
    for m, value, label in (("3", "24", "fvs1-least-row"), ("21", "58047717", "fvs1")):
        code, out, _ = run(capsys, "dp-formula", "theta:2,2,2,2", "--m", m)
        assert code == 0 and out.splitlines()[-1] == f"P_DP(theta:2,2,2,2, {m}) = {value}  [{label}]"
        code, out, _ = run(capsys, "dp-formula", "theta:2,2,2,2", "--m", m, "--format", "json")
        assert code == 0 and json.loads(out)["value_route"] == label
    code, out, _ = run(capsys, "dp-formula", "theta:2,2,3", "--m", "5", "--format", "json")
    assert json.loads(out)["value_route"] == "parity-case-2"


def test_large_folds_are_refused_in_one_line(capsys):
    import time

    for m in ("2000", "1000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "dp-exact", "theta:2,2,2", "--m", m)
        assert time.perf_counter() - start < 5, m
        assert (code, out) == (2, "")
        assert err.startswith("dpchroma: search budget exceeded:")
        assert err.count("\n") == 1 and "the budget of 10000000" in err


def test_dp_formula_rejects_non_positive_folds_on_both_routes(capsys):
    bowtie = str(Path(__file__).parent / "golden" / "bowtie.txt")
    for source in ("theta:2,2,3", bowtie):  # parity case, feedback vertex one
        for m in ("0", "-2"):
            code, out, err = run(capsys, "dp-formula", source, "--m", m)
            assert (code, out, err) == (2, "", "dpchroma: m must be positive\n")


def test_dp_exact_rejects_non_positive_folds(capsys):
    bowtie = str(Path(__file__).parent / "golden" / "bowtie.txt")
    for source in ("theta:2,2,2", bowtie):  # a Theta graph and a bowtie, one counting plan
        for m in ("0", "-1"):
            code, out, err = run(capsys, "dp-exact", source, "--m", m)
            assert (code, out, err) == (2, "", "dpchroma: m must be positive\n")


def test_chrom_and_theta_chrom_reject_non_positive_folds(capsys, monkeypatch):
    """Refused before the polynomial is built, as `dp-formula` refuses:
    `chrom theta:2,2,2 --m -3` printed a value of -1308 and exited 0."""
    def no_polynomial(*args):
        raise AssertionError("the polynomial was built for a refused fold")

    monkeypatch.setattr("dpchroma.cli.chromatic_polynomial", no_polynomial)
    monkeypatch.setattr("dpchroma.cli.theta_chromatic", no_polynomial)
    for command in ("chrom", "theta-chrom"):
        for m in ("0", "-3"):
            code, out, err = run(capsys, command, "theta:2,2,2", "--m", m)
            assert (code, out, err) == (2, "", "dpchroma: m must be positive\n")


def test_formula_routes_reject_a_graph_with_no_vertices(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("n 0\n")
    for argv in (("dp-formula", str(path)), ("compare", str(path), "--m", "3")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "dpchroma: graph has no vertices\n")
    code, out, _ = run(capsys, "dp-exact", str(path), "--m", "3")
    assert code == 0 and out.startswith(f"P_DP({path}, 3) = 1 ")


def cycle_file(tmp_path, n: int) -> str:
    path = tmp_path / f"c{n}.graph"
    path.write_text(f"n {n}\n" + "".join(f"e c{i} c{(i + 1) % n}\n" for i in range(n)))
    return str(path)


def test_compare_on_a_1200_vertex_cycle(tmp_path, capsys):
    code, out, _ = run(capsys, "compare", cycle_file(tmp_path, 1200), "--m", "3")
    assert code == 0
    assert out.splitlines()[1].startswith(f"3,{2**1200 + 2},")


def test_chrom_vertex_limit(tmp_path, capsys):
    # the transfer's work meter bounds every chrom, so chrom takes no --limit
    path = cycle_file(tmp_path, 17)
    code, out, _ = run(capsys, "chrom", path, "--m", "2")
    assert code == 0 and out.splitlines()[-1] == f"P({path}, 2) = 0"
    code, out, err = run(capsys, "chrom", path, "--limit", "17")
    assert (code, out) == (2, "")
    assert err.endswith("dpchroma: error: unrecognized arguments: --limit 17\n")


def test_chrom_on_a_long_cycle_within_the_stack(tmp_path, capsys):
    path = cycle_file(tmp_path, 400)
    code, out, _ = run(capsys, "chrom", path, "--m", "3")
    assert code == 0
    assert out.splitlines()[-1] == f"P({path}, 3) = {2**400 + 2}"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "poly")
    assert code == 0
    assert "checks passed" in out


def test_verify_all_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    summary = out.strip().splitlines()[-1]
    total = summary.split("/")[1].split()[0]
    assert summary.startswith(f"{total}/")  # no failures


def test_json_output_is_deterministic(capsys):
    args = ("dp-exact", "theta:2,2,3", "--m", "3", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, parallel, _ = run(capsys, *args, "--workers", "2")
    assert first == parallel


def test_verify_json_is_deterministic(capsys):
    args = ("verify", "--suite", "precolor", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["failed"] == 0
    for check in payload["checks"][:3]:
        assert set(check) == {"name", "rule", "instance", "expected", "actual", "pass"}


def test_scan_takes_no_fold_cap(capsys):
    # the certificate fold is computed, so there is no sweep to cap
    code, out, err = run(capsys, "scan", "theta:2,2,3", "--max-m", "64")
    assert (code, out) == (2, "")
    assert err.endswith("dpchroma: error: unrecognized arguments: --max-m 64\n")
    code, out, _ = run(capsys, "scan", "theta:2,2,4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "scan",
        "spec": "theta:2,2,4",
        "kind": "eventually-less",
        "witness_path": 2,
        "empirical_bound": 2,
    }


def test_search_budget_below_one_is_rejected(capsys):
    for argv in (
        ("dp-exact", "theta:2,2,2", "--m", "3"),
        ("compare", "theta:2,2,2", "--m", "3", "--exact"),
        ("compare", "theta:2,2,2", "--m", "3"),
    ):
        for budget in ("0", "-1", "-5"):
            code, out, err = run(capsys, *argv, "--budget", budget)
            want = f"dpchroma: --budget must be positive, not {budget}\n"
            assert (code, out, err) == (2, "", want), argv
    code, out, err = run(capsys, "dp-exact", "theta:2,2,2", "--m", "3", "--budget", "2")
    assert (code, out) == (2, "")
    assert err == "dpchroma: search budget exceeded: 18 covers exceed the budget of 2\n"
    code, out, _ = run(capsys, "dp-exact", "theta:2,2,2", "--m", "3", "--budget", "18")
    assert code == 0 and out.startswith("P_DP(theta:2,2,2, 3) = 18 ")


def test_one_default_search_budget():
    want = inspect.signature(min_over_covers).parameters["budget"].default
    assert want == SEARCH_BUDGET == 10_000_000
    for command in ("dp-exact", "compare"):
        assert dict(cli._arguments(command))["--budget"]["default"] == SEARCH_BUDGET, command
        assert cli.parse_args([command, "theta:2,2,2", "--m", "3"]).budget == SEARCH_BUDGET, command


def test_worker_count_errors_name_the_flag(capsys):
    for workers in ("0", "-3"):
        argv = ("dp-exact", "theta:2,2,2", "--m", "3", "--workers", workers)
        want = f"dpchroma: --workers must be positive, not {workers}\n"
        assert run(capsys, *argv) == (2, "", want)


def test_a_bad_worker_count_is_refused_before_the_graph_loads(monkeypatch, capsys):
    # as a bad --budget is: a long Theta spec takes seconds to build
    def no_graph(source):
        raise AssertionError(f"{source} was loaded")

    monkeypatch.setattr(cli, "load_graph", no_graph)
    argv = ("dp-exact", "theta:2,3,1000000", "--m", "3", "--workers", "0")
    assert run(capsys, *argv) == (2, "", "dpchroma: --workers must be positive, not 0\n")


@pytest.mark.parametrize("count", ["\u0663", "3_000", "+3", "-3", "\uff13"])
def test_a_vertex_count_is_ascii_digits(count, tmp_path, capsys):
    # int() reads the Arabic-Indic three, the fullwidth three, '_' and a sign
    path = tmp_path / "count.graph"
    path.write_text(f"n {count}\ne a b\n", encoding="utf-8")
    code, out, err = run(capsys, "chrom", str(path))
    assert (code, out) == (2, "")
    assert err == f"dpchroma: malformed graph file {str(path)!r}: cannot parse graph line {f'n {count}'!r}\n"


@pytest.mark.parametrize(
    "spec", ["theta:\u0662,+3, 2_0", "theta:\u0662,3,2", "theta:2,+3,2", "theta:2,3, 2", "theta:2,3,2_0", "theta:2,-3,2"]
)
def test_theta_path_lengths_are_ascii_digits(spec, capsys):
    for command in ("theta-chrom", "dp-formula"):
        assert run(capsys, command, spec) == (2, "", f"dpchroma: cannot parse theta spec {spec!r}\n")


def test_the_environment_sets_no_worker_count(monkeypatch, capsys):
    # only `--workers` and `workers=` start a process pool
    searches = (
        ("dp-exact", "theta:2,2,2", "--m", "4", "--format", "json"),
        ("compare", "theta:2,2,2", "--m", "3..4", "--exact"),
    )
    g = Graph.from_text((Path(__file__).parent / "golden" / "bowtie.txt").read_text())

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.delenv("DPCHROMA_WORKERS", raising=False)
    printed = [run(capsys, *argv) for argv in searches]
    assert [code for code, _, _ in printed] == [0, 0]
    found = min_over_covers(g, 4)
    for value in ("abc", "4"):
        monkeypatch.setenv("DPCHROMA_WORKERS", value)
        assert [run(capsys, *argv) for argv in searches] == printed, value
        assert min_over_covers(g, 4) == found, value


def test_threshold_past_the_float_range_is_one_line(capsys):
    edges = str(10**400)
    code, out, err = run(capsys, "threshold", "--edges", edges)
    want = "dpchroma: edge count too large for a floating-point threshold\n"
    assert (code, out, err) == (2, "", want)
    code, out, _ = run(capsys, "threshold", "--edges", str(10**300), "--format", "json")
    assert code == 0 and json.loads(out)["threshold"] == "1.13459265711e+300"


def test_fold_range_that_is_not_a_number_is_one_line(capsys):
    for text in ("3..x", "x", "3..", "..3", "3...5"):
        code, out, err = run(capsys, "compare", "theta:2,2,2", "--m", text)
        assert (code, out, err) == (2, "", f"dpchroma: bad fold range {text!r}\n"), text
    code, out, _ = run(capsys, "compare", "theta:2,2,2", "--m", "3..4")
    assert code == 0 and out.count("\n") == 3


def test_a_closed_pipe_is_not_a_failed_check():
    """A reader that takes one line and closes the pipe (`| head -1`) ends
    the run with 141, 128 + SIGPIPE, and nothing on stderr.  The output,
    about 330 kB, is larger than a pipe's buffer, so the writer is still
    writing when the reader leaves."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "dpchroma", "verify", "--suite", "theta-identity", "--format", "json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_counts_past_the_digit_limit_print(tmp_path, capsys):
    """A count of 4,517 digits prints, past the interpreter's default limit
    of 4,300 on int-to-str conversion, and `main` leaves the process's
    limit as it found it."""
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "theta-chrom", "theta:2,2,15000", "--m", "3", "--format", "json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    value = json.loads(out)["value"]
    path = cycle_file(tmp_path, 15000)
    code, out, _ = run(capsys, "dp-exact", path, "--m", "3", "--format", "json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    minimum = json.loads(out)["minimum"]
    sys.set_int_max_str_digits(0)
    try:
        assert int(value) == 6 * 2**15000 + 6
        assert int(minimum) == 2**15000 - 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_running_out_of_memory_is_one_line(monkeypatch, capsys):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "chromatic_polynomial", exhausted)
    code, out, err = run(capsys, "chrom", "theta:2,2,2")
    assert (code, out, err) == (2, "", "dpchroma: out of memory: the input is too large\n")


def test_too_deep_a_recursion_is_one_line(monkeypatch, capsys):
    # a traceback would exit 1, the code of a failed verify check
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "min_over_covers", too_deep)
    code, out, err = run(capsys, "dp-exact", "theta:2,2,2", "--m", "2")
    assert (code, out, err) == (2, "", "dpchroma: recursion too deep: the input is too large\n")


def test_an_unbounded_vertex_count_is_one_line(tmp_path, capsys):
    # refused before the file's isolated labels are made, not by memory
    path = tmp_path / "huge.graph"
    path.write_text("n 1000000000000\ne a b\n")
    code, out, err = run(capsys, "chrom", str(path))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"dpchroma: graph file {str(path)!r} is too large: ")
    assert err.endswith(f"1,000,000,000,000 vertices exceed GRAPH_VERTEX_LIMIT = {GRAPH_VERTEX_LIMIT:,}\n")


def test_a_second_vertex_count_line_is_refused(tmp_path, capsys):
    # with the last count line winning, this file would read as 3 vertices
    path = tmp_path / "two-counts.graph"
    path.write_text("n 2\nn 3\ne a b\n")
    code, out, err = run(capsys, "chrom", str(path))
    assert (code, out) == (2, "")
    assert err == f"dpchroma: malformed graph file {str(path)!r}: second 'n <count>' line 'n 3'\n"


def test_dp_formula_on_a_star_whose_groupings_all_tie(tmp_path, monkeypatch, capsys):
    # every grouping of K_{1,9}'s leaves ties: the route counts the
    # Bell(10) = 115,975 star partitions of its Bell(9) = 21,147 groupings
    path = tmp_path / "k19.graph"
    path.write_text("n 10\n" + "".join(f"e c x{i}\n" for i in range(9)))
    routes = []

    def recorded(g):
        routes.append(route(g))
        return routes[-1]

    route = cli.dp_formula_route
    monkeypatch.setattr(cli, "dp_formula_route", recorded)
    code, out, _ = run(capsys, "dp-formula", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["maximizers"] == 115_975
    assert routes[0].maximizers == 115_975
    assert payload["partition"] == [["c"] + [f"x{i}" for i in range(9)]]
    want = [str(c) for c in (M * (M - 1) ** 9).coeffs]
    assert payload["polynomial"]["coefficients"] == want
