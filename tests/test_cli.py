import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpchroma.cli import build_command_parser, main
from dpchroma.covers import SEARCH_BUDGET, min_over_covers


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
    # theta:2,2,2,2 has a one-vertex feedback set; its polynomial is proven from m = 21
    for m, label in (("3", "fvs1(below-stabilization)"), ("21", "fvs1")):
        code, out, _ = run(capsys, "dp-formula", "theta:2,2,2,2", "--m", m)
        assert code == 0 and out.splitlines()[-1].endswith(f"  [{label}]")
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
    # the transfer's work meter bounds every chrom, so there is no vertex cap
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
    for command, extra in (("dp-exact", ["--m", "3"]), ("compare", ["--m", "3"])):
        args = build_command_parser(command).parse_args(["theta:2,2,2", *extra])
        assert args.budget == SEARCH_BUDGET, command


def test_worker_count_errors_name_the_flag_or_the_variable(monkeypatch, capsys):
    monkeypatch.delenv("DPCHROMA_WORKERS", raising=False)
    for workers in ("0", "-3"):
        argv = ("dp-exact", "theta:2,2,2", "--m", "3", "--workers", workers)
        want = f"dpchroma: --workers must be positive, not {workers}\n"
        assert run(capsys, *argv) == (2, "", want)
    monkeypatch.setenv("DPCHROMA_WORKERS", "abc")
    want = "dpchroma: DPCHROMA_WORKERS must be an integer, not 'abc'\n"
    for argv in (
        ("dp-exact", "theta:2,2,2", "--m", "3"),
        ("compare", "theta:2,2,2", "--m", "3", "--exact"),
    ):
        assert run(capsys, *argv) == (2, "", want)


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
