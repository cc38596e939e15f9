"""Golden CLI outputs: every command, byte for byte.

Each case runs `dpchroma.cli.main` in-process from `tests/golden/` (so
graph files are named relatively and the output does not depend on the
checkout path) and compares exit code, stdout and stderr with
`tests/golden/expected.json`.  Refactors must leave these bytes alone;
regenerate the file with `PYTHONPATH=src python tests/test_golden.py`
only when an output change is intended.
"""

import builtins
import json
import os
import sys
from pathlib import Path

import pytest

from dpchroma.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
EXPECTED = GOLDEN_DIR / "expected.json"

CASES = {
    # chrom
    "chrom-text": ["chrom", "theta:2,2,3", "--m", "3"],
    "chrom-json": ["chrom", "bowtie.txt", "--m", "4", "--format", "json"],
    # theta-chrom
    "theta-chrom-text": ["theta-chrom", "theta:2,3,3", "--m", "5"],
    "theta-chrom-json": ["theta-chrom", "theta:2,3,3,4", "--format", "json"],
    # dp-exact: Theta transfer, feedback-vertex route, brute force
    "dp-exact-theta-text": ["dp-exact", "theta:2,2,3", "--m", "3"],
    "dp-exact-theta-json": ["dp-exact", "theta:2,2,3", "--m", "3", "--format", "json"],
    "dp-exact-bowtie-text": ["dp-exact", "bowtie.txt", "--m", "4"],
    "dp-exact-bowtie-json": ["dp-exact", "bowtie.txt", "--m", "3", "--format", "json"],
    "dp-exact-k4-text": ["dp-exact", "k4.txt", "--m", "3", "--symmetry", "tree-canonical"],
    "dp-exact-k4-json": ["dp-exact", "k4.txt", "--m", "3", "--format", "json"],
    # dp-formula: parity case and feedback-vertex-one routes
    "dp-formula-theta-text": ["dp-formula", "theta:2,2,3", "--m", "5"],
    "dp-formula-theta-json": ["dp-formula", "theta:2,3,4", "--m", "6", "--format", "json"],
    "dp-formula-fvs1-text": ["dp-formula", "theta:2,3,3,3"],
    "dp-formula-fvs1-json": ["dp-formula", "bowtie.txt", "--m", "5", "--format", "json"],
    "dp-formula-tree-json": ["dp-formula", "tree.txt", "--m", "3", "--format", "json"],
    # compare: formula, exhaustive search, feedback-vertex-one
    "compare-formula-csv": ["compare", "theta:2,2,3", "--m", "2..5"],
    "compare-formula-json": ["compare", "theta:2,3,3", "--m", "2..4", "--format", "json"],
    "compare-formula-text": ["compare", "theta:2,2,2", "--m", "1..4", "--format", "text"],
    "compare-exact-csv": ["compare", "theta:2,2,2", "--m", "3..4", "--exact"],
    "compare-exact-json": ["compare", "bowtie.txt", "--m", "2..3", "--exact", "--format", "json"],
    "compare-fvs1-csv": ["compare", "bowtie.txt", "--m", "2..8"],
    "compare-fvs1-json": ["compare", "theta:2,3,3,3", "--m", "3..5", "--format", "json"],
    "compare-fvs1-text": ["compare", "tree.txt", "--m", "1..3", "--format", "text"],
    # verify
    "verify-precolor-json": ["verify", "--suite", "precolor", "--format", "json"],
    "verify-inclusion-exclusion-json": [
        "verify", "--suite", "inclusion-exclusion", "--format", "json"
    ],
    "verify-precolor-text": ["verify", "--suite", "precolor", "--seed", "7"],
    "verify-poly-text": ["verify", "--suite", "poly"],
    # scan
    "scan-text": ["scan", "theta:2,2,3"],
    "scan-json": ["scan", "theta:2,3,3", "--format", "json"],
    "scan-uncertified-text": ["scan", "theta:2,2,4", "--max-m", "2"],
    # threshold
    "threshold-text": ["threshold", "--edges", "8"],
    "threshold-json": ["threshold", "--edges", "3", "--format", "json"],
    # usage and input errors
    "error-no-command": [],
    "error-unknown-command": ["no-such-command"],
    "error-missing-option": ["dp-exact", "theta:2,2,2"],
    "error-missing-file": ["chrom", "no-such-file.txt"],
    "error-malformed-file": ["chrom", "malformed.txt"],
    "error-bad-theta": ["chrom", "theta:1,1,2"],
    "error-bad-range": ["compare", "theta:2,2,2", "--m", "5..3"],
    "error-budget": ["dp-exact", "theta:2,2,2", "--m", "3", "--budget", "2"],
    "error-dp-formula-out-of-scope": ["dp-formula", "k4.txt"],
    "error-compare-out-of-scope": ["compare", "k4.txt", "--m", "3"],
    "error-fold-zero": ["dp-formula", "theta:2,2,2", "--m", "0"],
}


def run_case(argv, capsys, monkeypatch):
    """Exit code and output of one case.  Commands return their output and
    `main` prints it, so a successful case writes stdout with one call."""
    stdout_prints = []

    def counting_print(*args, file=None, **kwargs):
        if file is None or file is sys.stdout:
            stdout_prints.append(args)
        real_print(*args, file=file, **kwargs)

    real_print = builtins.print
    monkeypatch.setattr(builtins, "print", counting_print)
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0:
        assert len(stdout_prints) == 1
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture
def golden_env(monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.delenv("DPCHROMA_WORKERS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden_env, capsys, monkeypatch):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], capsys, monkeypatch) == expected


def test_every_case_has_an_expected_output():
    assert sorted(json.loads(EXPECTED.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    import contextlib
    import io

    os.chdir(GOLDEN_DIR)
    os.environ.pop("DPCHROMA_WORKERS", None)
    os.environ["COLUMNS"] = "80"
    results = {}
    for name, argv in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        results[name] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
