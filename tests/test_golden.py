"""Golden CLI outputs: every command, byte for byte.

Each case runs `dpchroma.cli.main` in-process from `tests/golden/` (so
graph files are named relatively and the output does not depend on the
checkout path) and compares exit code, stdout and stderr with
`tests/golden/expected.json`.  Refactors must leave these bytes alone;
regenerate the file with `PYTHONPATH=src python tests/test_golden.py`
only when an output change is intended.
"""

import builtins
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from dpchroma.cli import COMMANDS, main

GOLDEN_DIR = Path(__file__).parent / "golden"
EXPECTED = GOLDEN_DIR / "expected.json"

CASES = {
    # chrom
    "chrom-text": ["chrom", "theta:2,2,3", "--m", "3"],
    "chrom-json": ["chrom", "bowtie.txt", "--m", "4", "--format", "json"],
    # theta-chrom
    "theta-chrom-text": ["theta-chrom", "theta:2,3,3", "--m", "5"],
    "theta-chrom-json": ["theta-chrom", "theta:2,3,3,4", "--format", "json"],
    # dp-exact: a Theta graph, the bowtie (|S| = 1), K4 (|S| = 2)
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
    "scan-fold-two-text": ["scan", "theta:2,2,4"],
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
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden_env, capsys, monkeypatch):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], capsys, monkeypatch) == expected


def test_every_case_has_an_expected_output():
    assert sorted(json.loads(EXPECTED.read_text(encoding="utf-8"))) == sorted(CASES)


# SHA-256 of the `dp-exact <spec> --m <m> --format json` stdout of every
# Theta graph in the twist-search benchmark's grid (theta:a,b,c with
# 2 <= a <= b <= c <= 4) at m = 3 and 4, recorded while full Theta covers
# still had a counting plan of their own (a path transfer from the colors
# of u and w).  The cases above hold only two of these outputs.
THETA_GRID_DIGESTS = {
    "theta:2,2,2 3": "262b4ff80bbf590ee60a18017eba1203ca7adc0db0deece5c960ece4f7215781",
    "theta:2,2,2 4": "cac67fb28dbfbb1ffcc176145a07d5402b459067603e80f74526cd76d51b9cfb",
    "theta:2,2,3 3": "f0fbec246cc8f3a5faf2c26b63775308317adc4a50dbc7516cb711809cc21d25",
    "theta:2,2,3 4": "9ab466de6a3637f84d816a800063d9f4d239679a57b9b30784b9fed0dedc6850",
    "theta:2,2,4 3": "fd866a50a7e40f6dffdc028603d47317e5e4129115ed7980686ca1a060615e8c",
    "theta:2,2,4 4": "4006e92563551dbfda9483e4cadc3e5567270b3769914df2171c9d7f56cbad8c",
    "theta:2,3,3 3": "ee83bf397198926ae097e67b85772d1b59c390683ce6016ca6a3f638f62253eb",
    "theta:2,3,3 4": "3cd782fe87d2f861f9d386055c16bc47f44ab029f9a1851e1166fddcb843bfc0",
    "theta:2,3,4 3": "7a58c0288f201aeedf3741be8373804afbe763fd169b32d147c47f97500b2f76",
    "theta:2,3,4 4": "aa016ff576bf6abd2a3da38506490dd8f8454c356114cc868ac03865987cfdff",
    "theta:2,4,4 3": "7ecd28e3afb2f2fa75b7eeed58f52ee14499f595d0c5487abcbcd0f0320eb20f",
    "theta:2,4,4 4": "7d95cf003213a2339083c48dc92a5296b82db64ed42c895be9eca81e306fed0d",
    "theta:3,3,3 3": "1d38729d7aae79973989e3609835ef60ed03681f240c7734159217da3e290259",
    "theta:3,3,3 4": "b7dbf56f9430fe9f8ac8845a8ad490593c6a747fa8377e3a176481c8c2ddc7d0",
    "theta:3,3,4 3": "6f09352b0eae06b97e08e87e35ff709e6a02e110d03251ea9e80c2b91c5aca55",
    "theta:3,3,4 4": "fa3a29359d8f822a53ac9c538fc8ab8af65c1ac3d8f3a3b4334588882985963c",
    "theta:3,4,4 3": "a49ed307d7f54959a784263fe73a9c592753c2c7a7189780f1629c0e424863f4",
    "theta:3,4,4 4": "00ad0d2e85e708ec7bc78a2d0152094c500d22f2e3fd35f821b88cf58956898e",
    "theta:4,4,4 3": "49865badac363d29d32401b9dfa27d8a085fd0518455d2dc8acebacc908e2a15",
    "theta:4,4,4 4": "b6e6f5c0b0317ad9544a82a4a920ca09e2bc3e0758b17b1a6afbde69a65b71c3",
}


def test_theta_grid_dp_exact_output_is_pinned(golden_env, capsys):
    grid = [(a, b, c) for a in range(2, 5) for b in range(a, 5) for c in range(b, 5)]
    assert list(THETA_GRID_DIGESTS) == [f"theta:{a},{b},{c} {m}" for a, b, c in grid for m in (3, 4)]
    for key, digest in THETA_GRID_DIGESTS.items():
        spec, m = key.split()
        assert main(["dp-exact", spec, "--m", m, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


# SHA-256 of the stdout of `dpchroma --help` and `dpchroma <command> --help`
# at COLUMNS=80, recorded while each command still had an argparse parser
# of its own.  argparse writes help with `file.write`, not `print`, so
# these are pinned here rather than as cases above.
HELP_DIGESTS = {
    "--help": "914ce1a459608d0fe0644f621233cb961cb7f16c974fa4a7d581ac56517fb69b",
    "chrom --help": "6ca4e154a2314f511f915681fcfe4693138127d2be2d86559a9b924f2ee407f5",
    "theta-chrom --help": "f42995ca5bc32f0aa487496aee6cf18bb68841a11dd30ffac685ed890085516e",
    "dp-exact --help": "991ca7f3eedba68e908091722738946d584e6d7c59e74ba123b99cf0f5314b3f",
    "dp-formula --help": "2b543a8b61c06afbe79a23caf53d523fa06628a9f6b4262781a86272bf41bcc4",
    "compare --help": "3589673dc4e9ad87ba4c20db69ae9179ae1a38ae5549892016fdd6a60331047c",
    "verify --help": "42c707f4228c6065e14057b478dd756c8ce98d72c787a629e46a932925f986be",
    "scan --help": "6872980a8ad3f72aadd0920b07dad7ca08a75b7b91846d540f5263c53766402a",
    "threshold --help": "a441445a8173ebce87a56e86a73ef9c6612a1c068ac73c0fdaf7e6639a497fe9",
}


def test_help_output_is_pinned(golden_env, capsys):
    assert list(HELP_DIGESTS) == ["--help"] + [f"{name} --help" for name in COMMANDS]
    for key, digest in HELP_DIGESTS.items():
        assert main(key.split()) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


if __name__ == "__main__":
    import contextlib
    import io

    os.chdir(GOLDEN_DIR)
    os.environ["COLUMNS"] = "80"
    results = {}
    for name, argv in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        results[name] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
