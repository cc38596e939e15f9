"""The package's value types are immutable NamedTuples.

A NamedTuple class is made without generated code, so importing the CLI
loads neither `dataclasses` nor `inspect`.  Each type keeps what its
callers read: assignment refuses, equal fields give equal objects with
equal hashes, the `Name(field=value, ...)` repr, and pickling.  A type that
checks its fields or caches properties is a NamedTuple of its fields and
a subclass whose `__new__` runs the checks.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dpchroma import analysis, chromatic, covers, graphs, verify
from dpchroma.analysis import (
    ChainCheck,
    SubsetCheck,
    TermDifference,
    classify_generalized,
    cover_loss_terms,
    cover_subset_audit,
    fvs1_dp_polynomial,
    loss_term_differences,
    theta_dp_formula,
)
from dpchroma.chromatic import Precoloring
from dpchroma.covers import (
    MinimizationResult,
    PartitionSpec,
    TwistProfile,
    count_colorings,
    identity_cover,
    random_cover,
)
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta, star_forest_decomposition
from dpchroma.verify import Check

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_generates_no_class_code():
    code = "import sys, dpchroma.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_leaves_the_verify_layer_out():
    # only `verify` and the whole parser load it, and `verify` then answers
    code = (
        "import contextlib, io, json, sys, dpchroma.cli\n"
        "print('dpchroma.verify' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = dpchroma.cli.main(['verify', '--suite', 'poly', '--format', 'json'])\n"
        "print(code, json.loads(out.getvalue())['suites'], 'dpchroma.verify' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "0 ['poly'] True"]


def test_the_verify_suite_choices_are_all_then_every_suite(monkeypatch, capsys):
    from dpchroma import cli

    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert suite.choices == ["all", *verify.SUITES]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    assert cli.main(["verify", "--suite", "nope"]) == 2
    names = ["all", *verify.SUITES]
    # the usage lines in full; the error line's quoting of the choices
    # differs between Python versions
    *usage, error = capsys.readouterr().err.splitlines()
    assert usage == [
        "usage: dpchroma verify [-h]",
        f"                       [--suite {{{','.join(names)}}}]",
        "                       [--seed SEED] [--format {text,json}]",
    ]
    head, _, choices = error.partition(" (choose from ")
    assert head == "dpchroma verify: error: argument --suite: invalid choice: 'nope'"
    assert choices.rstrip(")").replace("'", "").split(", ") == names


def _theta():
    return build_generalized_theta(ThetaSpec((2, 3, 4)))


def _counted_theta():
    # its plans built: the pickled copy leaves them out
    g = _theta()
    count_colorings(g, identity_cover(g, 3))
    chromatic.chromatic_polynomial(g)
    assert vars(g)["_plans"]
    return g


def _fan():
    # a hub joined to every vertex of the path p0-p1-p2: one feedback vertex
    vertices = ("h", "p0", "p1", "p2")
    return Graph(vertices, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))


# One instance of every value type, built afresh by each call.
EXAMPLES = {
    "ThetaSpec": lambda: ThetaSpec((2, 3, 4)),
    "Graph": _counted_theta,
    "StarDecomposition": lambda: star_forest_decomposition(_fan(), "h"),
    "FullCover": lambda: random_cover(_theta(), 3, random.Random(1)),
    "TwistProfile": lambda: TwistProfile((0, 2), 3, 1, 2),
    "PartitionSpec": lambda: PartitionSpec((frozenset({"h", "p1"}), frozenset({"p0"}))),
    "MinimizationResult": lambda: MinimizationResult(8, identity_cover(_theta(), 2), 1),
    "Precoloring": lambda: Precoloring({"p0": 1, "p2": 2}, 4),
    "ThetaDpFormula": lambda: theta_dp_formula(2, 3, 4),
    "CoverLossTerms": lambda: cover_loss_terms(2, 3, 4, 5),
    "TermDifference": lambda: TermDifference((1, 2), 3, 3, ">=", True, True),
    "ChainCheck": lambda: ChainCheck((1, 2), "l1 even", ">=", 4, 7, True),
    "LossTermReport": lambda: loss_term_differences(2, 3, 4, 5),
    "ParityClassification": lambda: classify_generalized(ThetaSpec((2, 3, 5))),
    "FeedbackPolynomialResult": lambda: fvs1_dp_polynomial(_fan()),
    "SubsetCheck": lambda: SubsetCheck(6, "short-cycle", "0", 0),
    "SubsetAuditReport": lambda: cover_subset_audit(
        random_cover(build_generalized_theta(ThetaSpec((2, 3, 5))), 3, random.Random(2))
    ),
    "Check": lambda: Check("poly-division", "exact_div(p*q, q) == p", "p", "1", "1", True),
}

# Types with a dict among their fields (or a field's fields), which a
# frozen dataclass could not hash either.
UNHASHABLE = {"FullCover", "MinimizationResult", "Precoloring", "SubsetAuditReport"}


def test_every_value_type_is_listed():
    named = {
        name
        for module in (analysis, chromatic, covers, graphs, verify)
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
        and not name.startswith("_") and value.__module__ == module.__name__
    }
    assert named == set(EXAMPLES) | {"EdgePairFamily"}
    assert len(EXAMPLES) == 18


def _holds_a_set(value) -> bool:
    """Whether repr(value) shows a set: two equal sets, one of them
    rebuilt by pickling, can list their members in different orders."""
    if isinstance(value, (set, frozenset)):
        return True
    return isinstance(value, tuple) and any(map(_holds_a_set, value))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_value_types_are_immutable_values(name):
    obj = EXAMPLES[name]()
    assert type(obj).__name__ == name
    for field in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1
    # the constructor again, on the same fields, runs the same checks
    again = type(obj)(*obj)
    other = EXAMPLES[name]()
    assert again == obj == other and again is not obj
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(again) == hash(obj) == hash(other)
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj) and copy == obj
    for field, theirs, ours in zip(obj._fields, copy, obj):
        if not _holds_a_set(ours):  # a set lists its members in table order
            assert repr(theirs) == repr(ours), field
    assert "_plans" not in getattr(copy, "__dict__", {})


def test_reprs_read_as_the_dataclass_reprs_did():
    assert repr(ThetaSpec((2, 3, 4))) == "ThetaSpec(lengths=(2, 3, 4))"
    assert repr(Graph(("b", "a"), ((0, 1),), ThetaSpec((1, 2)))) == (
        "Graph(vertices=('b', 'a'), edges=((1, 0),), theta=ThetaSpec(lengths=(1, 2)))"
    )
    assert repr(PartitionSpec((frozenset({"c"}), frozenset({"a"})))) == (
        "PartitionSpec(parts=(frozenset({'c'}), frozenset({'a'})))"
    )


def test_cached_properties_stay_per_instance():
    a, b = PartitionSpec((frozenset({"x"}),)), PartitionSpec((frozenset({"x"}),))
    assert a == b and a.shift == b.shift
    # each read is the caller's own: clearing one changes no later read
    want = dict(a.shift)
    a.shift.clear()
    assert a.shift == want and b.shift == want
    g, h = _theta(), _theta()
    assert g.index is g.index and g.index is not h.index
