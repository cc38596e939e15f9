"""Command-line front end.

Commands: chrom, theta-chrom, dp-exact, dp-formula, compare, verify, scan,
threshold.  Exit code 0 means success, 1 means a verification check
failed, 2 means a usage or input error, and 141 (128 + SIGPIPE) means the
reader closed stdout before the output was written, with nothing on
stderr.  All counts in JSON output are decimal strings so consumers never
face integer-width questions.  Each `cmd_*` computes and returns its JSON
payload and its text lines (`verify` also its exit code); `main` prints
one or the other, once.  A `main` call builds only the parser it needs,
the named command's or the whole one, on first use, and later calls in
the same process reuse it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .analysis import (
    FeedbackPolynomialResult,
    ThetaDpFormula,
    classify_generalized,
    fvs1_dp_polynomial,
    list_color_threshold,
    theta_dp_formula,
)
from .chromatic import chromatic_polynomial, theta_chromatic
from .covers import SEARCH_BUDGET, cover_to_json, min_over_covers, worker_count
from .errors import DpchromaError, OutOfRange, SearchBudgetExceeded
from .graphs import Graph, ThetaSpec, build_generalized_theta
from .poly import poly_to_json
from .verify import SUITES, run_suites

USAGE_ERROR = 2
CHECK_FAILED = 1


def load_graph(source: str) -> Graph:
    """A graph source is either `theta:l1,l2,...` or a graph file path."""
    if source.startswith("theta:"):
        return build_generalized_theta(ThetaSpec.parse(source))
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return Graph.from_text(handle.read())
    except OSError as exc:
        raise DpchromaError(f"cannot read graph file {source!r}: {exc}") from exc
    except ValueError as exc:
        raise DpchromaError(f"malformed graph file {source!r}: {exc}") from exc


def parse_m_range(text: str) -> tuple[int, int]:
    """Either a single fold `m` or an inclusive range `a..b`."""
    lo, dots, hi = text.partition("..")
    try:
        low, high = int(lo), int(hi if dots else lo)
    except ValueError:
        low = high = 0  # not a number: refused below
    if low < 1 or high < low:
        raise DpchromaError(f"bad fold range {text!r}")
    return low, high


def _polynomial_output(args, key: str, name: str, poly):
    """Payload and lines of `chrom` and `theta-chrom`."""
    payload = {"command": args.command, key: name, "polynomial": poly_to_json(poly)}
    lines = [f"P({name}, m) = {poly}"]
    if args.m is not None:
        value = poly(args.m)
        payload.update(m=args.m, value=str(value))
        lines.append(f"P({name}, {args.m}) = {value}")
    return payload, lines


def cmd_chrom(args):
    g = load_graph(args.source)
    check_fold(args.m)
    return _polynomial_output(args, "source", args.source, chromatic_polynomial(g))


def cmd_theta_chrom(args):
    spec = ThetaSpec.parse(args.spec)
    check_fold(args.m)
    return _polynomial_output(args, "spec", str(spec), theta_chromatic(spec))


def check_fold(m: int | None) -> None:
    """Refuse a fold below 1 before any polynomial or route is built."""
    if m is not None and m < 1:
        raise OutOfRange("m must be positive")


def check_budget(budget: int) -> None:
    if budget < 1:
        raise OutOfRange(f"--budget must be positive, not {budget}")


def cmd_dp_exact(args):
    check_budget(args.budget)
    g = load_graph(args.source)
    result = min_over_covers(
        g,
        args.m,
        symmetry=args.symmetry,
        budget=args.budget,
        workers=worker_count(args.workers),
    )
    witness = cover_to_json(result.cover)
    payload = {
        "command": "dp-exact",
        "source": args.source,
        "m": args.m,
        "symmetry": args.symmetry,
        "candidates": result.candidates,
        "minimum": str(result.value),
        "witness": witness,
    }
    lines = [
        f"P_DP({args.source}, {args.m}) = {result.value}"
        f"  [{result.candidates} covers examined]",
        json.dumps(witness),
    ]
    return payload, lines


def dp_formula_route(g: Graph) -> ThetaDpFormula | FeedbackPolynomialResult:
    """The formula route for g, chosen once per graph: the parity-case
    closed form for Theta(l1, l2, l3) with every l >= 2, otherwise the
    feedback-vertex-one polynomial."""
    spec = g.theta
    if spec is not None and spec.k == 3 and min(spec.lengths) >= 2:
        return theta_dp_formula(*sorted(spec.lengths))
    return fvs1_dp_polynomial(g)


def _formula_value(route: ThetaDpFormula | FeedbackPolynomialResult, m: int):
    """Value at m and its route label, as `compare` and `dp-formula --m` show it."""
    if isinstance(route, ThetaDpFormula):
        return route.value_at(m), f"parity-case-{route.case}"
    note = "fvs1" if m >= route.stable_from else "fvs1(below-stabilization)"
    return route.dp_polynomial(m), note


def cmd_dp_formula(args):
    g = load_graph(args.source)
    check_fold(args.m)  # before the route, which can be slow
    route = dp_formula_route(g)
    if isinstance(route, ThetaDpFormula):
        payload = {
            "command": "dp-formula",
            "source": args.source,
            "route": "theta-parity",
            "case": route.case,
            "valid_from": route.valid_from,
            "polynomial": poly_to_json(route.polynomial),
        }
        lines = [
            f"case {route.case} (valid for m >= {route.valid_from}):",
            f"P_DP({args.source}, m) = {route.polynomial}",
        ]
    else:
        payload = {
            "command": "dp-formula",
            "source": args.source,
            "route": "feedback-vertex-one",
            "stable_from": route.stable_from,
            "center": route.decomposition.center,
            "partition": [sorted(part) for part in route.partition.parts],
            "maximizers": len(route.maximizers),
            "weight": poly_to_json(route.weight),
            "polynomial": poly_to_json(route.dp_polynomial),
        }
        lines = [
            f"feedback vertex {route.decomposition.center!r};"
            f" winning partition {[sorted(p) for p in route.partition.parts]}",
            f"P_DP({args.source}, m) = {route.dp_polynomial}   (m >= {route.stable_from})",
        ]
    if args.m is not None:  # the label says whether the value is proven at m
        value, label = _formula_value(route, args.m)
        payload.update(m=args.m, value=str(value), value_route=label)
        lines.append(f"P_DP({args.source}, {args.m}) = {value}  [{label}]")
    return payload, lines


def cmd_compare(args):
    check_budget(args.budget)
    g = load_graph(args.source)
    low, high = parse_m_range(args.m)
    spec = g.theta
    chrom = theta_chromatic(spec) if spec is not None else chromatic_polynomial(g)
    route = None if args.exact else dp_formula_route(g)
    rows = []
    for m in range(low, high + 1):
        p = chrom(m)
        if route is None:
            dp, note = min_over_covers(g, m, budget=args.budget).value, "search"
        else:
            dp, note = _formula_value(route, m)
        rows.append(
            {
                "m": m,
                "P": str(p),
                "P_DP": str(dp),
                "equal": p == dp,
                "gap": str(p - dp),
                "route": note,
            }
        )
    if args.format == "text":
        lines = [
            f"m={r['m']}  P={r['P']}  P_DP={r['P_DP']}  gap={r['gap']}  [{r['route']}]"
            for r in rows
        ]
    else:
        lines = ["m,P,P_DP,equal,gap,route"] + [
            f"{r['m']},{r['P']},{r['P_DP']},{str(r['equal']).lower()},{r['gap']},{r['route']}"
            for r in rows
        ]
    return {"command": "compare", "source": args.source, "rows": rows}, lines


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, seed=args.seed)
    failed = [c for c in checks if not c.passed]
    payload = {
        "command": "verify",
        "suites": names,
        "seed": args.seed,
        "total": len(checks),
        "failed": len(failed),
        "checks": [c.to_dict() for c in checks],
    }
    lines = []
    for c in checks:
        lines.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.instance}")
        if not c.passed:
            lines.append(f"        rule:     {c.rule}")
            lines.append(f"        expected: {c.expected}")
            lines.append(f"        actual:   {c.actual}")
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return payload, lines, CHECK_FAILED if failed else 0


def cmd_scan(args):
    spec = ThetaSpec.parse(args.spec)
    result = classify_generalized(spec)
    payload = {
        "command": "scan",
        "spec": str(spec),
        "kind": result.kind,
        "witness_path": result.witness_path,
        "empirical_bound": result.empirical_bound,
    }
    if result.kind == "eventually-equal":
        lines = [f"{spec}: eventually-equal (parities of path 1 and paths 2..k all differ)"]
    else:
        lines = [
            f"{spec}: eventually-less via path {result.witness_path};"
            f" deficit certified from m = {result.empirical_bound}"
        ]
    return payload, lines


def cmd_threshold(args):
    threshold, least = list_color_threshold(args.edges)
    payload = {
        "command": "threshold",
        "edges": args.edges,
        "threshold": f"{threshold:.12g}",
        "least_integer_above": least,
    }
    line = f"edges={args.edges}: threshold {threshold:.12g}, least integer above {least}"
    return payload, [line]


def _add_format(p, default="text", choices=("text", "json")):
    p.add_argument("--format", choices=choices, default=default)


def _chrom_arguments(p):
    p.add_argument("source", help="theta:l1,l2,... or a graph file")
    p.add_argument("--m", type=int, default=None, help="also evaluate at this fold")
    _add_format(p)
    p.set_defaults(func=cmd_chrom)


def _theta_chrom_arguments(p):
    p.add_argument("spec", help="theta:l1,l2,...")
    p.add_argument("--m", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_theta_chrom)


def _dp_exact_arguments(p):
    p.add_argument("source")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--symmetry",
        choices=("none", "tree-canonical", "tree-canonical+conjugacy"),
        default="tree-canonical+conjugacy",
    )
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.add_argument("--workers", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_dp_exact)


def _dp_formula_arguments(p):
    p.add_argument("source")
    p.add_argument("--m", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_dp_formula)


def _compare_arguments(p):
    p.add_argument("source")
    p.add_argument("--m", required=True, help="fold or range a..b")
    p.add_argument("--exact", action="store_true", help="use exhaustive search")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    _add_format(p, default="csv", choices=("csv", "json", "text"))
    p.set_defaults(func=cmd_compare)


def _verify_arguments(p):
    p.add_argument("--suite", choices=["all", *SUITES], default="all")
    p.add_argument("--seed", type=int, default=20200801)
    _add_format(p)
    p.set_defaults(func=cmd_verify)


def _scan_arguments(p):
    p.add_argument("spec")
    _add_format(p)
    p.set_defaults(func=cmd_scan)


def _threshold_arguments(p):
    p.add_argument("--edges", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_threshold)


# Each command's `add_parser` keywords and the function that adds its
# arguments, in the order `dpchroma --help` lists them.
COMMANDS = {
    "chrom": ({"help": "chromatic polynomial of a graph"}, _chrom_arguments),
    "theta-chrom": ({"help": "closed-form Theta chromatic polynomial"}, _theta_chrom_arguments),
    "dp-exact": ({"help": "exhaustive DP color function value"}, _dp_exact_arguments),
    "dp-formula": ({"help": "DP color function by formula"}, _dp_formula_arguments),
    "compare": (
        {
            "help": "P versus P_DP over a fold range",
            "description": "The formula route needs a theta graph or a one-vertex "
            "feedback set; pass --exact for anything else.",
        },
        _compare_arguments,
    ),
    "verify": ({"help": "run invariant suites"}, _verify_arguments),
    "scan": ({"help": "parity classification with certificate fold"}, _scan_arguments),
    "threshold": ({"help": "list-color agreement threshold"}, _threshold_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser: `dpchroma` with a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="dpchroma",
        description="Exact DP color functions and chromatic polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (keywords, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, **keywords))
    return parser


def build_command_parser(name: str) -> argparse.ArgumentParser:
    """Command `name`'s parser on its own: the same usage, help and errors
    as its subparser in `build_parser()`, and it sets `command` too."""
    keywords, add_arguments = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"dpchroma {name}", description=keywords.get("description"))
    add_arguments(parser)
    parser.set_defaults(command=name)
    return parser


@cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """Command `command`'s parser, or with None the whole parser; each is
    built on first use (not at import) and reused for the rest of the
    process."""
    return build_parser() if command is None else build_command_parser(command)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parses argv as the whole parser does.  When argv names a command and
    that command's parser takes every argument, it alone reads them, so a
    call builds one command's parser rather than all of them; anything else
    (no command, an unknown one, `--help`, an argument the command does not
    take) goes to the whole parser, which prints what it always printed."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args, extras = _parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        payload, lines, *status = args.func(args)
        print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
        sys.stdout.flush()
    except SearchBudgetExceeded as exc:
        print(f"dpchroma: search budget exceeded: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DpchromaError, ValueError) as exc:
        print(f"dpchroma: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:  # the interpreter's last flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
