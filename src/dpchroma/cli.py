"""Command-line front end.

Commands: chrom, theta-chrom, dp-exact, dp-formula, compare, verify, scan,
threshold.  Exit code 0 means success, 1 means a verification check
failed, 2 means a usage or input error, and 141 (128 + SIGPIPE) means the
reader closed stdout before the output was written, with nothing on
stderr.  All counts in JSON output are decimal strings, of any length, so
consumers never face integer-width questions.  Each `cmd_*` computes and
returns its JSON payload and its text lines (`verify` also its exit code);
`main` prints one or the other, once, JSON through `json_text`.  Lines
that cost more than a format string (`dp-exact`'s witness, `verify`'s
checks, `compare`'s rows) come as a generator, which `main` reads only for
text output.  `COMMANDS` describes each command once, and an argv takes
one of two paths: a plain argv (each option spelled in full, once, with a
value that converts and is allowed) is read from its command's entry with
no argparse parser at all; any other argv goes to the whole parser, built
from the same table on first use and reused for the rest of the process,
which alone prints help, usage and errors.  The verify layer loads only
where it is read: for `verify` and for the whole parser (`--help`, a
missing or an unknown command, another spelling), whose `--suite` choices
name its suites.
The formula and search modules load with this one, since every other
command runs them, and importing them later would only move their
compile into the first command's time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .analysis import (
    FeedbackPolynomialResult,
    ThetaDpFormula,
    classify_generalized,
    fvs1_dp_polynomial,
    list_color_threshold,
    theta_dp_formula,
)
from .chromatic import chromatic_polynomial, theta_chromatic
from .covers import SEARCH_BUDGET, cover_to_json, min_over_covers
from .errors import DpchromaError, GraphTooLarge, OutOfRange
from .graphs import Graph, ThetaSpec, build_generalized_theta
from .poly import poly_to_json

USAGE_ERROR = 2
CHECK_FAILED = 1


def json_text(payload) -> str:
    """The text of `json.dumps(payload, indent=2)`, for the types a payload
    holds: str, int, bool, None, and dicts with string keys, lists and
    tuples of them.  Any other value or key raises TypeError, so this never
    prints what `json.dumps` would not.  CPython (3.10 to 3.13) runs its C
    encoder only when `indent` is None; this quotes each string with the
    same C function, `encode_basestring_ascii`, does the indenting, and
    joins its pieces once, as `json.dumps` does: joining each container
    apart raised perfbench's verify-all peak RSS by about 0.5 MB (2-vCPU
    VM, Python 3.11.7)."""
    parts: list[str] = []
    put = parts.append

    def encode(value, indent: str) -> None:
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, dict):
            inner = indent + "  "
            sep, later = "{" + inner, "," + inner
            for key, item in value.items():  # a key that is no string fails to quote
                put(sep + encode_basestring_ascii(key) + ": ")
                encode(item, inner)
                sep = later
            put(indent + "}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            inner = indent + "  "
            sep, later = "[" + inner, "," + inner
            for item in value:
                put(sep)
                encode(item, inner)
                sep = later
            put(indent + "]" if value else "[]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    encode(payload, "\n")
    return "".join(parts)


def load_graph(source: str) -> Graph:
    """A graph source is either `theta:l1,l2,...` or a graph file path."""
    if source.startswith("theta:"):
        return build_generalized_theta(ThetaSpec.parse(source))
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return Graph.from_text(handle.read())
    except OSError as exc:
        raise DpchromaError(f"cannot read graph file {source!r}: {exc}") from exc
    except GraphTooLarge as exc:  # well formed, but refused by its size
        raise GraphTooLarge(f"graph file {source!r} is too large: {exc}") from exc
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
    lines = [f"P({name}, m) = {payload['polynomial']['text']}"]
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
    if args.workers < 1:  # before the graph, which can be slow to build
        raise OutOfRange(f"--workers must be positive, not {args.workers}")
    g = load_graph(args.source)
    result = min_over_covers(
        g,
        args.m,
        symmetry=args.symmetry,
        budget=args.budget,
        workers=args.workers,
    )
    payload = {
        "command": "dp-exact",
        "source": args.source,
        "m": args.m,
        "symmetry": args.symmetry,
        "candidates": result.candidates,
        "minimum": str(result.value),
        "witness": cover_to_json(result.cover),
    }

    def lines():
        yield (
            f"P_DP({args.source}, {args.m}) = {payload['minimum']}"
            f"  [{result.candidates} candidate covers]"
        )
        yield json.dumps(payload["witness"])

    return payload, lines()


def dp_formula_route(g: Graph) -> ThetaDpFormula | FeedbackPolynomialResult:
    """The formula route for g, chosen once per graph: the parity-case
    closed form for Theta(l1, l2, l3) with every l >= 2, otherwise the
    feedback-vertex-one polynomial."""
    spec = g.theta
    if spec is not None and spec.k == 3 and min(spec.lengths) >= 2:
        return theta_dp_formula(*sorted(spec.lengths))
    return fvs1_dp_polynomial(g)


def _formula_value(route: ThetaDpFormula | FeedbackPolynomialResult, m: int) -> tuple[int, str]:
    """The route's value at m and its label, as `compare` and `dp-formula --m` show it."""
    if isinstance(route, ThetaDpFormula):
        return route.value_at(m), f"parity-case-{route.case}"
    return route.value_at(m), "fvs1" if m >= route.stable_from else "fvs1-least-row"


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
            f"P_DP({args.source}, m) = {payload['polynomial']['text']}",
        ]
    else:
        payload = {
            "command": "dp-formula",
            "source": args.source,
            "route": "feedback-vertex-one",
            "stable_from": route.stable_from,
            "center": route.decomposition.center,
            "partition": [sorted(part) for part in route.partition.parts],
            "maximizers": route.maximizers,
            "weight": poly_to_json(route.weight),
            "polynomial": poly_to_json(route.dp_polynomial),
        }
        lines = [
            f"feedback vertex {route.decomposition.center!r};"
            f" winning partition {[sorted(p) for p in route.partition.parts]}",
            f"P_DP({args.source}, m) = {payload['polynomial']['text']}   (m >= {route.stable_from})",
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

    def lines():
        if args.format == "text":
            for r in rows:
                yield f"m={r['m']}  P={r['P']}  P_DP={r['P_DP']}  gap={r['gap']}  [{r['route']}]"
        else:
            yield "m,P,P_DP,equal,gap,route"
            for r in rows:
                yield f"{r['m']},{r['P']},{r['P_DP']},{str(r['equal']).lower()},{r['gap']},{r['route']}"

    return {"command": "compare", "source": args.source, "rows": rows}, lines()


def cmd_verify(args):
    from .verify import SUITES, run_suites

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

    def lines():
        for c in checks:
            yield f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.instance}"
            if not c.passed:
                yield f"        rule:     {c.rule}"
                yield f"        expected: {c.expected}"
                yield f"        actual:   {c.actual}"
        yield f"{len(checks) - len(failed)}/{len(checks)} checks passed"

    return payload, lines(), CHECK_FAILED if failed else 0


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


def _format(default="text", choices=("text", "json")):
    return "--format", {"choices": choices, "default": default}


def _verify_arguments():
    from .verify import SUITES

    return (
        ("--suite", {"choices": ["all", *SUITES], "default": "all"}),
        ("--seed", {"type": int, "default": 20200801}),
        _format(),
    )


# Each command's `add_parser` keywords, its function, and its arguments
# as (flag, keywords) pairs for `add_argument`, in the order `dpchroma
# --help` lists the commands; verify's come from a function, so the verify
# layer loads only where they are read.
COMMANDS = {
    "chrom": (
        {"help": "chromatic polynomial of a graph"},
        cmd_chrom,
        (
            ("source", {"help": "theta:l1,l2,... or a graph file"}),
            ("--m", {"type": int, "default": None, "help": "also evaluate at this fold"}),
            _format(),
        ),
    ),
    "theta-chrom": (
        {"help": "closed-form Theta chromatic polynomial"},
        cmd_theta_chrom,
        (("spec", {"help": "theta:l1,l2,..."}), ("--m", {"type": int, "default": None}), _format()),
    ),
    "dp-exact": (
        {"help": "exhaustive DP color function value"},
        cmd_dp_exact,
        (
            ("source", {}),
            ("--m", {"type": int, "required": True}),
            (
                "--symmetry",
                {
                    "choices": ("none", "tree-canonical", "tree-canonical+conjugacy"),
                    "default": "tree-canonical+conjugacy",
                },
            ),
            ("--budget", {"type": int, "default": SEARCH_BUDGET}),
            ("--workers", {"type": int, "default": 1}),
            _format(),
        ),
    ),
    "dp-formula": (
        {"help": "DP color function by formula"},
        cmd_dp_formula,
        (("source", {}), ("--m", {"type": int, "default": None}), _format()),
    ),
    "compare": (
        {
            "help": "P versus P_DP over a fold range",
            "description": "The formula route needs a theta graph or a one-vertex "
            "feedback set; pass --exact for anything else.",
        },
        cmd_compare,
        (
            ("source", {}),
            ("--m", {"required": True, "help": "fold or range a..b"}),
            ("--exact", {"action": "store_true", "help": "use exhaustive search"}),
            ("--budget", {"type": int, "default": SEARCH_BUDGET}),
            _format(default="csv", choices=("csv", "json", "text")),
        ),
    ),
    "verify": ({"help": "run invariant suites"}, cmd_verify, _verify_arguments),
    "scan": ({"help": "parity classification with certificate fold"}, cmd_scan, (("spec", {}), _format())),
    "threshold": (
        {"help": "list-color agreement threshold"},
        cmd_threshold,
        (("--edges", {"type": int, "required": True}), _format()),
    ),
}


def _arguments(command: str):
    arguments = COMMANDS[command][2]
    return arguments() if callable(arguments) else arguments


def build_parser() -> argparse.ArgumentParser:
    """The whole parser: `dpchroma` with a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="dpchroma",
        description="Exact DP color functions and chromatic polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (keywords, func, _) in COMMANDS.items():
        command = sub.add_parser(name, **keywords)
        for flag, options in _arguments(name):
            command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The whole parser, built on first use (not at import) and reused for
    the rest of the process."""
    return build_parser()


def read_plain(command: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace the whole parser returns for `[command, *argv]` when
    argv is plain, otherwise None, read from the command's table with no
    argparse parser.  Plain: each token is a flag spelled in full, given
    once and followed by a value that does not start with '-', or the next
    positional; each value converts with its `type` into its `choices`;
    every required argument is given.  A `store_true` flag is never plain
    and starts as False.  Every other argv (help, `--`, `--opt=value`, an
    abbreviation, an error) is argparse's to read.  argparse converts a
    string default through its `type`; no argument has a typed string
    default, which the plain-argv tests check."""
    values: dict[str, object] = {"command": command, "func": COMMANDS[command][1]}
    options, positionals, required, given = {}, [], set(), set()
    for flag, keywords in _arguments(command):
        dest = flag.lstrip("-").replace("-", "_")
        action = keywords.get("action")
        values[dest] = keywords.get("default", False if action == "store_true" else None)
        if not flag.startswith("-"):
            positionals.append((dest, keywords))
            required.add(dest)
            continue
        if action is None:
            options[flag] = dest, keywords
        if keywords.get("required"):
            required.add(dest)
    positionals = iter(positionals)
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            dest, keywords = options.get(token, (None, None))
            value = next(tokens, "-")  # none left: argparse's
            if dest is None or dest in given or value.startswith("-"):
                return None
        else:
            (dest, keywords), value = next(positionals, (None, None)), token
            if dest is None:
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given.add(dest)
        values[dest] = value
    return argparse.Namespace(**values) if required <= given else None


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parses argv as the whole parser does: a plain argv naming a command
    from that command's table (`read_plain`), anything else (no command,
    an unknown one, `--help`, another spelling, an error) with the whole
    parser, which prints what it always printed."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = read_plain(argv[0], argv[1:])
        if args is not None:
            return args
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # counts of any size print; one argv argument bounds a parsed int to 128 KiB
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parse_args(argv)
        payload, lines, *status = args.func(args)
        print(json_text(payload) if args.format == "json" else "\n".join(lines))
        sys.stdout.flush()
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except (DpchromaError, ValueError) as exc:
        print(f"dpchroma: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("dpchroma: out of memory: the input is too large", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:  # not CHECK_FAILED, which only a failed check returns
        print("dpchroma: recursion too deep: the input is too large", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:  # the interpreter's last flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    finally:
        sys.set_int_max_str_digits(digits)
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
