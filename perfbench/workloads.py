"""Seeded inputs for the benchmark workloads, and the second-route
check that each item's CLI output must pass.

An item is one `dpchroma.cli.main([...])` call.  A workload builds its
items from the seed (writing graph files into a work directory); the
same seed always gives the same items.  Each item carries a check that
recomputes its answer by a route the CLI call did not take.  The checks
run after the timed phase.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import string
from dataclasses import dataclass
from functools import partial
from typing import Callable

# dp-exact items run with this explicit budget; every listed item needs
# at most 7,920 candidates, and K4 at m=5 (100,800) is kept out on purpose.
DP_EXACT_BUDGET = 20_000


@dataclass(frozen=True)
class Item:
    """One CLI call; `check(rc, output)` returns None or what is wrong."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[Item]]
    # Wall seconds one round of items, with its set-ups, takes at the
    # commit that defined the benchmark, on a 2-vCPU VM with Python 3.11
    # in its slower state.  A run times round(seconds / this) rounds, so
    # every run of a workload times the same number of items.
    nominal_round_s: float


# ---------------------------------------------------------------- graph files


def _labels(rng: random.Random, n: int) -> list[str]:
    """n seeded vertex names that sort in index order.

    `find_feedback_vertex` tries vertices in label order, so the sort
    order decides which pivot is found first and with it the cost of an
    item (the bowtie at m=6 takes 1.3-2.6 s depending on it).  Keeping the
    order fixed makes the work of an item independent of the seed.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    return [f"{prefix}{i:02d}" for i in range(n)]


def _write_graph(workdir: str, name: str, labels: list[str], edges) -> str:
    lines = [f"n {len(labels)}"]
    lines += [f"e {labels[a]} {labels[b]}" for a, b in edges]
    path = os.path.join(workdir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


TRIANGLE = [(0, 1), (0, 2), (1, 2)]
C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
BOWTIE = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]


def _complete(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _cone_over_tree(rng: random.Random, k: int, pendants: int, path: bool = False):
    """FVS-1 graph: vertex 0 is joined to a tree on 1..k (a path if `path`),
    and `pendants` further forest vertices hang off the tree.

    Every cycle passes through vertex 0 and the tree on 1..k, so k fixes
    the star size (k + 1 star vertices) and the tree shape the rest of the
    cost; pendant vertices lie on no cycle.
    """
    edges = [(0, i) for i in range(1, k + 1)]
    for i in range(2, k + 1):
        edges.append((i - 1 if path else rng.randrange(1, i), i))
    for j in range(k + 1, k + 1 + pendants):
        edges.append((rng.randrange(1, j), j))
    return k + 1 + pendants, edges


# --------------------------------------------------------------------- checks


def _payload(rc: int, output: str) -> dict:
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(output)


def _poly(coefficients: list[str]):
    from dpchroma.poly import IntPoly

    return IntPoly(int(c) for c in coefficients)


def check_dp_formula(source: str, rc: int, output: str) -> str | None:
    """The polynomial at stable_from equals the witness shift cover's count."""
    from dpchroma.cli import load_graph
    from dpchroma.covers import PartitionSpec, count_colorings, shift_cover
    from dpchroma.graphs import star_forest_decomposition

    data = _payload(rc, output)
    if data.get("route") != "feedback-vertex-one":
        return f"route {data.get('route')!r}, expected feedback-vertex-one"
    g = load_graph(source)
    d = star_forest_decomposition(g, data["center"])
    partition = PartitionSpec(tuple(frozenset(p) for p in data["partition"]))
    m = data["stable_from"]
    want = count_colorings(g, shift_cover(g, d, partition, m))
    got = _poly(data["polynomial"]["coefficients"])(m)
    return None if got == want else f"P_DP({m}) = {got}, witness cover counts {want}"


def _cover_colorings(n: int, m: int, constraints) -> int:
    """Backtracking count of cover colorings: pick j_v in [m] per vertex so
    that no edge (a, b, sigma) has sigma[j_a] == j_b."""
    later: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
    for a, b, sigma in constraints:
        if a < b:
            later[b].append((a, sigma))
        else:
            later[a].append((b, tuple(sigma.index(j) for j in range(m))))
    chosen = [0] * n

    def rec(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for j in range(m):
            if all(sigma[chosen[a]] != j for a, sigma in later[v]):
                chosen[v] = j
                total += rec(v + 1)
        return total

    return rec(0)


def check_dp_exact(source: str, m: int, rc: int, output: str) -> str | None:
    """Theta(l1,l2,l3): the parity-case formula.  Anything else: the witness
    cover counted by backtracking, the FVS-1 polynomial past its bound, and
    the identity cover's count P(G, m) as an upper bound."""
    from dpchroma.analysis import fvs1_dp_polynomial, theta_dp_formula
    from dpchroma.chromatic import chromatic_polynomial
    from dpchroma.cli import load_graph
    from dpchroma.graphs import FeedbackVertex, find_feedback_vertex

    data = _payload(rc, output)
    value = int(data["minimum"])
    g = load_graph(source)
    spec = g.theta
    if spec is not None and spec.k == 3 and min(spec.lengths) >= 2:
        want = theta_dp_formula(*sorted(spec.lengths)).value_at(m)
        return None if value == want else f"minimum {value}, formula {want}"
    index = g.index
    tree = {tuple(sorted((index[x], index[y]))) for x, y in data["witness"]["tree_edges"]}
    constraints = [(a, b, tuple(range(m))) for a, b in tree]
    for twist in data["witness"]["twists"]:
        x, y = (index[v] for v in twist["edge"])
        constraints.append((x, y, tuple(p - 1 for p in twist["perm"])))
    witness = _cover_colorings(g.n, m, constraints)
    if witness != value:
        return f"minimum {value}, witness cover counts {witness}"
    bound = chromatic_polynomial(g)(m)
    if value > bound:
        return f"minimum {value} exceeds P(G, {m}) = {bound}"
    if find_feedback_vertex(g) is not FeedbackVertex.NOT_SIZE_ONE:
        result = fvs1_dp_polynomial(g)
        if m >= result.stable_from and result.dp_polynomial(m) != value:
            return f"minimum {value}, FVS-1 polynomial {result.dp_polynomial(m)}"
    return None


def check_verify(rc: int, output: str) -> str | None:
    data = _payload(rc, output)
    if data["failed"] != 0 or data["total"] < 1:
        return f"{data['failed']} of {data['total']} checks failed"
    return None


# ------------------------------------------------------------------ workloads


def build_fvs1(seed: int, workdir: str, smoke: bool = False) -> list[Item]:
    """dp-formula on FVS-1 graphs: fixed small graphs and fans, plus seeded
    cones over random trees with 2-4 attachment vertices."""
    rng = random.Random(seed)
    fixed = [
        ("triangle", 3, TRIANGLE),
        ("bowtie", 5, BOWTIE),
        ("fan4", *_cone_over_tree(rng, 4, 0, path=True)),
        ("fan5", *_cone_over_tree(rng, 5, 0, path=True)),
    ]
    # (attachment vertices k, pendant vertices) of the random graphs; a
    # graph's cost is set mostly by k, so fixing the strata keeps a
    # round's cost nearly the same for every seed.  fan5 is the only item
    # with 6 star vertices: one more such item per round would put the
    # tail percentile on the edge between the 2 s items and the rest.
    strata = [(2, 1), (2, 2), (2, 3), (2, 4)]
    strata += [(3, p) for p in (0, 1, 2, 3)] * 2
    strata += [(4, p) for p in (0, 1, 2)] * 2
    sources = []
    if smoke:
        fixed, strata = fixed[:2], [(2, 1), (3, 0)]
    else:
        sources.append(("theta:2,2,2,2", "theta:2,2,2,2"))
    for name, n, edges in fixed:
        sources.append((name, _write_graph(workdir, f"fvs1-{name}", list("abcdefgh")[:n], edges)))
    for i, (k, pendants) in enumerate(strata):
        n, edges = _cone_over_tree(rng, k, pendants)
        name = f"cone-k{k}-p{pendants}-{i}"
        sources.append((name, _write_graph(workdir, f"fvs1-{name}", _labels(rng, n), edges)))
    items = [
        Item(f"dp-formula {name}", ("dp-formula", src, "--format", "json"), partial(check_dp_formula, src))
        for name, src in sources
    ]
    rng.shuffle(items)
    return items


def build_twist(seed: int, workdir: str, smoke: bool = False) -> list[Item]:
    """dp-exact over the Theta grid (Theta-transfer route) and over
    triangle, C5, bowtie and K4 (the feedback-vertex-conditioned and
    brute-force routes).

    The Theta items at m >= 4 are listed twice, so that they take about
    40% of a round and the median item is one of the 20 grid items at m=4.
    """
    rng = random.Random(seed)
    runs: list[tuple[str, str, int]] = []
    grid = [
        f"theta:{a},{b},{c}"
        for a in range(2, 5)
        for b in range(a, 5)
        for c in range(b, 5)
    ]
    theta = [(s, 3) for s in grid]
    theta += [(s, 4) for s in grid] * 2
    theta += [("theta:2,2,2", 5), ("theta:2,2,2", 6), ("theta:2,2,2,2", 4)] * 2
    graphs = [("triangle", 3, TRIANGLE, range(3, 7)), ("c5", 5, C5, range(3, 7))]
    graphs += [("bowtie", 5, BOWTIE, range(3, 7)), ("k4", 4, _complete(4), (3, 4))]
    if smoke:
        theta = [("theta:2,2,2", 3), ("theta:2,2,2,2", 3)]
        graphs = [("triangle", 3, TRIANGLE, (3,)), ("bowtie", 5, BOWTIE, (3,)), ("k4", 4, _complete(4), (3,))]
    runs += [(spec, spec, m) for spec, m in theta]
    for name, n, edges, folds in graphs:
        path = _write_graph(workdir, f"twist-{name}", _labels(rng, n), edges)
        runs += [(name, path, m) for m in folds]
    items = [
        Item(
            f"dp-exact {name} m={m}",
            ("dp-exact", src, "--m", str(m), "--budget", str(DP_EXACT_BUDGET), "--format", "json"),
            partial(check_dp_exact, src, m),
        )
        for name, src, m in runs
    ]
    rng.shuffle(items)
    return items


SMOKE_SUITES = ("poly", "classify", "gap-bound")
# The suites' own seed stays at the CLI default: the precolor suite's cost
# changes 5x with it (51-233 ms), which moved the workload's median item
# by 2x from one benchmark seed to the next.
VERIFY_SEED = 20200801


def build_verify(seed: int, workdir: str, smoke: bool = False) -> list[Item]:
    """verify --suite <name> for each of the 11 suites, in seeded order."""
    from dpchroma.verify import SUITES

    names = list(SMOKE_SUITES if smoke else SUITES)
    random.Random(seed).shuffle(names)
    return [
        Item(
            f"verify {name}",
            ("verify", "--suite", name, "--format", "json", "--seed", str(VERIFY_SEED)),
            check_verify,
        )
        for name in names
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fvs1-partitions", build_fvs1, 3.6),
        Workload("twist-search", build_twist, 4.2),
        Workload("verify-all", build_verify, 7.5),
    )
}
