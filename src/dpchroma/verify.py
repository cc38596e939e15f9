"""Re-runnable invariant suites behind the `verify` CLI command.

Each suite yields `(kind, instance, expected, actual)` rows; `CHECK_KINDS`
gives every kind its check name and rule, and `_suite` turns the rows
into Check records.  A suite passes when every record does.  The suites
are deterministic: randomized ones derive all randomness from the seed
argument.
"""

from __future__ import annotations

import random
from functools import cache, wraps
from itertools import combinations, combinations_with_replacement, product
from operator import mul
from typing import NamedTuple

from .analysis import (
    CASE_TO_TERM,
    _LeafCounts,
    classify_generalized,
    cover_gap,
    cover_loss_terms,
    cover_subset_audit,
    fvs1_dp_polynomial,
    loss_term_differences,
    theta_dp_formula,
)
from .chromatic import (
    chromatic_polynomial,
    precolored_count,
    precolored_polynomial,
    Precoloring,
    theta_chromatic,
    theta_edge_deleted_chromatic,
    theta_edge_pair_graphs,
    theta_edge_pair_polynomials,
)
from .covers import (
    count_colorings,
    identity_cover,
    min_over_covers,
    PartitionSpec,
    partitions_of,
    random_cover,
    SUBSET_EDGE_LIMIT,
    subset_walk,
)
from .errors import GraphTooLarge
from .graphs import (
    Graph,
    StarDecomposition,
    ThetaSpec,
    build_generalized_theta,
)
from .poly import IntPoly, eventual_compare

SUBSET_AUDIT_COVERS_PER_FOLD = 5
GAP_BOUND_SAMPLES = 10
PRECOLOR_SAMPLES = 100
_FVS1_FOLDS = {"theta:2,2,2": range(1, 7), "triangle": range(1, 6), "bowtie": range(1, 6)}

# Check kind -> (name, rule).  The name is the kind up to any "/", so the
# two parity rules of `classify` share one name.
CHECK_KINDS = {
    kind: (kind.split("/")[0], rule)
    for kind, rule in {
        "theta-chromatic": "closed form equals the color-pattern transfer",
        "theta-edge-deleted": "edge-deleted closed form equals the color-pattern transfer",
        "edge-pair-forms": "surgery closed form equals the color-pattern transfer",
        "term-differences": "both paths agree, signs and chains hold",
        "dp-formula-vs-search": "parity-case formula equals exhaustive minimum",
        "loss-bound": "five-term bound equals the minimum",
        "loss-argmax": "maximal term index follows the case mapping",
        "ie-chromatic": "edge-subset alternating sum equals the polynomial",
        "ie-cover": "subset alternating sum equals the transfer count",
        "subset-audit": "deficit classification over all edge subsets",
        "gap-bound": "coloring deficit of a twisted cover is bounded below",
        "fvs1-weight": "leaf DP weight equals the leaf-subset inclusion-exclusion",
        "fvs1-polynomial":
            "least leaf DP avoidance count over leaf groupings with at most m classes"
            " equals exhaustive minimum",
        "fvs1-witness": "shift cover attains the reported count",
        "fvs1-leading-terms":
            "three highest coefficients match the chromatic polynomial",
        "classify/less": "same-parity pair makes the DP function eventually smaller",
        "classify/equal": "all-different parities keep the DP function equal",
        "classify-equality": "eventually-equal instance matches the chromatic value",
        "classify-k4": "minimum never exceeds the chromatic value (gap reported)",
        "precolor": "color-pattern transfer polynomial matches direct counts",
        "poly-division": "exact_div(p*q, q) == p",
        "poly-ordering": "ordering holds at the bound and 20 folds beyond",
    }.items()
}


class Check(NamedTuple):
    name: str
    rule: str
    instance: str
    expected: str
    actual: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rule": self.rule,
            "instance": self.instance,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


def _check(name, rule, instance, expected, actual) -> Check:
    return Check(name, rule, str(instance), str(expected), str(actual), expected == actual)


SUITES = {}


def _suite(name: str):
    """Register a row generator as the suite `name`, returning Check lists."""

    def register(rows):
        @wraps(rows)
        def suite(seed: int = 0) -> list[Check]:
            return [
                _check(*CHECK_KINDS[kind], instance, expected, actual)
                for kind, instance, expected, actual in rows(seed)
            ]

        SUITES[name] = suite
        return suite

    return register


def _valid_length_tuples(max_k: int, max_len: int):
    for k in range(2, max_k + 1):
        for lengths in product(range(1, max_len + 1), repeat=k):
            if sum(1 for x in lengths if x == 1) <= 1:
                yield lengths


def _sorted_triples(low: int, high: int):
    """Path lengths low <= l1 <= l2 <= l3 <= high, in lexicographic order."""
    return combinations_with_replacement(range(low, high + 1), 3)


def _theta(lengths) -> Graph:
    return build_generalized_theta(ThetaSpec(lengths))


def _graph_zoo() -> dict[str, Graph]:
    """Small named graphs, built afresh for each suite that uses them."""
    abcd = ("a", "b", "c", "d")
    zoo = {
        "triangle": Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2))),
        "path4": Graph(abcd, ((0, 1), (1, 2), (2, 3))),
        "c4": Graph(abcd, ((0, 1), (1, 2), (2, 3), (0, 3))),
        "k4": Graph(abcd, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        "bowtie": Graph(
            abcd + ("e",), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))
        ),
        "star+edge": Graph(abcd, ((0, 1), (0, 2), (0, 3))),
        "two-comps": Graph(abcd, ((0, 1), (2, 3))),
    }
    for lengths in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (1, 2, 2)):
        zoo[str(ThetaSpec(lengths))] = _theta(lengths)
    return zoo


@_suite("theta-identity")
def suite_theta_identity(seed):
    """Closed-form Theta chromatic polynomials against the generic transfer."""
    for lengths in _valid_length_tuples(4, 5):
        spec = ThetaSpec(lengths)
        g = build_generalized_theta(spec)
        closed = theta_chromatic(spec)
        yield "theta-chromatic", spec, str(chromatic_polynomial(g)), str(closed)
    for lengths in _valid_length_tuples(3, 4):
        spec = ThetaSpec(lengths)
        g = build_generalized_theta(spec)
        for j in range(1, spec.k + 1):
            closed = theta_edge_deleted_chromatic(spec, j)
            generic = chromatic_polynomial(g.without_edges([j - 1]))
            instance = f"{spec} minus path {j} u-edge"
            yield "theta-edge-deleted", instance, str(generic), str(closed)


@_suite("edge-pair-forms")
def suite_edge_pair_forms(seed):
    """The five surgery-family closed forms against the explicit graphs."""
    for l1, l2, l3 in _sorted_triples(2, 4):
        graphs = theta_edge_pair_graphs(l1, l2, l3)
        polys = theta_edge_pair_polynomials(l1, l2, l3)
        for tag, gg, pp in zip(graphs._fields, graphs, polys):
            instance = f"theta:{l1},{l2},{l3} {tag}"
            yield "edge-pair-forms", instance, str(chromatic_polynomial(gg)), str(pp)


@_suite("term-differences")
def suite_term_differences(seed):
    """Difference identities, sign predictions, and chain milestones."""
    for l1, l2, l3 in _sorted_triples(2, 6):
        for m in range(3, 13):
            rep = loss_term_differences(l1, l2, l3, m)
            yield "term-differences", f"theta:{l1},{l2},{l3} m={m}", True, rep.ok


@_suite("formula-search")
def suite_formula_search(seed):
    """DP formula, exhaustive minimum, and loss bound on the small grid."""
    for l1, l2, l3 in _sorted_triples(2, 4):
        formula = theta_dp_formula(l1, l2, l3)
        g = _theta((l1, l2, l3))
        for m in (3, 4):
            instance = f"theta:{l1},{l2},{l3} m={m}"
            want = formula.value_at(m)
            yield "dp-formula-vs-search", instance, want, min_over_covers(g, m).value
            terms = cover_loss_terms(l1, l2, l3, m)
            yield "loss-bound", instance, want, terms.bound
            best = CASE_TO_TERM[formula.case] in terms.best_indices
            yield "loss-argmax", f"{instance} case={formula.case}", True, best


@cache
def _subset_signs(k: int) -> tuple[int, ...]:
    """(-1)^|S| for every subset mask S of k edges: the signs of k - 1
    edges, then the same signs negated for the masks holding the last."""
    signs = [1]
    for _ in range(k):
        signs += [-sign for sign in signs]
    return tuple(signs)


def subset_sum(g: Graph, term) -> int:
    """Sum of (-1)^|S| term(S) over every edge subset S (at most
    `SUBSET_EDGE_LIMIT` edges): the inclusion-exclusion oracle of the
    `inclusion-exclusion` suite, one signed pass over the terms."""
    if len(g.edges) > SUBSET_EDGE_LIMIT:
        raise GraphTooLarge(f"{len(g.edges)} edges exceed SUBSET_EDGE_LIMIT = {SUBSET_EDGE_LIMIT}")
    masks = range(1 << len(g.edges))
    return sum(map(mul, _subset_signs(len(g.edges)), map(term, masks)))


@_suite("inclusion-exclusion")
def suite_inclusion_exclusion(seed):
    """Subset-sum counts against direct evaluation, for colorings and covers.
    The subset terms come from one `subset_walk` per graph and per cover."""
    for name, g in _graph_zoo().items():
        poly = chromatic_polynomial(g)
        components, _ = subset_walk(identity_cover(g, 1))
        for m in range(1, 5):
            sum_ = subset_sum(g, lambda s: m ** components[s])
            yield "ie-chromatic", f"{name} m={m}", poly(m), sum_
    rng = random.Random(seed)
    for lengths in ((2, 2, 3), (2, 3, 3)):
        g = _theta(lengths)
        for i in range(50):
            cover = random_cover(g, 3, rng)
            instance = f"{ThetaSpec(lengths)} m=3 sample={i}"
            count = count_colorings(g, cover)
            _, agreements = subset_walk(cover)
            by_subsets = subset_sum(g, agreements.__getitem__)
            yield "ie-cover", instance, count, by_subsets


@_suite("subset-audit")
def suite_subset_audit(seed):
    """Exhaustive subset classification for sampled covers of theta:2,3,3."""
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    rng = random.Random(seed)
    for m in (3, 4, 5):
        rep = cover_subset_audit(identity_cover(g, m))
        yield "subset-audit", f"{spec} m={m} identity", True, rep.ok
        for i in range(SUBSET_AUDIT_COVERS_PER_FOLD):
            rep = cover_subset_audit(random_cover(g, m, rng))
            yield "subset-audit", f"{spec} m={m} sample={i}", True, rep.ok


@_suite("gap-bound")
def suite_gap_bound(seed):
    """Twisted-cover coloring deficit bound at a large fold."""
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    m = 2 ** (spec.edge_count + 1)
    rng = random.Random(seed)
    produced = 0
    while produced < GAP_BOUND_SAMPLES:
        gap = cover_gap(random_cover(g, m, rng))
        if gap is None:  # canonical sample; the bound does not apply
            continue
        produced += 1
        surplus, bound = gap
        yield "gap-bound", f"{spec} m={m} sample={produced}", True, surplus >= bound


def partition_weight_by_subsets(
    d: StarDecomposition, partition: PartitionSpec
) -> IntPoly:
    """`partition_weight` by inclusion-exclusion over the 2^(k-1) leaf
    subsets, each term a precolored polynomial of the forest (the
    color-pattern transfer with fixed blocks).  Kept as an oracle."""
    shift = partition.shift
    if shift.keys() != set(d.alphas):
        raise ValueError("partition must cover exactly the star's vertices")
    center, leaves = d.alphas[0], d.alphas[1:]
    bound = max(d.forest.n, len(partition.parts))
    total = IntPoly()
    for size in range(1, len(leaves) + 1):
        for chosen in combinations(leaves, size):
            assignment = {center: shift[center] + 1}
            assignment.update({v: shift[v] + 1 for v in chosen})
            term = precolored_polynomial(d.forest, Precoloring(assignment, bound))
            total = total + term if size % 2 else total - term
    return total


@_suite("fvs1")
def suite_fvs1(seed):
    """Feedback-vertex-one polynomial against search and its witness cover,
    and every partition's transfer weight against the subset sum."""
    zoo = _graph_zoo()
    for name, folds in _FVS1_FOLDS.items():
        g = zoo[name]
        result = fvs1_dp_polynomial(g)
        d = result.decomposition
        weight = _LeafCounts(d).weight  # `partition_weight`, reusing one leaf DP
        for p in partitions_of(d.alphas):
            parts = "|".join(",".join(sorted(part)) for part in p.parts)
            oracle = str(partition_weight_by_subsets(d, p))
            yield "fvs1-weight", f"{name} {parts}", oracle, str(weight(p))
        for m in folds:
            want = min_over_covers(g, m).value
            yield "fvs1-polynomial", f"{name} m={m}", want, result.value_at(m)
            witness = count_colorings(g, result.witness_cover(m))
            yield "fvs1-witness", f"{name} m={m}", want, witness
        leading = list(chromatic_polynomial(g).coeffs[-3:])
        top = list(result.dp_polynomial.coeffs[-3:])
        yield "fvs1-leading-terms", name, leading, top


@_suite("classify")
def suite_classify(seed):
    """Parity classification against exhaustive minima at small folds."""
    res = classify_generalized(ThetaSpec((2, 2, 3)))
    found = f"{res.kind} j={res.witness_path} N={res.empirical_bound}"
    yield "classify/less", "theta:2,2,3", "eventually-less j=2 N=3", found
    res = classify_generalized(ThetaSpec((2, 3, 3)))
    yield "classify/equal", "theta:2,3,3", "eventually-equal", res.kind
    g = _theta((2, 3, 3))
    poly = theta_chromatic(ThetaSpec((2, 3, 3)))
    for m in (3, 4):
        found = min_over_covers(g, m).value
        yield "classify-equality", f"theta:2,3,3 m={m}", poly(m), found
    spec4 = ThetaSpec((2, 3, 3, 3))
    g4 = build_generalized_theta(spec4)
    p4 = theta_chromatic(spec4)(3)
    found = min_over_covers(g4, 3).value
    yield "classify-k4", f"theta:2,3,3,3 m=3 gap={p4 - found}", True, found <= p4


def _random_forest(rng: random.Random, max_vertices: int = 8) -> Graph:
    n = rng.randint(1, max_vertices)
    labels = tuple(f"t{i}" for i in range(n))
    edges = []
    for v in range(1, n):
        if rng.random() < 0.8:  # otherwise v starts a new component
            edges.append((rng.randrange(v), v))
    return Graph(labels, tuple(edges))


@_suite("precolor")
def suite_precolor(seed):
    """Precoloring polynomial versus direct counts on random forests."""
    rng = random.Random(seed)
    for i in range(PRECOLOR_SAMPLES):
        g = _random_forest(rng)
        pool = list(g.vertices)
        rng.shuffle(pool)
        domain = pool[: rng.randint(0, len(pool))]
        bound = g.n + rng.randint(0, 2)
        pc = Precoloring({v: rng.randint(1, bound) for v in domain}, bound)
        poly = precolored_polynomial(g, pc)
        folds = range(bound, bound + 6)
        values = [precolored_count(g, pc, m) for m in folds]
        instance = f"forest sample={i} n={g.n} fixed={len(domain)}"
        yield "precolor", instance, values, [poly(m) for m in folds]


@_suite("poly")
def suite_poly(seed):
    """Exact division round trips and eventual-ordering sign agreement."""
    rng = random.Random(seed)
    ok = True
    for _ in range(200):
        p = IntPoly([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 11))])
        q = IntPoly([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 11))])
        if q.is_zero():
            continue
        if (p * q).exact_div(q) != p:
            ok = False
    yield "poly-division", "200 random pairs", True, ok
    ok = True
    for _ in range(100):
        p = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 6))])
        q = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 6))])
        relation, bound = eventual_compare(p, q)
        for m in range(bound, bound + 21):
            d = p(m) - q(m)
            want = "equal" if d == 0 else ("greater" if d > 0 else "less")
            if want != relation:
                ok = False
    yield "poly-ordering", "100 random pairs", True, ok


def run_suites(names: list[str], seed: int = 0) -> list[Check]:
    return [check for name in names for check in SUITES[name](seed)]
