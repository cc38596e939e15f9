"""Re-runnable invariant suites behind the `verify` CLI command.

Each suite returns a list of Check records; a suite passes when every
record does.  The suites are deterministic: randomized ones derive all
randomness from the seed argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

from .analysis import (
    CASE_TO_TERM,
    classify_generalized,
    cover_loss_terms,
    cover_subset_audit,
    fvs1_dp_polynomial,
    partition_weight,
    theta_dp_formula,
)
from .chromatic import (
    chromatic_by_inclusion_exclusion,
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
    cover_count_by_inclusion_exclusion,
    identity_cover,
    min_over_covers,
    PartitionSpec,
    partitions_of,
    random_cover,
)
from .graphs import Graph, StarDecomposition, ThetaSpec, build_generalized_theta
from .poly import IntPoly, eventual_compare


@dataclass(frozen=True)
class Check:
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


def _valid_length_tuples(max_k: int, max_len: int):
    for k in range(2, max_k + 1):
        for lengths in product(range(1, max_len + 1), repeat=k):
            if sum(1 for x in lengths if x == 1) <= 1:
                yield lengths


def suite_theta_identity(seed: int = 0) -> list[Check]:
    """Closed-form Theta chromatic polynomials against deletion-contraction."""
    checks = []
    for lengths in _valid_length_tuples(4, 5):
        spec = ThetaSpec(lengths)
        g = build_generalized_theta(spec)
        closed = theta_chromatic(spec)
        generic = chromatic_polynomial(g, limit=max(16, g.n))
        checks.append(
            _check(
                "theta-chromatic",
                "closed form equals deletion-contraction",
                spec,
                str(generic),
                str(closed),
            )
        )
    for lengths in _valid_length_tuples(3, 4):
        spec = ThetaSpec(lengths)
        g = build_generalized_theta(spec)
        for j in range(1, spec.k + 1):
            closed = theta_edge_deleted_chromatic(spec, j)
            generic = chromatic_polynomial(g.without_edges([j - 1]), limit=max(16, g.n))
            checks.append(
                _check(
                    "theta-edge-deleted",
                    "edge-deleted closed form equals deletion-contraction",
                    f"{spec} minus path {j} u-edge",
                    str(generic),
                    str(closed),
                )
            )
    return checks


def suite_edge_pair_forms(seed: int = 0) -> list[Check]:
    """The five surgery-family closed forms against the explicit graphs."""
    checks = []
    for l1 in range(2, 5):
        for l2 in range(l1, 5):
            for l3 in range(l2, 5):
                graphs = theta_edge_pair_graphs(l1, l2, l3)
                polys = theta_edge_pair_polynomials(l1, l2, l3)
                for tag, gg, pp in zip(
                    ("g", "g0", "g1", "g2", "gstar"),
                    (graphs.g, graphs.g0, graphs.g1, graphs.g2, graphs.gstar),
                    polys.as_tuple(),
                ):
                    generic = chromatic_polynomial(gg, limit=max(16, gg.n))
                    checks.append(
                        _check(
                            "edge-pair-forms",
                            "surgery closed form equals deletion-contraction",
                            f"theta:{l1},{l2},{l3} {tag}",
                            str(generic),
                            str(pp),
                        )
                    )
    return checks


def suite_term_differences(seed: int = 0) -> list[Check]:
    """Difference identities, sign predictions, and chain milestones."""
    from .analysis import loss_term_differences

    checks = []
    for l1 in range(2, 7):
        for l2 in range(l1, 7):
            for l3 in range(l2, 7):
                for m in range(3, 13):
                    rep = loss_term_differences(l1, l2, l3, m)
                    checks.append(
                        _check(
                            "term-differences",
                            "both paths agree, signs and chains hold",
                            f"theta:{l1},{l2},{l3} m={m}",
                            True,
                            rep.ok,
                        )
                    )
    return checks


def suite_formula_search(seed: int = 0) -> list[Check]:
    """DP formula, exhaustive minimum, and loss bound on the small grid."""
    checks = []
    for l1 in range(2, 5):
        for l2 in range(l1, 5):
            for l3 in range(l2, 5):
                formula = theta_dp_formula(l1, l2, l3)
                g = build_generalized_theta(ThetaSpec((l1, l2, l3)))
                for m in (3, 4):
                    want = formula.value_at(m)
                    found = min_over_covers(g, m).value
                    checks.append(
                        _check(
                            "dp-formula-vs-search",
                            "parity-case formula equals exhaustive minimum",
                            f"theta:{l1},{l2},{l3} m={m}",
                            want,
                            found,
                        )
                    )
                    terms = cover_loss_terms(l1, l2, l3, m)
                    checks.append(
                        _check(
                            "loss-bound",
                            "five-term bound equals the minimum",
                            f"theta:{l1},{l2},{l3} m={m}",
                            want,
                            terms.bound,
                        )
                    )
                    checks.append(
                        _check(
                            "loss-argmax",
                            "maximal term index follows the case mapping",
                            f"theta:{l1},{l2},{l3} m={m} case={formula.case}",
                            True,
                            CASE_TO_TERM[formula.case] in terms.best_indices,
                        )
                    )
    return checks


def _small_graph_zoo() -> list[tuple[str, Graph]]:
    zoo: list[tuple[str, Graph]] = []
    zoo.append(("triangle", Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))))
    zoo.append(("path4", Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)))))
    zoo.append(
        ("c4", Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3))))
    )
    zoo.append(
        (
            "k4",
            Graph(
                ("a", "b", "c", "d"),
                ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            ),
        )
    )
    zoo.append(
        (
            "bowtie",
            Graph(
                ("a", "b", "c", "d", "e"),
                ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)),
            ),
        )
    )
    zoo.append(("star+edge", Graph(("a", "b", "c", "d"), ((0, 1), (0, 2), (0, 3)))))
    zoo.append(
        ("two-comps", Graph(("a", "b", "c", "d"), ((0, 1), (2, 3))))
    )
    for lengths in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (1, 2, 2)):
        zoo.append((str(ThetaSpec(lengths)), build_generalized_theta(ThetaSpec(lengths))))
    return [(name, g) for name, g in zoo if g.edge_count <= 8]


def suite_inclusion_exclusion(seed: int = 0) -> list[Check]:
    """Subset-sum counts against direct evaluation, for colorings and covers."""
    checks = []
    for name, g in _small_graph_zoo():
        poly = chromatic_polynomial(g)
        for m in range(1, 5):
            checks.append(
                _check(
                    "ie-chromatic",
                    "edge-subset alternating sum equals the polynomial",
                    f"{name} m={m}",
                    poly(m),
                    chromatic_by_inclusion_exclusion(g, m),
                )
            )
    rng = random.Random(seed)
    for lengths in ((2, 2, 3), (2, 3, 3)):
        g = build_generalized_theta(ThetaSpec(lengths))
        for i in range(50):
            cover = random_cover(g, 3, rng)
            checks.append(
                _check(
                    "ie-cover",
                    "subset alternating sum equals the transfer count",
                    f"{ThetaSpec(lengths)} m=3 sample={i}",
                    count_colorings(g, cover),
                    cover_count_by_inclusion_exclusion(g, cover),
                )
            )
    return checks


def suite_subset_audit(seed: int = 0, covers_per_fold: int = 5) -> list[Check]:
    """Exhaustive subset classification for sampled covers of theta:2,3,3."""
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    rng = random.Random(seed)
    checks = []
    for m in (3, 4, 5):
        rep = cover_subset_audit(spec, identity_cover(g, m), m)
        checks.append(
            _check(
                "subset-audit",
                "deficit classification over all edge subsets",
                f"{spec} m={m} identity",
                True,
                rep.ok,
            )
        )
        for i in range(covers_per_fold):
            cover = random_cover(g, m, rng)
            rep = cover_subset_audit(spec, cover, m)
            checks.append(
                _check(
                    "subset-audit",
                    "deficit classification over all edge subsets",
                    f"{spec} m={m} sample={i}",
                    True,
                    rep.ok,
                )
            )
    return checks


def suite_gap_bound(seed: int = 0, samples: int = 10) -> list[Check]:
    """Twisted-cover coloring deficit bound at a large fold."""
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    m = 2 ** (spec.edge_count + 1)
    rng = random.Random(seed)
    checks = []
    produced = 0
    while produced < samples:
        cover = random_cover(g, m, rng)
        rep = cover_subset_audit(spec, cover, m, subsets=False)
        if not rep.gap_checked:  # canonical sample; the bound does not apply
            continue
        produced += 1
        checks.append(
            _check(
                "gap-bound",
                "coloring deficit of a twisted cover is bounded below",
                f"{spec} m={m} sample={produced}",
                True,
                rep.ok,
            )
        )
    return checks


def partition_weight_by_subsets(
    d: StarDecomposition, partition: PartitionSpec
) -> IntPoly:
    """`partition_weight` by inclusion-exclusion over the 2^(k-1) leaf
    subsets, each term a precolored polynomial of the forest (clique
    contraction plus deletion-contraction).  Kept as an oracle."""
    if partition.vertex_set != frozenset(d.alphas):
        raise ValueError("partition must cover exactly the star's vertices")
    center, leaves = d.alphas[0], d.alphas[1:]
    bound = max(d.forest.n, len(partition.parts))
    total = IntPoly()
    for size in range(1, len(leaves) + 1):
        for chosen in combinations(leaves, size):
            assignment = {center: partition.shift[center] + 1}
            assignment.update({v: partition.shift[v] + 1 for v in chosen})
            term = precolored_polynomial(d.forest, Precoloring(assignment, bound))
            total = total + term if size % 2 else total - term
    return total


def suite_fvs1(seed: int = 0) -> list[Check]:
    """Feedback-vertex-one polynomial against search and its witness cover,
    and every partition's tree-DP weight against the subset sum."""
    instances: list[tuple[str, Graph, tuple[int, ...]]] = [
        ("theta:2,2,2", build_generalized_theta(ThetaSpec((2, 2, 2))), (3, 4, 5, 6)),
        ("triangle", Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2))), (3, 4, 5)),
        (
            "bowtie",
            Graph(
                ("a", "b", "c", "d", "e"),
                ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)),
            ),
            (3, 4, 5),
        ),
    ]
    checks = []
    for name, g, folds in instances:
        result = fvs1_dp_polynomial(g)
        d = result.decomposition
        for p in partitions_of(d.alphas):
            checks.append(
                _check(
                    "fvs1-weight",
                    "tree-DP weight equals the leaf-subset inclusion-exclusion",
                    f"{name} " + "|".join(",".join(sorted(part)) for part in p.parts),
                    str(partition_weight_by_subsets(d, p)),
                    str(partition_weight(d, p)),
                )
            )
        for m in folds:
            want = min_over_covers(g, m).value
            checks.append(
                _check(
                    "fvs1-polynomial",
                    "partition-maximum polynomial equals exhaustive minimum",
                    f"{name} m={m}",
                    want,
                    result.dp_polynomial(m),
                )
            )
            checks.append(
                _check(
                    "fvs1-witness",
                    "shift cover attains the reported count",
                    f"{name} m={m}",
                    want,
                    count_colorings(g, result.witness_cover(m)),
                )
            )
        chrom = chromatic_polynomial(g, limit=max(16, g.n))
        checks.append(
            _check(
                "fvs1-leading-terms",
                "three highest coefficients match the chromatic polynomial",
                name,
                list(chrom.coeffs[-3:]),
                list(result.dp_polynomial.coeffs[-3:]),
            )
        )
    return checks


def suite_classify(seed: int = 0) -> list[Check]:
    """Parity classification against exhaustive minima at small folds."""
    checks = []
    res = classify_generalized(ThetaSpec((2, 2, 3)))
    checks.append(
        _check(
            "classify",
            "same-parity pair makes the DP function eventually smaller",
            "theta:2,2,3",
            "eventually-less j=2 N=3",
            f"{res.kind} j={res.witness_path} N={res.empirical_bound}",
        )
    )
    res = classify_generalized(ThetaSpec((2, 3, 3)))
    checks.append(
        _check(
            "classify",
            "all-different parities keep the DP function equal",
            "theta:2,3,3",
            "eventually-equal",
            res.kind,
        )
    )
    g = build_generalized_theta(ThetaSpec((2, 3, 3)))
    poly = theta_chromatic(ThetaSpec((2, 3, 3)))
    for m in (3, 4):
        checks.append(
            _check(
                "classify-equality",
                "eventually-equal instance matches the chromatic value",
                f"theta:2,3,3 m={m}",
                poly(m),
                min_over_covers(g, m).value,
            )
        )
    spec4 = ThetaSpec((2, 3, 3, 3))
    g4 = build_generalized_theta(spec4)
    p4 = theta_chromatic(spec4)(3)
    found = min_over_covers(g4, 3).value
    checks.append(
        _check(
            "classify-k4",
            "minimum never exceeds the chromatic value (gap reported)",
            f"theta:2,3,3,3 m=3 gap={p4 - found}",
            True,
            found <= p4,
        )
    )
    return checks


def _random_forest(rng: random.Random, max_vertices: int = 8) -> Graph:
    n = rng.randint(1, max_vertices)
    labels = tuple(f"t{i}" for i in range(n))
    edges = []
    for v in range(1, n):
        if rng.random() < 0.8:  # otherwise v starts a new component
            edges.append((rng.randrange(v), v))
    return Graph(labels, tuple(edges))


def suite_precolor(seed: int = 0, samples: int = 100) -> list[Check]:
    """Precoloring polynomial versus direct counts on random forests."""
    rng = random.Random(seed)
    checks = []
    for i in range(samples):
        g = _random_forest(rng)
        pool = list(g.vertices)
        rng.shuffle(pool)
        domain = pool[: rng.randint(0, len(pool))]
        bound = g.n + rng.randint(0, 2)
        pc = Precoloring({v: rng.randint(1, bound) for v in domain}, bound)
        poly = precolored_polynomial(g, pc)
        values = [precolored_count(g, pc, m) for m in range(bound, bound + 6)]
        checks.append(
            _check(
                "precolor",
                "contracted-clique polynomial matches direct counts",
                f"forest sample={i} n={g.n} fixed={len(domain)}",
                values,
                [poly(m) for m in range(bound, bound + 6)],
            )
        )
    return checks


def suite_poly(seed: int = 0) -> list[Check]:
    """Exact division round trips and eventual-ordering sign agreement."""
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(200):
        p = IntPoly([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 11))])
        q = IntPoly([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 11))])
        if q.is_zero():
            continue
        if (p * q).exact_div(q) != p:
            ok = False
    checks.append(
        _check("poly-division", "exact_div(p*q, q) == p", "200 random pairs", True, ok)
    )
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
    checks.append(
        _check(
            "poly-ordering",
            "ordering holds at the bound and 20 folds beyond",
            "100 random pairs",
            True,
            ok,
        )
    )
    return checks


SUITES = {
    "theta-identity": suite_theta_identity,
    "edge-pair-forms": suite_edge_pair_forms,
    "term-differences": suite_term_differences,
    "formula-search": suite_formula_search,
    "inclusion-exclusion": suite_inclusion_exclusion,
    "subset-audit": suite_subset_audit,
    "gap-bound": suite_gap_bound,
    "fvs1": suite_fvs1,
    "classify": suite_classify,
    "precolor": suite_precolor,
    "poly": suite_poly,
}


def run_suites(names: list[str], seed: int = 0) -> list[Check]:
    checks = []
    for name in names:
        checks.extend(SUITES[name](seed))
    return checks
