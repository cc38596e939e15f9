"""Acceptance suite: one test per criterion, exact integer equality
throughout (tolerance 0), one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from itertools import product

from dpchroma.analysis import (
    CASE_TO_TERM,
    classify_generalized,
    cover_gap,
    cover_loss_terms,
    cover_subset_audit,
    fvs1_dp_polynomial,
    loss_term_differences,
    theta_dp_formula,
)
from dpchroma.chromatic import (
    chromatic_polynomial,
    precolored_count,
    precolored_polynomial,
    Precoloring,
    theta_chromatic,
)
from dpchroma.covers import (
    count_colorings,
    min_over_covers,
    random_cover,
)
from dpchroma.graphs import Graph, ThetaSpec, build_generalized_theta

from oracles import chromatic_by_subsets, cover_count_by_subsets

SEED = 20200801


def report(num: int, description: str, ok: bool):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def ordered_triples(low, high):
    for l1 in range(low, high + 1):
        for l2 in range(l1, high + 1):
            for l3 in range(l2, high + 1):
                yield l1, l2, l3


def test_criterion_1_formula_equals_exhaustive_minimum():
    failures = []
    for l1, l2, l3 in ordered_triples(2, 4):
        formula = theta_dp_formula(l1, l2, l3)
        g = build_generalized_theta(ThetaSpec((l1, l2, l3)))
        for m in (3, 4):
            want = formula.value_at(m)
            got = min_over_covers(g, m).value
            if want != got:
                failures.append(((l1, l2, l3), m, want, got))
    spots = {
        (2, 2, 2): 18,
        (2, 2, 3): 39,
        (2, 3, 3): 78,
    }
    for lengths, value in spots.items():
        if theta_dp_formula(*lengths).value_at(3) != value:
            failures.append((lengths, 3, value, "spot"))
    if theta_chromatic(ThetaSpec((2, 3, 3)))(3) != 78:
        failures.append(("P(2,3,3,3)", 3, 78, "spot"))
    report(
        1,
        "parity-case formula equals exhaustive cover minimum on the "
        f"2..4 grid at m in {{3,4}} (failures: {failures})",
        not failures,
    )


def test_criterion_2_chromatic_cross_validation():
    failures = []
    for k in (2, 3, 4):
        for lengths in product(range(1, 6), repeat=k):
            if sum(1 for x in lengths if x == 1) > 1:
                continue
            spec = ThetaSpec(lengths)
            g = build_generalized_theta(spec)
            if theta_chromatic(spec) != chromatic_polynomial(g):
                failures.append(lengths)
    zoo = [
        Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2))),
        Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3))),
        Graph(("a", "b", "c", "d"), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
        Graph(("a", "b", "c", "d"), ((0, 1), (2, 3))),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
        build_generalized_theta(ThetaSpec((2, 2, 2))),
        build_generalized_theta(ThetaSpec((2, 2, 3))),
        build_generalized_theta(ThetaSpec((2, 3, 3))),
        build_generalized_theta(ThetaSpec((1, 2, 2))),
    ]
    for g in zoo:
        assert len(g.edges) <= 8
        poly = chromatic_polynomial(g)
        for m in range(1, 5):
            if chromatic_by_subsets(g, m) != poly(m):
                failures.append((g.vertices, m))
    report(
        2,
        "theta closed form is the chromatic polynomial (k<=4, l<=5) and "
        f"subset sums agree on all <=8-edge graphs at m<=4 (failures: {failures})",
        not failures,
    )


def test_criterion_3_loss_term_pipeline():
    failures = []
    for l1, l2, l3 in ordered_triples(2, 4):
        formula = theta_dp_formula(l1, l2, l3)
        for m in (3, 4):
            terms = cover_loss_terms(l1, l2, l3, m)
            if terms.bound != formula.value_at(m):
                failures.append(("bound", (l1, l2, l3), m))
            if CASE_TO_TERM[formula.case] not in terms.best_indices:
                failures.append(("argmax", (l1, l2, l3), m))
    report(
        3,
        "five-term bound reproduces criterion-1 values and its argmax "
        f"follows the case mapping (failures: {failures})",
        not failures,
    )


def test_criterion_4_difference_identities():
    failures = []
    for l1 in range(2, 7):
        for l2 in range(l1, 7):
            for l3 in range(l2, 7):
                for m in range(3, 13):
                    rep = loss_term_differences(l1, l2, l3, m)
                    bad_diff = [
                        d.pair for d in rep.differences if not (d.agrees and d.sign_ok)
                    ]
                    bad_chain = [c.pair for c in rep.chains if not c.ok]
                    if bad_diff or bad_chain:
                        failures.append(((l1, l2, l3), m, bad_diff, bad_chain))
    report(
        4,
        "all seven difference identities, sign predictions, and chain "
        f"milestones hold on [2,6]^3 x [3,12] (failures: {len(failures)})",
        not failures,
    )


def test_criterion_5_subset_machinery():
    rng = random.Random(SEED)
    failures = []
    for lengths in ((2, 2, 3), (2, 3, 3)):
        g = build_generalized_theta(ThetaSpec(lengths))
        for i in range(50):
            cover = random_cover(g, 3, rng)
            if cover_count_by_subsets(cover) != count_colorings(g, cover):
                failures.append(("ie", lengths, i))
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    for m in (3, 4, 5):
        for i in range(20):
            rep = cover_subset_audit(random_cover(g, m, rng))
            if rep.subsets_checked != 2**8 - 1:
                failures.append(("sweep-size", m, i))
            if not rep.ok:
                failures.append(("audit", m, i))
    m = 2 ** (spec.edge_count + 1)
    assert m == 512
    checked = 0
    while checked < 100:
        gap = cover_gap(random_cover(g, m, rng))
        if gap is None:
            continue
        checked += 1
        surplus, bound = gap
        if surplus < bound:
            failures.append(("gap", checked))
    report(
        5,
        "subset counting cross-checks: 100 inclusion-exclusion matches, "
        "exhaustive classification for 60 covers, and the deficit bound "
        f"for 100 covers at m=512 (failures: {failures})",
        not failures,
    )


def test_criterion_6_feedback_vertex_polynomial():
    instances = [
        ("theta:2,2,2", build_generalized_theta(ThetaSpec((2, 2, 2))), (3, 4, 5, 6)),
        ("triangle", Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2))), (3, 4, 5)),
        (
            "two triangles sharing a vertex",
            Graph(
                ("a", "b", "c", "d", "e"),
                ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)),
            ),
            (3, 4, 5),
        ),
    ]
    failures = []
    for name, g, folds in instances:
        result = fvs1_dp_polynomial(g)
        for m in folds:
            want = min_over_covers(g, m).value
            if result.dp_polynomial(m) != want:
                failures.append(("poly", name, m))
            if count_colorings(g, result.witness_cover(m)) != want:
                failures.append(("witness", name, m))
    report(
        6,
        "feedback-vertex polynomial and its shift-cover witness match the "
        f"exhaustive minimum on all three instances (failures: {failures})",
        not failures,
    )


def test_criterion_7_parity_classification():
    failures = []
    res = classify_generalized(ThetaSpec((2, 2, 3)))
    if (res.kind, res.witness_path, res.empirical_bound) != ("eventually-less", 2, 3):
        failures.append(("2,2,3", res))
    if not theta_dp_formula(2, 2, 3).value_at(3) == 39 < 42 == theta_chromatic(
        ThetaSpec((2, 2, 3))
    )(3):
        failures.append(("strict gap", 3))
    res = classify_generalized(ThetaSpec((2, 3, 3)))
    if res.kind != "eventually-equal":
        failures.append(("2,3,3", res))
    g = build_generalized_theta(ThetaSpec((2, 3, 3)))
    poly = theta_chromatic(ThetaSpec((2, 3, 3)))
    for m in (3, 4, 5):
        if min_over_covers(g, m).value != poly(m):
            failures.append(("equality", m))
    report(
        7,
        "theta:2,2,3 is eventually-less with certificate from m=3 "
        "(39 < 42) and theta:2,3,3 stays equal at every searched fold "
        f"(failures: {failures})",
        not failures,
    )


def test_criterion_8_precoloring_polynomials():
    rng = random.Random(SEED)
    failures = []
    for i in range(100):
        n = rng.randint(1, 8)
        labels = tuple(f"t{j}" for j in range(n))
        edges = tuple(
            (rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8
        )
        g = Graph(labels, edges)
        pool = list(labels)
        rng.shuffle(pool)
        domain = pool[: rng.randint(0, n)]
        bound = n + rng.randint(0, 2)
        pc = Precoloring({v: rng.randint(1, bound) for v in domain}, bound)
        poly = precolored_polynomial(g, pc)
        for m in range(bound, bound + 6):
            if poly(m) != precolored_count(g, pc, m):
                failures.append((i, m))
    report(
        8,
        "precoloring polynomial equals direct counts at m = n..n+5 on 100 "
        f"random forests (failures: {failures})",
        not failures,
    )
