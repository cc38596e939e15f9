import decimal
import json
import random
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from dpchroma.analysis import (
    CASE_TO_TERM,
    classify_generalized,
    cover_gap,
    cover_loss_terms,
    cover_subset_audit,
    edge_deletion_gap,
    fvs1_dp_polynomial,
    list_color_threshold,
    loss_term_differences,
    partition_weight,
    theta_dp_formula,
)
from dpchroma.chromatic import (
    chromatic_polynomial,
    theta_chromatic,
    theta_edge_deleted_chromatic,
)
from dpchroma.covers import (
    FullCover,
    PartitionSpec,
    count_colorings,
    identity_cover,
    min_over_covers,
    partitions_of,
    random_cover,
)
from dpchroma.errors import OutOfRange, OutOfScope
from dpchroma.graphs import (
    Graph,
    ThetaSpec,
    build_generalized_theta,
    component_count,
    star_forest_decomposition,
)
from dpchroma.poly import M, positive_from, power_m1, prod, sign

from oracles import avoidance_count, mask_of, star_partitions, subset_agreement_count, to_text


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(lengths))


def test_dp_formula_cases_and_values():
    f = theta_dp_formula(2, 2, 2)
    assert f.case == 4 and f.valid_from == 3
    assert f.value_at(3) == 18
    assert f.value_at(2) == 0 and f.value_at(1) == 0
    f = theta_dp_formula(2, 2, 3)
    assert f.case == 2 and f.valid_from == 2
    assert f.value_at(3) == 39 and f.value_at(2) == 0
    f = theta_dp_formula(2, 3, 4)
    assert f.case == 3
    assert f.value_at(3) == 159
    f = theta_dp_formula(2, 3, 3)
    assert f.case == 1 and f.valid_from == 1
    assert f.polynomial == theta_chromatic(ThetaSpec((2, 3, 3)))


def test_dp_formula_guards():
    with pytest.raises(OutOfScope):
        theta_dp_formula(1, 2, 2)
    with pytest.raises(ValueError):
        theta_dp_formula(3, 2, 4)
    with pytest.raises(OutOfRange):
        theta_dp_formula(2, 2, 2).value_at(0)


def test_dp_formula_vanishes_below_validity():
    # cases (ii)-(iv) claim nothing below their threshold, where the true
    # value is 0 because the graph contains a cycle
    for l1, l2, l3 in ((2, 2, 3), (2, 3, 4), (2, 2, 2), (3, 3, 3)):
        f = theta_dp_formula(l1, l2, l3)
        if f.case in (2, 3):
            assert f.value_at(2) == f.polynomial(2) == 0
        g = build_generalized_theta(ThetaSpec((l1, l2, l3)))
        for m in (1, 2):
            assert min_over_covers(g, m).value == 0 == f.value_at(m)


def test_cover_loss_terms_pinned():
    lt = cover_loss_terms(2, 2, 2, 3)
    assert lt.terms == (18, 27, 27, 27, 30)
    assert lt.bound == 18
    assert lt.best_indices == (4,)
    lt = cover_loss_terms(2, 2, 3, 3)
    assert lt.bound == 39 and 1 in lt.best_indices
    lt = cover_loss_terms(2, 3, 3, 3)
    assert lt.bound == 78 and 0 in lt.best_indices
    with pytest.raises(OutOfRange):
        cover_loss_terms(2, 2, 2, 2)


def test_loss_term_differences_pinned():
    rep = loss_term_differences(2, 2, 2, 3)
    assert rep.ok
    d54 = next(d for d in rep.differences if d.pair == (5, 4))
    assert d54.direct == 3 == d54.closed_form
    rep = loss_term_differences(2, 2, 3, 3)
    d23 = next(d for d in rep.differences if d.pair == (2, 3))
    assert d23.direct == 0 == d23.closed_form


def test_loss_term_grid_and_even_sum_monotonicity():
    for l1 in range(2, 5):
        for l2 in range(l1, 5):
            for l3 in range(l2, 5):
                for m in range(3, 7):
                    rep = loss_term_differences(l1, l2, l3, m)
                    assert rep.ok, (l1, l2, l3, m)
                    if (l1 + l2) % 2 == 0:
                        t = rep.terms.terms
                        assert t[1] >= t[0]  # first appendix chain


def test_formula_matches_search_beyond_the_small_grid():
    for l1 in range(2, 6):
        for l2 in range(l1, 6):
            for l3 in range(l2, 6):
                g = theta(l1, l2, l3)
                f = theta_dp_formula(l1, l2, l3)
                assert min_over_covers(g, 3).value == f.value_at(3), (l1, l2, l3)
    for lengths in ((2, 2, 2), (2, 2, 3), (2, 3, 4), (2, 3, 3)):
        g = theta(*lengths)
        f = theta_dp_formula(*lengths)
        assert min_over_covers(g, 5).value == f.value_at(5)


def test_bound_matches_formula_and_argmax_mapping():
    for l1 in range(2, 5):
        for l2 in range(l1, 5):
            for l3 in range(l2, 5):
                f = theta_dp_formula(l1, l2, l3)
                for m in (3, 4):
                    lt = cover_loss_terms(l1, l2, l3, m)
                    assert lt.bound == f.value_at(m)
                    assert CASE_TO_TERM[f.case] in lt.best_indices


def test_edge_deletion_gap_examples():
    g = theta(2, 2, 3)
    holds, margin = edge_deletion_gap(g, "u", "v_2_1", 3)
    assert holds and margin == 6
    g = theta(2, 3, 3)
    holds, margin = edge_deletion_gap(g, "u", "v_2_1", 3)
    assert not holds
    tree = Graph(("a", "b", "c"), ((0, 1), (1, 2)))
    holds, margin = edge_deletion_gap(tree, "a", "b", 2)
    assert not holds and margin == 0
    with pytest.raises(OutOfRange):
        edge_deletion_gap(tree, "a", "b", 1)


def test_classify_examples():
    res = classify_generalized(ThetaSpec((2, 3, 3)))
    assert res.kind == "eventually-equal"
    res = classify_generalized(ThetaSpec((2, 2, 3)))
    assert res.kind == "eventually-less"
    assert res.witness_path == 2
    assert res.empirical_bound == 3
    res = classify_generalized(ThetaSpec((1, 2, 2)))
    assert res.kind == "eventually-equal"
    with pytest.raises(OutOfScope):
        classify_generalized(ThetaSpec((2, 3, 2)))
    with pytest.raises(OutOfScope):
        classify_generalized(ThetaSpec((3, 2, 4)))


def test_classify_equal_instances_match_search():
    g = theta(2, 3, 3)
    poly = theta_chromatic(ThetaSpec((2, 3, 3)))
    for m in (3, 4):
        assert min_over_covers(g, m).value == poly(m)
    spec4 = ThetaSpec((2, 3, 3, 3))
    g4 = build_generalized_theta(spec4)
    assert classify_generalized(spec4).kind == "eventually-equal"
    found = min_over_covers(g4, 3).value
    assert found <= theta_chromatic(spec4)(3)


def sorted_specs(max_paths, max_length):
    """Every spec that `classify_generalized` takes with 2..max_paths paths
    of length at most max_length: l1 >= 1, then l2 <= ... <= lk from
    max(l1, 2)."""
    specs = []
    for k in range(2, max_paths + 1):
        for l1 in range(1, max_length + 1):
            for rest in combinations_with_replacement(range(max(l1, 2), max_length + 1), k - 1):
                specs.append(ThetaSpec((l1,) + rest))
    return specs


def test_certificate_fold_equals_an_upward_sweep():
    specs = sorted_specs(4, 8)
    assert len(specs) == 441
    less = 0
    for spec in specs:
        res = classify_generalized(spec)
        if res.kind == "eventually-equal":
            assert res.empirical_bound is None, spec
            continue
        less += 1
        whole = theta_chromatic(spec)
        deleted = theta_edge_deleted_chromatic(spec, res.witness_path)
        sweep = next(m for m in range(2, 1000) if m * whole(m) - (m - 1) * deleted(m) > 0)
        assert res.empirical_bound == sweep, spec
    assert less == 345


def test_certificate_fold_is_the_proven_fold():
    # `scan` prints "certified from m = N" for the first positive fold N of
    # the witness edge's margin; the margin stays positive from N on
    specs = [spec for spec in sorted_specs(5, 9) if spec.k >= 3]
    less = 0
    for spec in specs:
        res = classify_generalized(spec)
        if res.kind == "eventually-less":
            less += 1
            whole = theta_chromatic(spec)
            deleted = theta_edge_deleted_chromatic(spec, res.witness_path)
            assert res.empirical_bound == positive_from(M * whole - (M - 1) * deleted), spec
    assert less == 1506


def test_deletion_margin_identity_and_its_leading_coefficient():
    # m P(G) - (m-1) P(G - e) for the u-edge of path j equals
    # m(m-1) s_j (prod_{i != j} (b_i + s_i) - prod_{i != j} b_i); for the
    # witness path it leads with the number of paths i != j of length l_1
    from dpchroma.analysis import _deletion_margin

    for spec in sorted_specs(5, 6):
        lengths = spec.lengths
        walks = [(power_m1(l) - sign(l)).exact_div(M) for l in lengths]
        witness = classify_generalized(spec).witness_path
        for j in range(1, spec.k + 1):
            margin = _deletion_margin(
                theta_chromatic(spec), theta_edge_deleted_chromatic(spec, j)
            )
            others = [i for i in range(spec.k) if i != j - 1]
            same = prod(walks[i] + sign(lengths[i]) for i in others)
            differ = prod(walks[i] for i in others)
            assert margin == M * (M - 1) * sign(lengths[j - 1]) * (same - differ), (spec, j)
            if j == witness:
                shortest = sum(lengths[i] == lengths[0] for i in others)
                assert margin.coeffs[-1] == shortest > 0, spec


def test_partition_weight_examples():
    g = theta(2, 2, 2)
    d = star_forest_decomposition(g, "u")
    three = PartitionSpec(
        (frozenset({"u", "v_1_1"}), frozenset({"v_2_1"}), frozenset({"v_3_1"}))
    )
    assert partition_weight(d, three)(3) == 18
    single = PartitionSpec((frozenset({"u", "v_1_1", "v_2_1", "v_3_1"}),))
    assert partition_weight(d, single)(3) == 14
    # The weight is a polynomial that counts only from m >= |V| on; at
    # m = 1 the underlying count is 0 (a forest with an edge has no proper
    # 1-coloring) and the polynomial itself vanishes there whenever every
    # assigned color coincides.
    assert partition_weight(d, single)(1) == 0
    # count interpretation at m = 1: the lone assignment collides on the
    # forest's edges, so no coloring satisfies the condition
    only = [0] * d.forest.n
    assert any(only[a] == only[b] for a, b in d.forest.edges)


def test_partition_weight_against_enumeration():
    from itertools import product

    g = theta(2, 2, 2)
    d = star_forest_decomposition(g, "u")
    g0 = d.forest
    idx = {v: g0.index[v] for v in g0.vertices}
    three = PartitionSpec(
        (frozenset({"u", "v_1_1"}), frozenset({"v_2_1"}), frozenset({"v_3_1"}))
    )
    target = {v: three.shift[v] for v in three.shift}
    m = 3
    direct = 0
    for cols in product(range(m), repeat=g0.n):
        if any(cols[a] == cols[b] for a, b in g0.edges):
            continue
        if cols[idx["u"]] != target["u"]:
            continue
        if any(
            cols[idx[v]] == target[v] for v in ("v_1_1", "v_2_1", "v_3_1")
        ):
            direct += 1
    assert partition_weight(d, three)(3) == direct


def test_fvs1_theta_and_triangle():
    g = theta(2, 2, 2)
    result = fvs1_dp_polynomial(g)
    assert result.dp_polynomial(3) == 18
    assert [sorted(p) for p in result.partition.parts] == [
        ["u", "v_1_1"],
        ["v_2_1"],
        ["v_3_1"],
    ]
    tri = Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    rt = fvs1_dp_polynomial(tri)
    assert rt.dp_polynomial == M * (M - 1) * (M - 2)
    assert rt.partition.parts == (frozenset({"a", "b", "c"}),)


def test_fvs1_trees_get_their_chromatic_polynomial():
    for tree in (
        Graph(("a",), ()),
        Graph(("a", "b"), ((0, 1),)),
        Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (1, 3))),
    ):
        result = fvs1_dp_polynomial(tree)
        assert result.dp_polynomial == chromatic_polynomial(tree)
        assert len(result.partition.parts) == 1
    edgeless = Graph(("a", "b"), ())
    assert fvs1_dp_polynomial(edgeless).dp_polynomial == M**2


def test_fvs1_leading_terms_match_chromatic():
    for g in (
        theta(2, 2, 2),
        theta(2, 3, 3),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
    ):
        result = fvs1_dp_polynomial(g)
        chrom = chromatic_polynomial(g)
        assert result.dp_polynomial.coeffs[-3:] == chrom.coeffs[-3:]


def test_fvs1_rejects_larger_feedback_sets():
    g = Graph(
        ("a", "b", "c", "d", "e", "f"),
        ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)),
    )
    with pytest.raises(OutOfScope):
        fvs1_dp_polynomial(g)


def test_fvs1_tie_partitions_share_their_polynomial():
    g = theta(2, 2, 2)
    d = star_forest_decomposition(g, "u")
    result = fvs1_dp_polynomial(g)
    assert len(star_partitions(result)) >= 1
    for p in star_partitions(result):
        assert partition_weight(d, p) == result.weight


def test_theta_routes_give_identical_polynomials():
    # the parity-case closed form and the partition-maximum machinery are
    # independent routes to the same eventual polynomial, so they must
    # agree coefficient for coefficient
    for l1 in range(2, 5):
        for l2 in range(l1, 5):
            for l3 in range(l2, 5):
                g = theta(l1, l2, l3)
                formula = theta_dp_formula(l1, l2, l3)
                result = fvs1_dp_polynomial(g)
                assert formula.polynomial == result.dp_polynomial, (l1, l2, l3)


def test_shift_cover_count_identity_for_every_partition():
    # for any partition P with at most m parts, the shift cover destroys
    # exactly m * weight(P)(m) of the forest's colorings
    from dpchroma.covers import partitions_of, shift_cover
    from dpchroma.graphs import find_feedback_vertex

    instances = [
        theta(2, 2, 2),
        theta(2, 3, 3),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
        Graph(("r", "x", "y", "z"), ((0, 1), (0, 2), (0, 3))),
    ]
    for g in instances:
        fv = find_feedback_vertex(g)
        center = fv if isinstance(fv, str) else "r"
        d = star_forest_decomposition(g, center)
        forest_poly = chromatic_polynomial(d.forest)
        for p in partitions_of(d.alphas):
            w = partition_weight(d, p)
            for m in range(len(p.parts), len(p.parts) + 3):
                got = count_colorings(g, shift_cover(g, d, p, m))
                assert got == forest_poly(m) - m * w(m)


def test_subset_audit_identity_and_twisted():
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    rep = cover_subset_audit(identity_cover(g, 3))
    assert rep.ok and rep.first_twisted == 0
    cover = FullCover(g, 3, {1: (1, 2, 0), 2: (0, 1, 2)})
    rep = cover_subset_audit(cover)
    assert rep.ok and rep.first_twisted == 2
    assert rep.category_counts["exact-cycle"] == 2
    # the five-cycle through paths 1 and 2 loses every agreement:
    five = mask_of(
        g,
        [("u", "v_1_1"), ("v_1_1", "w"), ("u", "v_2_1"), ("v_2_1", "v_2_2"), ("v_2_2", "w")]
    )
    diff = subset_agreement_count(cover, five) - 3 ** component_count(g, five)
    assert diff == -3 * 3 ** (7 - 5)


def test_subset_audit_random_covers():
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    rng = random.Random(20)
    for m in (3, 4):
        for _ in range(3):
            rep = cover_subset_audit(random_cover(g, m, rng))
            assert rep.ok


def test_subset_audit_other_families():
    rng = random.Random(5)
    for lengths, folds in (((1, 2, 2), (3, 4)), ((2, 3, 3, 3), (3,))):
        spec = ThetaSpec(lengths)
        g = build_generalized_theta(spec)
        for m in folds:
            assert cover_subset_audit(identity_cover(g, m)).ok
            for _ in range(5):
                assert cover_subset_audit(random_cover(g, m, rng)).ok


def test_subset_audit_gap_bound_at_large_fold():
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    m = 2 ** (spec.edge_count + 1)
    rng = random.Random(21)
    for _ in range(5):
        gap = cover_gap(random_cover(g, m, rng))
        assert gap is not None
        surplus, bound = gap
        assert surplus >= bound


def test_list_color_threshold():
    threshold, least = list_color_threshold(1)
    assert threshold == 0 and least == 1
    threshold, least = list_color_threshold(8)
    assert abs(threshold - 7.9421486) < 1e-6 and least == 8
    threshold, least = list_color_threshold(0)
    assert threshold < 0 and least == 1
    with pytest.raises(OutOfRange):
        list_color_threshold(-1)


def test_list_color_threshold_is_exact_past_the_float_range():
    """The least integer above (edges - 1) / ln(1 + sqrt 2) against a
    decimal reference with 60 digits after the point."""
    for edges in (8, 10**16, 10**20, 2**60, 10**300):
        with decimal.localcontext() as context:
            context.prec = len(str(edges)) + 60
            reference = int(decimal.Decimal(edges - 1) / (1 + decimal.Decimal(2).sqrt()).ln()) + 1
        assert list_color_threshold(edges)[1] == reference, edges
    assert list_color_threshold(10**16)[1] == 11345926571065109
    assert list_color_threshold(10**20)[1] == 113459265710651098405
    assert list_color_threshold(2**60)[1] == 1308096273347119054


# ---------------------------------------------------------------------------
# FVS-1 weights: the tree DP against the subset sum and enumeration


def fan(rim):
    """The hub h joined to every vertex of the path r1 - ... - r<rim>."""
    labels = ("h",) + tuple(f"r{i}" for i in range(1, rim + 1))
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i + 1) for i in range(1, rim)]
    return Graph(labels, tuple(edges))


def random_fvs1_graph(rng, n, leaves):
    """A random forest on every vertex but the center c, plus `leaves`
    star edges from c.  Forest vertices attach to an earlier one or start
    a new tree, so the forest has pendant trees, isolated vertices and
    several components."""
    center = rng.randrange(n)
    others = [v for v in range(n) if v != center]
    edges = []
    for i, v in enumerate(others[1:], start=1):
        if rng.random() < 0.6:
            edges.append((others[rng.randrange(i)], v))
    edges += [(center, v) for v in rng.sample(others, leaves)]
    labels = tuple(f"x{i}" for i in range(n))
    return Graph(labels, tuple(edges)), labels[center]


def weights_by_enumeration(d, partitions, m):
    """Weight at m of each partition with at most m parts, by listing the
    proper colorings of the forest with the center on color 0."""
    forest = d.forest
    center = forest.index[d.center]
    leaves = [forest.index[v] for v in d.alphas[1:]]
    ranges = [(0,) if v == center else range(m) for v in range(forest.n)]
    proper = [
        cols
        for cols in product(*ranges)
        if all(cols[a] != cols[b] for a, b in forest.edges)
    ]
    out = {}
    for p in partitions:
        if len(p.parts) <= m:
            target = [p.shift[forest.vertices[v]] for v in leaves]
            out[p] = sum(
                1
                for cols in proper
                if any(cols[v] == t for v, t in zip(leaves, target))
            )
    return out


def fvs1_instances():
    rng = random.Random(20260418)
    shapes = [(4, 0), (5, 1), (5, 2), (6, 2), (6, 3), (6, 3), (5, 3), (6, 4), (7, 3)]
    out = [random_fvs1_graph(rng, n, leaves) for n, leaves in shapes]
    # a center with no neighbors beside a forest with an edge
    out.append((Graph(("a", "b", "c"), ((1, 2),)), "a"))
    return out


def test_partition_weight_against_subset_sum_and_enumeration():
    from dpchroma.verify import partition_weight_by_subsets

    for g, center in fvs1_instances():
        d = star_forest_decomposition(g, center)
        partitions = partitions_of(d.alphas)
        weights = {p: partition_weight(d, p) for p in partitions}
        for p, w in weights.items():
            assert w == partition_weight_by_subsets(d, p), (g, p)
        top = max(len(p.parts) for p in partitions) + 2
        for m in range(1, top + 1):
            for p, count in weights_by_enumeration(d, partitions, m).items():
                if m <= len(p.parts) + 2:
                    assert weights[p](m) == count, (g, p, m)


def test_partitions_with_one_leaf_grouping_share_their_weight():
    for g, center in fvs1_instances():
        d = star_forest_decomposition(g, center)
        by_grouping = {}
        for p in partitions_of(d.alphas):
            grouping = frozenset(part - {center} for part in p.parts) - {frozenset()}
            by_grouping.setdefault(grouping, set()).add(partition_weight(d, p))
        assert all(len(ws) == 1 for ws in by_grouping.values()), g


def test_fvs1_weights_take_no_deletion_contraction(monkeypatch):
    from dpchroma import analysis, chromatic, verify

    def refuse(*args, **kwargs):
        raise AssertionError("FVS-1 weights must not take the subset-sum oracle's route")

    monkeypatch.setattr(chromatic, "precolored_polynomial", refuse)
    monkeypatch.setattr(verify, "precolored_polynomial", refuse)
    monkeypatch.setattr(chromatic, "_transfer", refuse)  # the leaf DP is the one engine
    calls = []
    packed = analysis._LeafCounts.packed

    def counted(self, grouping):
        calls.append(grouping)
        return packed(self, grouping)

    monkeypatch.setattr(analysis._LeafCounts, "packed", counted)
    result = fvs1_dp_polynomial(fan(5))
    # golden values, computed by the subset sum over deletion-contraction
    assert result.dp_polynomial.coeffs == (0, -16, 48, -56, 32, -9, 1)
    assert result.weight.coeffs == (16, -47, 52, -26, 5)
    assert result.stable_from == 1
    # one leaf count per grouping of the 5 leaves: Bell(5), not Bell(6) = 203
    assert len(calls) == 52
    assert len(set(calls)) == 52
    assert len(star_partitions(result)) == 2  # the oracle's own counts come last


def test_fvs1_fields_match_their_pinned_values():
    # 160 seeded graphs (a random forest on 2-8 vertices plus 0-5 star
    # edges), every field recorded while the weights were a tree DP per
    # tree selected over all Bell(k) star partitions, maximizers in order
    pins = json.loads((Path(__file__).parent / "golden" / "fvs1_pins.json").read_text())
    assert len(pins) >= 150

    def parts(p):
        return [sorted(part) for part in p.parts]

    for pin in pins:
        labels = tuple(f"x{i}" for i in range(pin["n"]))
        r = fvs1_dp_polynomial(Graph(labels, tuple(map(tuple, pin["edges"]))))
        got = {
            "n": pin["n"],
            "edges": pin["edges"],
            "center": r.decomposition.center,
            "partition": parts(r.partition),
            "weight": [str(c) for c in r.weight.coeffs],
            "polynomial": [str(c) for c in r.dp_polynomial.coeffs],
            "stable_from": r.stable_from,
            "maximizers": [parts(p) for p in star_partitions(r)],
        }
        assert got == pin, pin["edges"]


def test_a_tied_grouping_of_s_classes_gives_s_plus_one_star_partitions():
    # the rule by which the route counts its `maximizers` as it streams
    # the leaf groupings: the center joins one of the s classes or stands alone
    pins = json.loads((Path(__file__).parent / "golden" / "fvs1_pins.json").read_text())
    for pin in pins:
        labels = tuple(f"x{i}" for i in range(pin["n"]))
        r = fvs1_dp_polynomial(Graph(labels, tuple(map(tuple, pin["edges"]))))
        assert r.maximizers == len(star_partitions(r)), pin


def test_a_star_whose_groupings_all_tie_holds_little_memory():
    # every grouping of K_{1,9}'s leaves ties: the result counts the
    # Bell(10) = 115,975 tied star partitions and keeps none of the
    # Bell(9) = 21,147 tied groupings (kept, they held 2.33 MiB)
    import tracemalloc

    from dpchroma import chromatic

    star = Graph(("c",) + tuple(f"x{i}" for i in range(9)), tuple((0, i) for i in range(1, 10)))
    tracemalloc.start()
    try:
        result = fvs1_dp_polynomial(star)
        chromatic._transfers.cache_clear()
        chromatic._moves.cache_clear()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.maximizers == 115_975
    assert held < 2**19, held


def test_fvs1_builds_partition_specs_only_for_its_answer(monkeypatch):
    # the leaf groupings stay growth strings: `partition` is
    # the one PartitionSpec built, even for the star K_{1,9}, whose
    # Bell(10) = 115,975 star partitions all tie
    built = []
    new = PartitionSpec.__new__

    def counted(cls, parts):
        built.append(new(cls, parts))
        return built[-1]

    monkeypatch.setattr(PartitionSpec, "__new__", counted)
    pins = json.loads((Path(__file__).parent / "golden" / "fvs1_pins.json").read_text())
    # fan(5) has 6 star vertices, K_{1,9} has 10
    star = Graph(("c",) + tuple(f"x{i}" for i in range(9)), tuple((0, i) for i in range(1, 10)))
    graphs = [fan(5), star] + [
        Graph(tuple(f"x{i}" for i in range(pin["n"])), tuple(map(tuple, pin["edges"])))
        for pin in pins
    ]
    for g in graphs:
        built.clear()
        result = fvs1_dp_polynomial(g)
        assert built == [result.partition], g.edges


def test_a_star_of_eleven_vertices_answers_under_the_work_limit():
    # K_{1,10}: each leaf is a tree of the forest alone, so the leaf DP
    # counts nothing per grouping and the meter charges each of the
    # Bell(10) = 115,975 groupings its shared factor m (m - 1)^10, all
    # tied, which gives Bell(11) = 678,570 star partitions
    star = Graph(("c",) + tuple(f"x{i}" for i in range(10)), tuple((0, i) for i in range(1, 11)))
    result = fvs1_dp_polynomial(star)
    assert result.maximizers == 678_570
    assert result.dp_polynomial == M * power_m1(10)


def windmill(blades):
    """The hub h joined to both ends of `blades` disjoint edges."""
    labels = ("h",) + tuple(f"b{i}" for i in range(2 * blades))
    edges = [(2 * i + 1, 2 * i + 2) for i in range(blades)]
    edges += [(0, v) for v in range(1, 2 * blades + 1)]
    return Graph(labels, tuple(edges))


def spiders(count):
    """The hub h joined to both ends of `count` disjoint 3-vertex paths."""
    labels = ("h",) + tuple(f"s{i}" for i in range(3 * count))
    edges = [(3 * i + j, 3 * i + j + 1) for i in range(count) for j in (1, 2)]
    edges += [(0, 3 * i + j) for i in range(count) for j in (1, 3)]
    return Graph(labels, tuple(edges))


def test_dp_formula_refuses_wide_stars_by_their_work(tmp_path, capsys):
    # the work budget alone bounds the route, whatever the star's width:
    # K_{1,4000}'s shared factor, 8.0e6 updates a grouping, passes it at
    # grouping 13, and the product of the Steiner trees' totals, 2,000 or
    # 1,000 trees of two star leaves, at grouping 1
    import time

    from dpchroma.cli import main

    star = Graph(("a",) + tuple(f"l{i:04d}" for i in range(4000)), tuple((0, i) for i in range(1, 4001)))
    for name, g, grouping in (("star", star, 13), ("windmill", windmill(2000), 1), ("spiders", spiders(1000), 1)):
        path = tmp_path / f"{name}.txt"
        path.write_text(to_text(g), encoding="utf-8")
        start = time.perf_counter()
        code = main(["dp-formula", str(path)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        want = (
            "dpchroma: the FVS-1 route passed FVS1_WORK_LIMIT = 100,000,000"
            f" coefficient updates at leaf grouping {grouping}\n"
        )
        assert err == want, name
        assert elapsed < 1, name


def hub_over_path(length, spokes=9):
    """The hub h joined to `spokes` evenly spaced vertices of the path
    p0 - ... - p<length - 1>, ends included."""
    labels = ("h",) + tuple(f"p{i}" for i in range(length))
    edges = [(i, i + 1) for i in range(1, length)]
    edges += [(0, 1 + round(j * (length - 1) / (spokes - 1))) for j in range(spokes)]
    return Graph(labels, tuple(edges))


def test_dp_formula_refuses_a_star_over_a_long_path_by_its_summed_work(tmp_path, capsys):
    # 10 star vertices, 21,147 leaf groupings whose leaf counts would sum
    # to about 1e10; at 200 path vertices the limit is passed at grouping
    # 173.  The meter charges every grouping what a cold count of
    # it costs, so a second run in the same process is refused at the same
    # grouping.
    import time

    from dpchroma.cli import main

    path = tmp_path / "hub200.txt"
    path.write_text(to_text(hub_over_path(200)), encoding="utf-8")
    errors = []
    for _ in range(2):
        start = time.perf_counter()
        assert main(["dp-formula", str(path)]) == 2
        assert time.perf_counter() - start < 30
        errors.append(capsys.readouterr().err)
    head = "dpchroma: the FVS-1 route passed FVS1_WORK_LIMIT = 100,000,000"
    assert errors[0] == errors[1] and errors[0].startswith(head), errors
    assert errors[0].count("\n") == 1 and " coefficient updates at leaf grouping " in errors[0]


def hub_over_random_tree(seed, size=200, spokes=9):
    """The hub h joined to `spokes` seeded vertices of a random tree on
    `size` more, each tree vertex joined to a random earlier one."""
    rng = random.Random(seed)
    edges = [(rng.randrange(1, v), v) for v in range(2, size + 1)]
    edges += [(0, v) for v in rng.sample(range(1, size + 1), spokes)]
    return Graph(("h",) + tuple(f"t{i:03d}" for i in range(size)), tuple(edges))


def test_dp_formula_refuses_a_hub_over_a_branching_tree_at_a_pinned_grouping(tmp_path, capsys):
    # S is the Steiner tree of 9 leaves in a 200-vertex random tree, with
    # a vertex of three children in S, where the order of the children
    # enters the charge for their product.  The grouping at which the
    # summed work passes the limit pins that charge.
    import time

    from dpchroma import analysis
    from dpchroma.cli import main

    d = star_forest_decomposition(hub_over_random_tree(3), "h")
    assert max(map(len, analysis._LeafCounts(d).kids)) == 3
    path = tmp_path / "hub.txt"
    path.write_text(to_text(d.graph), encoding="utf-8")
    start = time.perf_counter()
    assert main(["dp-formula", str(path)]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        "dpchroma: the FVS-1 route passed FVS1_WORK_LIMIT = 100,000,000"
        " coefficient updates at leaf grouping 4,321\n"
    )


def test_the_largest_admitted_stars_answer_under_the_work_limit(monkeypatch):
    from dpchroma import analysis

    from test_least_row_values import alt_hub

    made = []
    init = analysis._LeafCounts.__init__

    def kept(self, d):
        init(self, d)
        made.append(self)

    monkeypatch.setattr(analysis._LeafCounts, "__init__", kept)
    spent = {}
    for name, g in (("fan", fan(9)), ("alt-hub", alt_hub(3, 5))):  # 10 star vertices each
        made.clear()
        fvs1_dp_polynomial(g)
        (counts,) = made  # one DP for all 21,147 groupings
        spent[name] = counts.work
    # the meter's sums, a function of the graph alone; the fan's is within
    # a factor 10 of the limit, alt-hub's three 5-vertex trees cost less,
    # 676,704 of it for multiplying their totals
    assert spent == {"fan": 10_670_551, "alt-hub": 7_883_133}, spent
    assert analysis.FVS1_WORK_LIMIT // 10 < spent["fan"] < analysis.FVS1_WORK_LIMIT
    assert spent["alt-hub"] < analysis.FVS1_WORK_LIMIT


def test_fvs1_compares_once_per_leaf_grouping(monkeypatch):
    # the selection over Bell(k - 1) groupings must give what a selection
    # over all Bell(k) partitions gives: the first partition with the
    # eventually maximal weight, every partition tied with it, and the
    # largest fold below which a partition's weight exceeds the winner's
    # where its leaves' classes are read, with one avoidance count per
    # grouping, each compared by its coefficients alone
    from dpchroma import analysis
    from dpchroma.poly import eventual_compare

    calls = []
    packed = analysis._LeafCounts.packed

    def counted(self, grouping):
        calls.append(grouping)
        return packed(self, grouping)

    monkeypatch.setattr(analysis._LeafCounts, "packed", counted)
    graphs = [fan(4), fan(5), theta(2, 2, 2), theta(2, 3, 3), theta(2, 2, 3, 3)]
    graphs += [g for g, _ in fvs1_instances()]
    for g in graphs:
        calls.clear()
        result = fvs1_dp_polynomial(g)
        d = result.decomposition
        partitions = partitions_of(d.alphas)
        weights = [partition_weight(d, p) for p in partitions]
        best = 0
        for i, w in enumerate(weights):
            if eventual_compare(w, weights[best])[0] == "greater":
                best = i
        against_best = [eventual_compare(weights[best], w) for w in weights]
        pairs = zip(partitions, against_best)
        tied = tuple(p for p, (relation, _) in pairs if relation == "equal")
        assert result.partition == partitions[best], g
        assert result.weight == weights[best], g
        # the weights take integer values, so weights[best] >= w from the
        # fold at which weights[best] + 1 > w for good; below the number of
        # parts holding a leaf no grouping of w's count is read
        folds = [len(result.partition.parts)]
        for p, w in zip(partitions, weights):
            relation, fold = eventual_compare(weights[best] + 1, w)
            assert relation == "greater", g
            if fold > sum(1 for part in p.parts if part != {d.center}):
                folds.append(fold)
        assert result.stable_from == max(folds), g
        groupings = partitions_of(d.alphas[1:])
        # the selection's counts come first, then the test's own weights
        assert len(calls) == len(groupings) + len(partitions), g
        assert len(set(calls[: len(groupings)])) == len(groupings), g
        assert star_partitions(result) == tied, g
        assert result.maximizers == len(tied), g


def test_every_avoidance_count_is_monic_of_the_forest_degree():
    # the premise of the FVS-1 selection, which orders the counts by their
    # coefficients read from the top, and of the leaf DP, which orders them
    # by their packed Steiner counts: each monic of degree |S|, the count
    # that Steiner count times the shared factor
    from dpchroma import analysis
    from dpchroma.poly import unpack

    graphs = [fan(4), fan(5), theta(2, 2, 2), theta(2, 3, 3), theta(2, 2, 3, 3)]
    decompositions = [fvs1_dp_polynomial(g).decomposition for g in graphs]
    decompositions += [star_forest_decomposition(g, c) for g, c in fvs1_instances()]
    for d in decompositions:
        k = len(d.alphas) - 1
        counts = analysis._LeafCounts(d)
        steiner = d.forest.n - counts.trees - counts.lone
        for grouping in analysis._growth_strings(k, k):
            count = avoidance_count(d, grouping)
            coeffs = count.coeffs
            assert len(coeffs) == d.forest.n + 1 and coeffs[-1] == 1, (d.alphas, grouping)
            packed = unpack(counts.packed(grouping), counts.width)
            assert len(packed.coeffs) == steiner + 1 and packed.coeffs[-1] == 1, (d.alphas, grouping)
            assert packed * counts.factor == count, (d.alphas, grouping)
