import json
import random
from itertools import permutations

import pytest

from dpchroma.covers import (
    FullCover,
    count_colorings,
    cover_to_json,
    cycle_type_representatives,
    identity_cover,
    invert_perm,
    min_over_covers,
    partitions_of,
    PartitionSpec,
    random_cover,
    shift_cover,
    twist_profile,
)
from dpchroma.chromatic import chromatic_polynomial
from dpchroma.errors import (
    AssumptionViolated,
    CoverMismatch,
    FoldTooSmall,
    SearchBudgetExceeded,
)
from dpchroma.graphs import (
    Graph,
    ThetaSpec,
    build_generalized_theta,
    component_count,
    star_forest_decomposition,
)

from oracles import (
    brute_force_cover_count,
    conjugated,
    cover_count_by_subsets,
    cycle_type,
    mask_of,
    subset_agreement_count,
    theta_transfer_count,
    transversal_count,
)

IDENT3 = (0, 1, 2)
SWAP12 = (1, 0, 2)
CYCLE3 = (1, 2, 0)


def theta(*lengths):
    return build_generalized_theta(ThetaSpec(lengths))


def theta_cover(g, m, twists_by_path):
    """Cover of a theta graph with the given twists on the u-edges of paths >= 2."""
    twists = {}
    for i in range(g.edge_count):
        if i not in g.standard_tree:
            twists[i] = twists_by_path.get(i + 1, tuple(range(m)))
    return FullCover(g, m, twists)


def test_standard_tree_leaves_u_edges_free():
    g = theta(2, 3, 3)
    assert sorted(set(range(g.edge_count)) - g.standard_tree) == [1, 2]


def test_identity_cover_counts():
    tree = Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (1, 3)))
    assert count_colorings(tree, identity_cover(tree, 3)) == 3 * 2**3
    g = theta(2, 2, 2)
    assert count_colorings(g, identity_cover(g, 3)) == 30
    g2 = theta(2, 3, 3)
    assert count_colorings(g2, identity_cover(g2, 3)) == 78


def test_identity_cover_counts_proper_colorings_everywhere():
    zoo = [
        Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2))),
        Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3))),
        Graph(("a", "b", "c", "d", "e"), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
        Graph(("a", "b", "c", "d"), ((0, 1), (2, 3))),
        theta(2, 2, 3),
        theta(1, 2, 2),
    ]
    for g in zoo:
        poly = chromatic_polynomial(g)
        for m in range(1, 7):
            assert count_colorings(g, identity_cover(g, m)) == poly(m)


def test_pinned_double_cycle_cover():
    g = theta(2, 2, 2)
    cover = theta_cover(g, 3, {2: CYCLE3, 3: CYCLE3})
    # frozen from direct enumeration of the 3^5 assignments
    assert brute_force_cover_count(g, cover) == 21
    assert count_colorings(g, cover) == 21


def test_counts_match_brute_force_on_random_theta_covers():
    rng = random.Random(11)
    for lengths in ((2, 2, 2), (1, 2, 2), (2, 2, 3)):
        g = theta(*lengths)
        for m in (2, 3):
            for _ in range(6):
                cover = random_cover(g, m, rng)
                assert count_colorings(g, cover) == brute_force_cover_count(g, cover)


def test_counts_match_brute_force_on_non_theta_graphs():
    rng = random.Random(12)
    bowtie = Graph(
        ("a", "b", "c", "d", "e"),
        ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)),
    )
    c5 = Graph(("a", "b", "c", "d", "e"), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    for g in (bowtie, c5):
        for _ in range(6):
            cover = random_cover(g, 3, rng)
            assert count_colorings(g, cover) == brute_force_cover_count(g, cover)


def test_forest_covers_are_canonical():
    rng = random.Random(13)
    forest = Graph(("a", "b", "c", "d", "e"), ((0, 1), (1, 2), (3, 4)))
    for m in (2, 3, 4):
        cover = random_cover(forest, m, rng)
        assert count_colorings(forest, cover) == m**2 * (m - 1) ** 3


def test_partial_covers_are_refused():
    """Every cover is full: a matching with an unmatched fiber vertex is
    refused, on a cotree edge and, through `from_edge_perms`, on a tree
    edge."""
    c4 = Graph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3)))
    (cotree_edge,) = set(range(4)) - c4.standard_tree
    partial = (1, None, 0)  # one fiber vertex unmatched
    with pytest.raises(CoverMismatch):
        FullCover(c4, 3, {cotree_edge: partial})
    g = theta(2, 2, 2)
    with pytest.raises(CoverMismatch):
        FullCover(g, 3, {1: (1, None, 0), 2: IDENT3})
    with pytest.raises(CoverMismatch):
        FullCover.from_edge_perms(g, 3, {0: (1, None, 0)})
    with pytest.raises(CoverMismatch):
        FullCover.from_edge_perms(g, 3, {0: (0, 0, 1)})


def test_cover_validation():
    g = theta(2, 2, 2)
    with pytest.raises(CoverMismatch):
        FullCover(g, 3, {})  # missing twists
    with pytest.raises(CoverMismatch):
        FullCover(g, 3, {1: (0, 0, 2), 2: IDENT3})  # not injective
    # Edge 0 (u-v_1_1) lies on the standard tree, so it carries no twist.
    assert g.standard_tree == frozenset({0, 3, 4, 5})
    with pytest.raises(CoverMismatch):
        FullCover(g, 3, {0: IDENT3, 1: IDENT3, 2: IDENT3})  # extra tree twist
    with pytest.raises(CoverMismatch):
        FullCover(g, 3, {0: IDENT3, 2: IDENT3})  # tree twist for a cotree one
    other = theta(2, 2, 3)
    with pytest.raises(CoverMismatch):
        count_colorings(other, identity_cover(g, 3))


def test_conjugation_invariance():
    rng = random.Random(14)
    g = theta(2, 3, 3)
    perms3 = list(permutations(range(3)))
    for _ in range(100):
        cover = random_cover(g, 3, rng)
        tau = perms3[rng.randrange(len(perms3))]
        assert count_colorings(g, cover) == count_colorings(g, conjugated(cover, tau))


def test_gauge_canonicalization_preserves_counts():
    g = theta(2, 2, 3)
    rng = random.Random(15)
    for _ in range(10):
        perms = {}
        for i in range(g.edge_count):
            p = list(range(3))
            rng.shuffle(p)
            perms[i] = tuple(p)
        cover = FullCover.from_edge_perms(g, 3, perms)
        # relabeling fibers must not change the count; compare against a
        # direct enumeration of the unnormalized assignment
        assert count_colorings(g, cover) == transversal_count(g, 3, perms)


def test_min_over_covers_small_cases():
    for lengths, m, want in (((2, 2, 2), 3, 18), ((2, 2, 3), 3, 39), ((2, 3, 3), 3, 78)):
        g = theta(*lengths)
        result = min_over_covers(g, m)
        assert result.value == want
        assert count_colorings(g, result.cover) == want


def test_min_over_covers_against_full_enumeration_oracle():
    # independent route: enumerate every tree-canonical cover and count each
    # by brute force over all assignments
    for lengths, m in (((2, 2, 2), 2), ((2, 2, 2), 3), ((1, 2, 2), 3)):
        g = theta(*lengths)
        cotree = sorted(set(range(g.edge_count)) - g.standard_tree)
        best = None
        for twists in permutations_product(m, len(cotree)):
            cover = FullCover(g, m, dict(zip(cotree, twists)))
            value = brute_force_cover_count(g, cover)
            best = value if best is None else min(best, value)
        assert min_over_covers(g, m).value == best


def permutations_product(m, count):
    from itertools import product as iproduct

    return iproduct(permutations(range(m)), repeat=count)


def test_transfer_count_matches_conditioning_dp_at_large_fold():
    from dpchroma.covers import _FeedbackPlan

    rng = random.Random(19)
    # A permutation on every edge; paths of length 11 or more have edges
    # stored against the u-to-w direction ("v_2_10" sorts before "v_2_9").
    for g in (theta(2, 3, 3), theta(2, 11, 12)):
        for m in (17, 47):
            plan = _FeedbackPlan(g)
            for _ in range(3):
                perms = [tuple(rng.sample(range(m), m)) for _ in g.edges]
                want = theta_transfer_count(g, m, perms)
                assert plan.count(perms, m) == want


def test_min_over_covers_symmetry_levels_agree():
    for lengths in ((2, 2, 2), (2, 2, 3)):
        g = theta(*lengths)
        values = {
            level: min_over_covers(g, 3, symmetry=level).value
            for level in ("none", "tree-canonical", "tree-canonical+conjugacy")
        }
        assert len(set(values.values())) == 1


def test_min_never_exceeds_chromatic_value():
    for lengths in ((2, 2, 2), (2, 3, 3), (1, 2, 2)):
        g = theta(*lengths)
        poly = chromatic_polynomial(g)
        for m in (2, 3):
            assert min_over_covers(g, m).value <= poly(m)


def test_min_over_covers_budget():
    g = theta(2, 2, 2)
    with pytest.raises(SearchBudgetExceeded):
        min_over_covers(g, 3, budget=10)


def test_large_folds_are_refused_before_any_representative_is_built(monkeypatch):
    import time
    from pathlib import Path

    from dpchroma import covers
    from dpchroma.cli import load_graph

    def refuse(m):
        raise AssertionError(f"cycle-type representatives of S_{m} built")

    monkeypatch.setattr(covers, "cycle_type_representatives", refuse)
    g = theta(2, 2, 2)
    for m in (100, 1000):
        start = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded, match="covers exceed the budget of 10000000"):
            min_over_covers(g, m)
        assert time.perf_counter() - start < 5, m
    # a tree has no free edge: one cover, counted with no representative
    tree = load_graph(str(Path(__file__).parent / "golden" / "tree.txt"))
    result = min_over_covers(tree, 70)
    assert result.candidates == 1
    assert result.value == 70 * 69**5


def test_cycle_type_count_is_the_number_of_representatives():
    from dpchroma.covers import _partition_count

    for m in range(1, 11):
        assert _partition_count(m) == len(cycle_type_representatives(m)), m
    assert _partition_count(100) == 190_569_292


def test_min_over_covers_worker_determinism():
    g = theta(2, 2, 3)
    serial = min_over_covers(g, 3, workers=1)
    parallel = min_over_covers(g, 3, workers=2)
    assert serial.value == parallel.value
    assert cover_to_json(serial.cover) == cover_to_json(parallel.cover)


def test_cycle_type_representatives_are_lex_least():
    for m in (2, 3, 4, 5):
        reps = cycle_type_representatives(m)
        by_type = {}
        for p in permutations(range(m)):
            t = cycle_type(p)
            if t not in by_type or p < by_type[t]:
                by_type[t] = p
        assert sorted(reps) == sorted(by_type.values())


def test_subset_agreement_examples():
    g = theta(2, 3, 3)
    five = mask_of(
        g,
        [("u", "v_1_1"), ("v_1_1", "w"), ("u", "v_2_1"), ("v_2_1", "v_2_2"), ("v_2_2", "w")]
    )
    assert subset_agreement_count(theta_cover(g, 3, {2: CYCLE3}), five) == 0
    assert subset_agreement_count(theta_cover(g, 3, {2: SWAP12}), five) == 9
    ident = identity_cover(g, 3)
    for mask in range(0, 1 << g.edge_count, 7):
        assert subset_agreement_count(ident, mask) == 3 ** component_count(g, mask)


def test_subset_agreement_bounded_by_whitney():
    rng = random.Random(16)
    g = theta(2, 3, 3)
    for _ in range(20):
        cover = random_cover(g, 3, rng)
        for mask in range(1 << g.edge_count):
            assert subset_agreement_count(cover, mask) <= 3 ** component_count(g, mask)


def test_cover_inclusion_exclusion_matches_counts():
    rng = random.Random(17)
    for lengths in ((2, 2, 3), (2, 3, 3)):
        g = theta(*lengths)
        for _ in range(10):
            cover = random_cover(g, 3, rng)
            assert cover_count_by_subsets(cover) == count_colorings(g, cover)
    tree = Graph(("a", "b", "c"), ((0, 1), (1, 2)))
    cover = identity_cover(tree, 3)
    assert cover_count_by_subsets(cover) == 3 * 4


def test_twist_profile_examples():
    spec = ThetaSpec((2, 3, 3))
    g = build_generalized_theta(spec)
    p = twist_profile(theta_cover(g, 3, {2: SWAP12}))
    assert (p.mismatch_counts, p.first_twisted, p.equal_length_paths, p.mismatch_mass) == (
        (2, 0),
        2,
        2,
        2,
    )
    p = twist_profile(identity_cover(g, 3))
    assert (p.first_twisted, p.mismatch_mass) == (0, 0)
    p = twist_profile(theta_cover(g, 3, {2: CYCLE3, 3: SWAP12}))
    assert (p.mismatch_counts, p.first_twisted, p.equal_length_paths, p.mismatch_mass) == (
        (3, 2),
        2,
        2,
        5,
    )


def test_twist_profile_requires_parity_assumption():
    spec = ThetaSpec((2, 2, 3))
    g = build_generalized_theta(spec)
    with pytest.raises(AssumptionViolated):
        twist_profile(identity_cover(g, 3))


def test_twist_profile_requires_a_theta_graph():
    triangle = Graph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(AssumptionViolated):
        twist_profile(identity_cover(triangle, 3))


def test_partitions_of_order_and_count():
    parts = partitions_of(("a", "b", "c"))
    assert len(parts) == 5
    assert parts[0].parts == (frozenset({"a", "b", "c"}),)
    assert parts[-1].parts == (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    assert all("a" in p.parts[0] for p in parts)
    assert len(partitions_of(tuple("abcd"))) == 15


def test_shift_cover_examples():
    g = theta(2, 2, 2)
    d = star_forest_decomposition(g, "u")
    three = PartitionSpec(
        (frozenset({"u", "v_1_1"}), frozenset({"v_2_1"}), frozenset({"v_3_1"}))
    )
    cover = shift_cover(g, d, three, 3)
    assert count_colorings(g, cover) == 18
    assert count_colorings(g, cover) == brute_force_cover_count(g, cover)
    single = PartitionSpec((frozenset({"u", "v_1_1", "v_2_1", "v_3_1"}),))
    assert count_colorings(g, shift_cover(g, d, single, 3)) == 30
    with pytest.raises(FoldTooSmall):
        singles = PartitionSpec(
            (
                frozenset({"u"}),
                frozenset({"v_1_1"}),
                frozenset({"v_2_1"}),
                frozenset({"v_3_1"}),
            )
        )
        shift_cover(g, d, singles, 3)


def test_shift_cover_on_tree_keeps_tree_count():
    tree = Graph(("r", "x", "y", "z"), ((0, 1), (0, 2), (0, 3)))
    d = star_forest_decomposition(tree, "r")
    singles = PartitionSpec(
        (frozenset({"r"}), frozenset({"x"}), frozenset({"y"}), frozenset({"z"}))
    )
    for m in (4, 5):
        cover = shift_cover(tree, d, singles, m)
        assert count_colorings(tree, cover) == m * (m - 1) ** 3


def test_cover_json_shape():
    g = theta(2, 2, 2)
    cover = theta_cover(g, 3, {2: CYCLE3})
    payload = cover_to_json(cover)
    assert payload["m"] == 3
    assert ["u", "v_2_1"] in [t["edge"] for t in payload["twists"]]
    by_edge = {tuple(t["edge"]): t["perm"] for t in payload["twists"]}
    assert by_edge[("u", "v_2_1")] == [2, 3, 1]
    json.dumps(payload)  # serializable


def test_invert_perm_round_trip():
    rng = random.Random(18)
    for _ in range(20):
        p = list(range(6))
        rng.shuffle(p)
        p = tuple(p)
        q = invert_perm(p)
        assert tuple(q[v] for v in p) == tuple(range(6))
