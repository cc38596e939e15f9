"""The FVS-1 leaf counts (`analysis._LeafCounts`): one tree DP over the
Steiner forest of the star's leaves, its values packed at m = 2^B.

Every grouping of seeded FVS-1 graphs, and of stars whose leaves sit
alone in their trees, is counted cold (a DP per grouping) and warm (one
DP reusing its values across the groupings in the route's order, then
in a shuffled order), each against the reference transfer with avoided
colors, and the meter charges a warm run what the cold runs cost.  The width B is checked to hold every Steiner count of the largest
admitted stars, brooms and hubs over paths.  A long path of S keeps one
value per run, whichever vertex roots the forest, and `weight` reuses one
DP across partitions at a fresh count's meter.  The meter's sums over
seeded cones whose Steiner trees branch are pinned.
"""

import random

from dpchroma.analysis import _growth_strings, _LeafCounts, fvs1_dp_polynomial, partition_weight
from dpchroma.covers import partitions_of
from dpchroma.graphs import Graph, star_forest_decomposition
from dpchroma.poly import M, pack, power_m1, unpack

from oracles import avoidance_count, reference_transfer
from test_analysis import fan, hub_over_path


def seeded_fvs1(rng: random.Random) -> Graph:
    """A center c joined to 0-5 vertices of a random forest on 1-11 more:
    each forest vertex attaches to an earlier one or starts a tree, so the
    forests have several trees, pendant subtrees and isolated vertices."""
    n = rng.randint(1, 11)
    edges = [(rng.randrange(1, v), v) for v in range(2, n + 1) if rng.random() < 0.7]
    edges += [(0, v) for v in rng.sample(range(1, n + 1), rng.randint(0, min(5, n)))]
    return Graph(("c",) + tuple(f"x{i:02d}" for i in range(n)), tuple(edges))


def avoidance(d, grouping) -> dict[int, int]:
    f = d.forest
    return {f.index[x]: r for x, r in zip(d.alphas[1:], grouping)}


def shapes(d) -> set[str]:
    """Which of the DP's cases the decomposition has."""
    f = d.forest
    leaves = {f.index[x] for x in d.alphas[1:]}
    counts = _LeafCounts(d)
    steiner = {v for v in range(f.n) if counts.positions[v]}
    found = {"several leafy trees"} if len(counts.roots) > 1 else set()
    seen: set[int] = set()
    for root in range(f.n):
        if root in seen:
            continue
        tree, stack = {root}, [root]
        while stack:
            for y in f.adjacency[stack.pop()]:
                if y not in tree:
                    tree.add(y)
                    stack.append(y)
        seen |= tree
        if not tree & leaves:
            found.add("leafless tree" if len(tree) > 1 else "isolated vertex")
        elif len(tree) == 1:
            found.add("lone leaf")
        elif tree - steiner:
            found.add("pendant subtree")
    return found


def lone_leaf_stars() -> list[tuple[Graph, int]]:
    """Stars whose leaves sit alone in their trees, which leave the DP for
    the shared factor, each with its number of trees in S: K_{1,k} with a
    pendant path of i vertices on leaf i, and K_{1,5} with one edge
    between two leaves."""
    graphs = []
    for k in (3, 5):
        labels, edges = ["c"] + [f"x{i}" for i in range(k)], [(0, i) for i in range(1, k + 1)]
        for i in range(k):
            for j in range(i):
                labels.append(f"p{i}{j}")
                edges.append((len(labels) - 2 if j else i + 1, len(labels) - 1))
        graphs.append((Graph(tuple(labels), tuple(edges)), 0))
    labels = ("c",) + tuple(f"x{i}" for i in range(5))
    graphs.append((Graph(labels, tuple((0, i) for i in range(1, 6)) + ((1, 2),)), 1))
    return graphs


def assert_cold_and_warm(g: Graph, rng: random.Random) -> int:
    """Every grouping of g's star at c counted cold and warm, in the
    route's order and then shuffled, against the reference transfer;
    returns their number."""
    d = star_forest_decomposition(g, "c")
    k = len(d.alphas) - 1
    warm = _LeafCounts(d)
    order = list(_growth_strings(k, k))
    for grouping in order:
        want = reference_transfer(d.forest, {}, avoidance(d, grouping))[0]
        cold = _LeafCounts(d)
        assert cold.count(cold.packed(grouping)) == want, (g.edges, grouping)
        assert avoidance_count(d, grouping) == want, (g.edges, grouping)
        before = warm.work
        assert warm.count(warm.packed(grouping)) == want, (g.edges, grouping)
        # a reused value is charged what it cost to make
        assert warm.work - before == cold.work, (g.edges, grouping)
    rng.shuffle(order)
    for grouping in order:
        want = reference_transfer(d.forest, {}, avoidance(d, grouping))[0]
        assert warm.count(warm.packed(grouping)) == want, (g.edges, grouping)
    return len(order)


def test_leaf_counts_match_the_reference_transfer_cold_and_warm():
    rng = random.Random(5656)
    cases, seen, groupings = 0, set(), 0
    while cases < 220:
        g = seeded_fvs1(rng)
        seen |= shapes(star_forest_decomposition(g, "c"))
        groupings += assert_cold_and_warm(g, rng)
        cases += 1
    assert groupings > 2000
    assert {
        "isolated vertex",
        "leafless tree",
        "lone leaf",
        "pendant subtree",
        "several leafy trees",
    } <= seen, seen
    for g, trees in lone_leaf_stars():
        d = star_forest_decomposition(g, "c")
        assert len(_LeafCounts(d).roots) == trees, g.edges
        assert assert_cold_and_warm(g, rng) == len(partitions_of(d.alphas[1:]))


def assert_width_holds(d, groupings) -> int:
    """Every Steiner count of `groupings` unpacks, packs back to itself and
    stays within the inclusion-exclusion bound 2^N; returns their number."""
    counts = _LeafCounts(d)
    steiner = d.forest.n - counts.trees - counts.lone
    constraints = steiner - len(counts.roots) + len(d.alphas) - 1
    assert 8 * counts.width >= constraints + 2
    done = 0
    for grouping in groupings:
        packed = counts.packed(grouping)
        count = unpack(packed, counts.width)
        assert pack(count, counts.width) == packed, grouping
        assert max(map(abs, count.coeffs)) <= 2**constraints, grouping
        assert len(count.coeffs) == steiner + 1 and count.coeffs[-1] == 1, grouping
        done += 1
    return done


def test_the_width_holds_every_steiner_count_of_the_largest_stars():
    # the fan and the hub over a 20-vertex path have 10 star vertices,
    # all Bell(9) = 21,147 groupings; a seeded sample of each against the
    # reference transfer
    for g in (fan(9), hub_over_path(20)):
        d = fvs1_dp_polynomial(g).decomposition
        assert assert_width_holds(d, _growth_strings(9, 9)) == 21_147
        counts = _LeafCounts(d)
        for grouping in random.Random(21147).sample(list(_growth_strings(9, 9)), 40):
            want = reference_transfer(d.forest, {}, avoidance(d, grouping))[0]
            assert counts.count(counts.packed(grouping)) == want, grouping
    # hubs over longer paths: the Steiner path is the whole path
    for length in (60, 120):
        d = star_forest_decomposition(hub_over_path(length), "h")
        sample = random.Random(length).sample(list(_growth_strings(9, 9)), 30)
        assert assert_width_holds(d, sample) == 30


def test_a_broom_counts_its_bristles_in_the_shared_factor():
    # an edge a-b with bristles on b: the star at a has the one leaf b, and
    # every bristle multiplies the count by m - 1 without entering the DP
    for bristles in (1, 40, 4000):
        labels = ("a", "b") + tuple(f"l{i:05d}" for i in range(bristles))
        g = Graph(labels, ((0, 1),) + tuple((1, i) for i in range(2, bristles + 2)))
        d = fvs1_dp_polynomial(g).decomposition
        counts = _LeafCounts(d)
        assert (counts.trees, counts.lone) == (1, bristles + 1)
        assert assert_width_holds(d, [(0,)]) == 1
        assert avoidance_count(d, (0,)) == M * power_m1(bristles + 1)
    # the star on the bristles: a Steiner star through b, its other
    # bristles pendant
    labels = ("c", "b") + tuple(f"l{i:02d}" for i in range(30))
    edges = tuple((1, i) for i in range(2, 32)) + tuple((0, i) for i in (2, 5, 9, 14, 20))
    d = star_forest_decomposition(Graph(labels, edges), "c")
    counts = _LeafCounts(d)
    assert (counts.trees, counts.lone) == (1, 25)
    assert assert_width_holds(d, _growth_strings(5, 5)) == 52
    for grouping in _growth_strings(5, 5):
        want = reference_transfer(d.forest, {}, avoidance(d, grouping))[0]
        assert counts.count(counts.packed(grouping)) == want, grouping


def cone_over_random_tree(rng: random.Random) -> Graph:
    """A center c joined to 2-7 vertices of a random tree on 3-30 more,
    each tree vertex joined to a random earlier one, so that S often has
    a vertex with two or three children in S."""
    n = rng.randint(3, 30)
    edges = [(rng.randrange(1, v), v) for v in range(2, n + 1)]
    edges += [(0, v) for v in rng.sample(range(1, n + 1), rng.randint(2, min(7, n)))]
    return Graph(("c",) + tuple(f"x{i:02d}" for i in range(n)), tuple(edges))


def test_the_meter_of_branching_steiner_trees_is_pinned():
    # every grouping of 120 seeded cones, one DP each: the summed meter
    # reading and fixed charge.  The order of a vertex's children in S,
    # which follows the edge list, enters the charge for their product
    # once it has three.
    rng = random.Random(58)
    work = fixed = two = three = 0
    for _ in range(120):
        d = star_forest_decomposition(cone_over_random_tree(rng), "c")
        counts = _LeafCounts(d)
        k = len(d.alphas) - 1
        for grouping in _growth_strings(k, k):
            counts.packed(grouping)
        work += counts.work
        fixed += counts.fixed
        widest = max(map(len, counts.kids))
        two += widest >= 2
        three += widest >= 3
    assert (two, three) == (91, 41)
    assert (work, fixed) == (19_348_544, 24_301)


def kept_values(counts) -> int:
    return sum(1 for value in counts.values if value)


def test_a_long_path_keeps_one_value_per_run():
    # C_2000 through its vertex c: the Steiner tree is the whole 1,999-vertex
    # path.  Labelled so that the path's least vertex is an end or its
    # middle, the forest is rooted there, and S at its least star leaf.
    n = 2000
    want = power_m1(n) - 1
    for middle in (False, True):
        names = [f"v{i:04d}" for i in range(n)]
        if middle:
            names[n // 2] = "a"
        names[0] = "c"
        g = Graph(tuple(names), tuple((i, (i + 1) % n) for i in range(n)))
        d = star_forest_decomposition(g, "c")
        counts = _LeafCounts(d)
        for grouping in _growth_strings(2, 2):
            counts.packed(grouping)
            # two star leaves: the run up from the lone one, and the root's
            assert kept_values(counts) == 2, middle
        assert fvs1_dp_polynomial(g).dp_polynomial == want, middle
    # a hub over a path: 9 star leaves, 9 runs
    d = star_forest_decomposition(hub_over_path(300), "h")
    counts = _LeafCounts(d)
    for grouping in random.Random(300).sample(list(_growth_strings(9, 9)), 10):
        counts.packed(grouping)
        assert kept_values(counts) == 9


def test_a_run_made_per_grouping_is_charged_in_words():
    # the hub over a path of L vertices: S is the path, rooted at p0, and
    # vertex p_i has the one child p_(i+1) and a subtree of L - i vertices.
    # Below the second-to-last star leaf each vertex is made once and
    # charged 2(kids + 1)(L - i + 1) coefficient updates; up to it, per
    # grouping, (b + 1)(kids + 1)(L - i + 1) 64-bit words, b the classes
    # its leaves name, at 27 coefficient bytes for L = 200
    for length, words in ((20, 1), (200, 4)):
        d = star_forest_decomposition(hub_over_path(length), "h")
        counts = _LeafCounts(d)
        assert -(-counts.width // 8) == words
        spots = [round(j * (length - 1) / 8) for j in range(9)]
        once = 2 * (2 + sum(2 * (length - i + 1) for i in range(spots[7] + 1, length - 1)))
        # and the isolated center, one factor m multiplied at |S| + 1 coefficients
        assert counts.fixed == once + length + 2
        for grouping in random.Random(length).sample(list(_growth_strings(9, 9)), 10):
            before = counts.work
            counts.packed(grouping)
            want = 0
            for i in range(spots[7] + 1):
                b = len({grouping[d.alphas.index(f"p{q}") - 1] for q in spots if q >= i})
                want += (b + 1) * 2 * (length - i + 1) * words
            assert counts.work - before == counts.fixed + want, grouping


def test_a_product_of_two_children_is_charged_at_its_coefficient_counts():
    # a Y with legs y-a1-a2, y-b1-b2, y-e1-e2, the center c on the leg ends:
    # S is the Y rooted at a2, and y multiplies the runs up from b2 and e2
    # (2 vertices each).  Made once: the factor m for c at 8 coefficients
    # plus 1, and each of those runs 2(1 * 2 + 2 * 3) = 16.  Per grouping:
    # the run y-a1 at (b + 1)(3 * 3 + 3 * 6 + 2 * 7), the product of 3 and
    # 3 coefficients first, and a2 at (b + 1)(2 * 8)
    names = ("a1", "a2", "b1", "b2", "c", "e1", "e2", "y")
    at = {x: i for i, x in enumerate(names)}
    pairs = ("y a1", "a1 a2", "y b1", "b1 b2", "y e1", "e1 e2", "c a2", "c b2", "c e2")
    g = Graph(names, tuple(tuple(at[x] for x in pair.split()) for pair in pairs))
    d = star_forest_decomposition(g, "c")
    counts = _LeafCounts(d)
    assert counts.fixed == 9 + 2 * 16
    for grouping, below_y, below_a2 in (((0, 0, 0), 1, 1), ((0, 1, 2), 2, 3)):
        before = counts.work
        counts.packed(grouping)
        assert counts.work - before == 41 + (below_y + 1) * 41 + (below_a2 + 1) * 16


def test_weight_reuses_one_dp_at_a_fresh_count_meter():
    rng = random.Random(4056)
    for _ in range(40):
        g = seeded_fvs1(rng)
        d = star_forest_decomposition(g, "c")
        counts = _LeafCounts(d)
        for p in partitions_of(d.alphas):
            assert counts.weight(p) == partition_weight(d, p), (g.edges, p)
            fresh = _LeafCounts(d)
            fresh.weight(p)
            assert (counts.work, counts.groupings) == (fresh.work, 1), (g.edges, p)
