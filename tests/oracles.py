"""Independent brute-force oracles for the test suite.

Everything here enumerates but `theta_transfer_count` and
`reference_transfer`: no deletion-contraction.  Tests freeze expected
values computed by these oracles or compare the fast paths against them
directly.  `reference_transfer` is the colour-pattern transfer as it was
before its moves were tabled, each state's moves worked out afresh on the
same walk, the reference of `chromatic._transfer` and its refusals; with
the avoided colours that the package's transfer no longer takes, it is
the reference of the FVS-1 leaf DP (`analysis._LeafCounts`).  The two
subset sums run the package's one inclusion-exclusion oracle,
`verify.subset_sum`; `subset_agreement_count` answers one subset of a
cover from a fresh forest pass, the oracle of `covers.subset_walk`;
`theta_transfer_count` counts a full cover of a generalized Theta graph
from the closed-form count of color walks along each path, at folds far
past plain enumeration.  `cycle_type`, `without_vertex`, `mask_of`,
`full_mask`, `to_text`, `conjugated` and `avoidance_count` (one leaf
grouping's count from a fresh FVS-1 leaf DP) are plain helpers that only
the tests read, `unpruned` turns off the search's stop and its pruning, and
`lowered_work_limit` lowers the transfer's meter with an empty transfer
table.  `star_partitions` keeps the partitions of an FVS-1 result's star
whose weight is the winner's.  `theta_by_labels` builds a generalized
Theta graph by looking up each edge's ends by their string labels, the
reference of `graphs.build_generalized_theta`.
"""

from fractions import Fraction
from itertools import combinations, permutations, product, zip_longest

from dpchroma import chromatic, covers
from dpchroma.analysis import _LeafCounts, partition_weight
from dpchroma.covers import (
    FullCover,
    _forest,
    _frames,
    compose,
    identity_perm,
    invert_perm,
    partitions_of,
)
from dpchroma.errors import SearchBudgetExceeded
from dpchroma.graphs import EdgeSubset, Graph, ThetaSpec, _bits, component_count, spanning_forest
from dpchroma.poly import IntPoly
from dpchroma.verify import subset_sum


def proper_coloring_count(g: Graph, m: int) -> int:
    total = 0
    for colors in product(range(m), repeat=g.n):
        if all(colors[a] != colors[b] for a, b in g.edges):
            total += 1
    return total


def transversal_count(g: Graph, m: int, perms, allowed=None) -> int:
    """Colorings that no edge permutation matches, each vertex on a color
    its 0/1 `allowed` vector marks (every color when `allowed` is None)."""
    total = 0
    for colors in product(range(m), repeat=g.n):
        if allowed is not None and not all(allowed[v][c] for v, c in enumerate(colors)):
            continue
        if all(perms[i][colors[a]] != colors[b] for i, (a, b) in enumerate(g.edges)):
            total += 1
    return total


def theta_transfer_count(g: Graph, m: int, perms) -> int:
    """Transversals of a full cover of a generalized Theta graph, a
    permutation on every edge, by the path transfer from the colors (a, b)
    of the end vertices u and w.  A path of length l whose composite twist
    c carries u's fiber to w's contributes base_l + (-1)^l [c(a) = b], where
    base_l = ((m-1)^l - (-1)^l)/m counts the proper color walks along it."""
    u, w = g.index["u"], g.index["w"]
    paths = []
    for i, length in enumerate(g.theta.lengths, start=1):
        walk = [u, *(g.index[f"v_{i}_{j}"] for j in range(1, length)), w]
        c = identity_perm(m)
        for x, y in zip(walk, walk[1:]):
            e = g.pair_index[(min(x, y), max(x, y))]
            c = compose(perms[e] if g.edges[e][0] == x else invert_perm(perms[e]), c)
        paths.append((((m - 1) ** length - (-1) ** length) // m, (-1) ** length, c))
    total = 0
    for a, b in product(range(m), repeat=2):
        term = 1
        for base, bonus, c in paths:
            term *= base + bonus if c[a] == b else base
        total += term
    return total


def walk_steps(g: Graph) -> list[tuple[int, tuple[int, ...], tuple[int, ...], bool]]:
    """The transfer's walk as one (v, near, keep, stays) per step: its
    shape with the vertex that enters at each step."""
    shape, order = g.plan(chromatic._walk)
    return [(v, *step) for v, step in zip(order, shape)]


def reference_transfer(g: Graph, named, avoid) -> tuple[IntPoly, int]:
    """`chromatic._transfer` with each state's moves worked out at every
    step: its polynomial and the updates its meter charged, the same as the
    tabled transfer's, and its refusal reading
    `chromatic.CHROMATIC_WORK_LIMIT` when called, as a test may patch it."""
    s = 1 + max([*named.values(), *avoid.values()], default=-1)
    states: dict[tuple[int, ...], list[int]] = {(): [1]}
    work = 0
    for i, (v, near, keep, stays) in enumerate(walk_steps(g)):
        fixed, shun = named.get(v), avoid.get(v)
        merged: dict[tuple[int, ...], list[int]] = {}
        for labels, w in states.items():
            b = max(s, max(labels, default=-1) + 1)
            taken = {labels[k] for k in near}
            if shun is not None:
                taken.add(shun)
            free: dict[int, int] = {}  # the kept free blocks, renumbered in order
            kept = tuple(
                a if a < s else free.setdefault(a, s + len(free))
                for a in map(labels.__getitem__, keep)
            )
            fresh = s + len(free)
            if fixed is not None:
                moves = [] if fixed in taken else [(fixed, w)]
            elif stays:
                moves = [
                    (c if c < s else free.get(c, fresh), w) for c in range(b) if c not in taken
                ]
                moves.append((fresh, [p - b * q for p, q in zip([0] + w, w + [0])]))
            else:  # retiring on entry, v leaves one state for all m - |taken| colors
                t = len(taken)
                moves = [(fresh, [p - t * q for p, q in zip([0] + w, w + [0])])]
            work += len(w) * len(moves)
            if work > chromatic.CHROMATIC_WORK_LIMIT:
                raise SearchBudgetExceeded(
                    f"the chromatic transfer passed CHROMATIC_WORK_LIMIT = "
                    f"{chromatic.CHROMATIC_WORK_LIMIT:,} coefficient updates at vertex "
                    f"{i + 1} of {g.n} ({len(states):,} states)"
                )
            for c, x in moves:
                key = kept + (c,) * stays
                old = merged.get(key)
                merged[key] = x if old is None else [
                    p + q for p, q in zip_longest(old, x, fillvalue=0)
                ]
        states = merged
    return IntPoly(states.get((), ())), work


def cycle_type(p) -> tuple[int, ...]:
    """Ascending cycle lengths of a full permutation, each cycle followed
    from its least element."""
    seen = set()
    lengths = []
    for start in range(len(p)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def without_vertex(g: Graph, label: str) -> Graph:
    """g with the vertex `label` and its edges deleted, the other vertices
    kept in order."""
    kept = tuple(v for v in g.vertices if v != label)
    index = {v: i for i, v in enumerate(kept)}
    ends = [(g.vertices[a], g.vertices[b]) for a, b in g.edges]
    return Graph(kept, tuple((index[x], index[y]) for x, y in ends if label not in (x, y)))


def theta_by_labels(spec: ThetaSpec) -> Graph:
    """Theta(l_1, ..., l_k) with the vertices u, w, then v_i_j for path i
    and position j, and the edges first the u-incident edge of each path,
    then the rest path-major, each end found by its label."""
    labels = ["u", "w"]
    for i, length in enumerate(spec.lengths, start=1):
        labels.extend(f"v_{i}_{j}" for j in range(1, length))
    index = {lab: pos for pos, lab in enumerate(labels)}

    edges = []
    for i, length in enumerate(spec.lengths, start=1):
        edges.append((index["u"], index["w" if length == 1 else f"v_{i}_1"]))
    for i, length in enumerate(spec.lengths, start=1):
        for j in range(1, length):
            nxt = "w" if j == length - 1 else f"v_{i}_{j + 1}"
            edges.append((index[f"v_{i}_{j}"], index[nxt]))
    return Graph(tuple(labels), tuple(edges), theta=spec)


def mask_of(g: Graph, pairs) -> EdgeSubset:
    """The edge subset of the labelled edges `pairs`."""
    mask = 0
    for x, y in pairs:
        mask |= 1 << g.edge_index(x, y)
    return mask


def full_mask(g: Graph) -> EdgeSubset:
    return (1 << len(g.edges)) - 1


def to_text(g: Graph) -> str:
    """g in the graph-file format that `Graph.from_text` reads."""
    lines = [f"n {g.n}"]
    for i in range(len(g.edges)):
        x, y = g.edge_labels(i)
        lines.append(f"e {x} {y}")
    return "\n".join(lines) + "\n"


def conjugated(cover: FullCover, tau) -> FullCover:
    """`cover` with every fiber relabeled by tau; counts are invariant."""
    inv = invert_perm(tau)
    twists = {e: compose(tau, compose(p, inv)) for e, p in cover.twists.items()}
    return FullCover(cover.graph, cover.m, twists)


def brute_force_cover_count(g: Graph, cover: FullCover) -> int:
    return transversal_count(g, cover.m, cover.edge_perms())


def chromatic_by_subsets(g: Graph, m: int) -> int:
    """P(g, m) as the alternating sum of m^(components) over edge subsets."""
    return subset_sum(g, lambda s: m ** component_count(g, s))


def subset_agreement_count(cover: FullCover, subset: EdgeSubset) -> int:
    """Transversals whose choice is matched across every subset edge.

    Within a component of the subset graph the choice at one vertex forces
    all others; the count is the number of starting values consistent with
    every cycle, times m for each untouched component.
    """
    g, m = cover.graph, cover.m
    perms = cover.edge_perms()
    edge_ids = list(_bits(subset))
    roots, cotree = spanning_forest(g.n, [g.edges[i] for i in edge_ids])
    closing = [edge_ids[i] for i in cotree]
    forest, ident = set(edge_ids).difference(closing), identity_perm(m)
    frame = _frames(g.n, _forest(g, forest)[1], perms, ident)
    rho = [ident if f is None else f for f in frame]
    allowed = {r: [True] * m for r in roots}
    for e in closing:
        a, b = g.edges[e]
        step, ra, rb, ok = perms[e], rho[a], rho[b], allowed[roots[a]]
        for j in range(m):
            if ok[j] and step[ra[j]] != rb[j]:
                ok[j] = False
    total = 1
    for ok in allowed.values():
        total *= sum(ok)
    return total


def cover_count_by_subsets(cover: FullCover) -> int:
    """A full cover's coloring count as the alternating sum of its subset
    agreement counts."""
    return subset_sum(cover.graph, lambda s: subset_agreement_count(cover, s))


def interpolated_chromatic(g: Graph) -> IntPoly:
    """Chromatic polynomial from brute-force counts at m = 0..n (Lagrange)."""
    points = [(m, proper_coloring_count(g, m)) for m in range(g.n + 1)]
    coeffs = [Fraction(0)] * (g.n + 1)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            grown = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):  # multiply basis by (x - xj)
                grown[d] -= c * xj
                grown[d + 1] += c
            basis = grown
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([int(c) for c in coeffs])


def simple_cycles_by_enumeration(g: Graph, mask: int) -> list[int]:
    """Cycle lengths by trying every vertex subset and every tour of it.

    Distinct cycles on the same vertex set are separated by their edge
    sets, so the result is exact for any graph small enough to enumerate.
    """
    chosen = [i for i in range(len(g.edges)) if mask >> i & 1]
    adj: dict[int, set[int]] = {}
    for i in chosen:
        a, b = g.edges[i]
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    vertices = sorted(adj)
    lengths = []
    for size in range(3, len(vertices) + 1):
        for subset in combinations(vertices, size):
            first = subset[0]
            seen_edge_sets = set()
            for order in permutations(subset[1:]):
                walk = (first,) + order
                if all(
                    walk[(i + 1) % size] in adj.get(walk[i], ())
                    for i in range(size)
                ):
                    edge_set = frozenset(
                        frozenset((walk[i], walk[(i + 1) % size]))
                        for i in range(size)
                    )
                    seen_edge_sets.add(edge_set)
            lengths.extend([size] * len(seen_edge_sets))
    return sorted(lengths)


def growth_strings_by_recursion(k: int, most: int):
    """Restricted-growth strings of length k with at most `most` classes,
    in lex order, one generator frame per entry: the reference for
    `covers._growth_strings`."""
    rgs = [0] * k

    def rec(i: int, used: int):
        if i == k:
            yield tuple(rgs)
            return
        for value in range(min(used + 1, most)):
            rgs[i] = value
            yield from rec(i + 1, max(used, value + 1))

    start = 1 if k and most > 0 else 0  # item 0 is in class 0, if any class is allowed
    return rec(start, start)


def avoidance_count(d, grouping) -> IntPoly:
    """Colorings of d.forest in which leaf d.alphas[i + 1] avoids color
    grouping[i], from a fresh `analysis._LeafCounts`."""
    counts = _LeafCounts(d)
    return counts.count(counts.packed(grouping))


def star_partitions(result) -> tuple:
    """The star partitions tied at an FVS-1 result's least count, in star
    string order: every partition of the star (`partitions_of`) whose
    `partition_weight` is the result's weight."""
    d = result.decomposition
    return tuple(p for p in partitions_of(d.alphas) if partition_weight(d, p) == result.weight)


def unpruned(patch) -> None:
    """Patches (through `patch`, a pytest monkeypatch) the conjugacy-level
    search into the one that counts every orbit: `dp_lower_bound` -1, so no
    count reaches the stop, and no prune table."""
    patch.setattr(covers, "dp_lower_bound", lambda g, m: -1)
    patch.setattr(covers._FeedbackPlan, "least_key_table", lambda self, m, free_edges: None)


def lowered_work_limit(patch, limit: int) -> None:
    """Patches (through `patch`, a pytest monkeypatch) `CHROMATIC_WORK_LIMIT`
    to `limit` and clears the transfer table.  A hit answers without
    reading the limit (an entry is kept only when its run stayed within
    the limit it ran under), so under a lower limit an entry could answer
    where a fresh run is refused."""
    patch.setattr(chromatic, "CHROMATIC_WORK_LIMIT", limit)
    chromatic._transfers.cache_clear()
