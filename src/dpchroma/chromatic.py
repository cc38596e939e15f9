"""Exact chromatic polynomials and coloring counts.

Generic graphs go through deletion-contraction on their 2-cores, with
the stripped trees as closed-form factors.  Generalized Theta graphs
additionally get the classical closed form, which the rest of the
package cross-checks against the generic route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .covers import count_from_edge_perms, identity_perm
from .errors import BadPathIndex, GraphTooLarge, InexactDivision, SearchBudgetExceeded
from .graphs import (
    Graph,
    ThetaSpec,
    build_generalized_theta,
    spanning_forest,
)
from .poly import M, IntPoly, constant, falling_factorial, forest_polynomial, prod

DEFAULT_VERTEX_LIMIT = 16

#: Distinct 2-cores one deletion-contraction call may expand (memo misses).
CHROMATIC_NODE_LIMIT = 50_000


def chromatic_polynomial(g: Graph, limit: int = DEFAULT_VERTEX_LIMIT) -> IntPoly:
    """Exact chromatic polynomial by deletion-contraction.

    Each node strips the vertices of degree <= 1 and looks the remaining
    2-core up in a memo that lives for this call only; on a miss it
    deletes and contracts the core's first cotree edge.  A forest strips
    to nothing, so it is a leaf with closed form m^(trees) (m-1)^(edges).
    More than `CHROMATIC_NODE_LIMIT` misses, or a recursion deeper than
    Python's stack allows (a cycle of about 1,000 vertices), raise
    `SearchBudgetExceeded`.
    """
    if g.n > limit:
        raise GraphTooLarge(f"{g.n} vertices exceeds limit {limit}")
    return _chrom(g.n, list(g.edges))


def _chrom(n: int, edges: list[tuple[int, int]]) -> IntPoly:
    """P(G, m) for G on vertices 0..n-1; parallel edges allowed, loops give 0."""
    memo: dict[tuple[int, tuple[tuple[int, int], ...]], IntPoly] = {}
    factors: dict[tuple[int, int], IntPoly] = {}
    misses = 0

    def expand(n: int, edges: list[tuple[int, int]]) -> IntPoly:
        nonlocal misses
        isolated, pendant, k, core = _two_core(n, edges)
        stripped = factors.get((isolated, pendant))
        if stripped is None:
            stripped = factors[isolated, pendant] = forest_polynomial(isolated, pendant)
        if not k:
            return stripped
        key = (k, core)
        poly = memo.get(key)
        if poly is None:
            misses += 1
            if misses > CHROMATIC_NODE_LIMIT:
                raise SearchBudgetExceeded(
                    f"{misses} deletion-contraction nodes exceed the limit of "
                    f"{CHROMATIC_NODE_LIMIT}"
                )
            pivot = core[spanning_forest(k, core)[1][0]]
            deleted = [e for e in core if e != pivot]
            poly = expand(k, deleted) - expand(k - 1, _contract(k, deleted, pivot))
            memo[key] = poly
        return stripped * poly if isolated or pendant else poly

    if any(a == b for a, b in edges):
        return IntPoly()  # a loop admits no proper coloring
    # The core has no parallel edges, so contracting its pivot makes no loop.
    try:
        return expand(n, edges)
    except RecursionError:
        raise SearchBudgetExceeded(
            f"deletion-contraction on {n} vertices recursed past Python's stack limit"
        ) from None


def _two_core(
    n: int, edges: list[tuple[int, int]]
) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """Strip vertices of degree <= 1 from a loopless graph until none is left.

    Returns (isolated, pendant, k, core): how many vertices were stripped
    at degree 0 and at degree 1, and the sorted, deduplicated edges of
    the remaining 2-core renumbered to 0..k-1 in vertex order, so that
    P(G) = m^isolated (m-1)^pendant P(core).
    """
    adj: list[set[int] | None] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    stack = [v for v in range(n) if len(adj[v]) <= 1]
    isolated = pendant = 0
    while stack:
        v = stack.pop()
        if adj[v]:
            (u,) = adj[v]
            adj[u].discard(v)
            if len(adj[u]) == 1:
                stack.append(u)
            pendant += 1
        else:
            isolated += 1
        adj[v] = None
    label = {}
    for v in range(n):
        if adj[v]:
            label[v] = len(label)
    core = tuple(sorted((label[a], label[b]) for a in label for b in adj[a] if a < b))
    return isolated, pendant, len(label), core


def _contract(
    n: int, edges: list[tuple[int, int]], merged: tuple[int, int]
) -> list[tuple[int, int]]:
    a, b = merged  # b is merged into a, indices above b shift down

    def remap(x: int) -> int:
        if x == b:
            x = a
        return x - 1 if x > b else x

    return [(remap(p), remap(q)) for p, q in edges]


def theta_closed_form(lengths: tuple[int, ...]) -> IntPoly:
    """Classical closed form for P(Theta(l_1,...,l_k), m); k = 1 is a path.

    Every power of m and m - 1 is a `forest_polynomial` (a binomial
    expansion), not a chain of products.
    """
    k = len(lengths)
    a = M - 1
    first = prod(
        forest_polynomial(0, l + 1) + constant((-1) ** (l + 1)) * a for l in lengths
    )
    second = prod(forest_polynomial(0, l) + constant((-1) ** l) * a for l in lengths)
    first = first.exact_div(forest_polynomial(k - 1, k - 1))
    second = second.exact_div(forest_polynomial(k - 1, 0))
    return first + second


def theta_chromatic(spec: ThetaSpec) -> IntPoly:
    """Chromatic polynomial of a generalized Theta graph, closed form."""
    return theta_closed_form(spec.lengths)


def theta_edge_deleted_chromatic(spec: ThetaSpec, path: int) -> IntPoly:
    """P(G - e, m) for e the u-incident edge of the given path (1-based).

    Deleting that edge leaves the Theta graph on the remaining paths with a
    pendant path of length l_path - 1 hanging from w, hence the product
    with (m-1)^(l_path - 1).
    """
    if not 1 <= path <= spec.k:
        raise BadPathIndex(f"path index {path} not in 1..{spec.k}")
    rest = spec.lengths[: path - 1] + spec.lengths[path:]
    return theta_closed_form(rest) * forest_polynomial(0, spec.lengths[path - 1] - 1)


@dataclass(frozen=True)
class EdgePairGraphs:
    """The five graphs obtained by surgery on the two u-edges of paths 1, 2.

    With a1 = the u-neighbor on path 1 and a3 = the u-neighbor on path 2:
    g1 drops the edge u-a1, g2 drops u-a3, g0 drops both, gstar adds the
    chord a1-a3 to the full graph.
    """

    g: Graph
    g0: Graph
    g1: Graph
    g2: Graph
    gstar: Graph


def theta_edge_pair_graphs(l1: int, l2: int, l3: int) -> EdgePairGraphs:
    """Build the surgery family for Theta(l1, l2, l3) with 2 <= l1 <= l2 <= l3."""
    if not 2 <= l1 <= l2 <= l3:
        raise ValueError("need 2 <= l1 <= l2 <= l3")
    g = build_generalized_theta(ThetaSpec((l1, l2, l3)))
    e1 = g.edge_index("u", "v_1_1")
    e2 = g.edge_index("u", "v_2_1")
    return EdgePairGraphs(
        g=g,
        g0=g.without_edges([e1, e2]),
        g1=g.without_edges([e1]),
        g2=g.without_edges([e2]),
        gstar=g.with_edge("v_1_1", "v_2_1"),
    )


@dataclass(frozen=True)
class EdgePairPolynomials:
    """Chromatic polynomials of the surgery family, in the same order."""

    g: IntPoly
    g0: IntPoly
    g1: IntPoly
    g2: IntPoly
    gstar: IntPoly

    def as_tuple(self) -> tuple[IntPoly, IntPoly, IntPoly, IntPoly, IntPoly]:
        return (self.g, self.g0, self.g1, self.g2, self.gstar)


def theta_edge_pair_polynomials(l1: int, l2: int, l3: int) -> EdgePairPolynomials:
    """Closed forms for the surgery family of Theta(l1, l2, l3).

    Every division written below is exact; a remainder raises.
    """
    if not 2 <= l1 <= l2 <= l3:
        raise ValueError("need 2 <= l1 <= l2 <= l3")
    total = l1 + l2 + l3

    def a(e: int) -> IntPoly:  # (m - 1)^e
        return forest_polynomial(0, e)

    def sgn(e: int) -> IntPoly:
        return constant((-1) ** e)

    p_g = (
        a(total)
        + sgn(total) * (M - 1) * (M - 2)
        + sgn(l1 + l2) * a(l3 + 1)
        + sgn(l1 + l3) * a(l2 + 1)
        + sgn(l2 + l3) * a(l1 + 1)
    ).exact_div(M)
    p_g0 = forest_polynomial(1, total - 2)
    p_g1 = a(total - 1) + sgn(l2 + l3) * a(l1)
    p_g2 = a(total - 1) + sgn(l1 + l3) * a(l2)
    p_gstar = (
        (M - 2)
        * (
            a(total - 1)
            + sgn(l2 + l3) * a(l1)
            + sgn(l1 + l3) * a(l2)
            + sgn(l1 + l2 + 1) * a(l3 + 1)
            + 2 * sgn(total) * (M - 1)
        )
    ).exact_div(M)
    return EdgePairPolynomials(p_g, p_g0, p_g1, p_g2, p_gstar)


@dataclass(frozen=True)
class Precoloring:
    """Fixed colors on a subset of vertices.

    Colors are 1-based and bounded by `bound`, which must be at least the
    number of vertices of the graph the precoloring is applied to.
    """

    assignment: Mapping[str, int]
    bound: int

    def __post_init__(self):
        for v, c in self.assignment.items():
            if not 1 <= c <= self.bound:
                raise ValueError(f"color {c} for {v!r} outside 1..{self.bound}")


def _check_precoloring(g: Graph, pc: Precoloring):
    for v in pc.assignment:
        if v not in g.index:
            raise ValueError(f"precolored vertex {v!r} not in graph")
    if pc.bound < g.n:
        raise ValueError("precoloring bound smaller than the vertex count")


def _conflicts(g: Graph, pc: Precoloring) -> bool:
    get = pc.assignment.get
    for a, b in g.edges:
        ca, cb = get(g.vertices[a]), get(g.vertices[b])
        if ca is not None and ca == cb:
            return True
    return False


def precolored_count(g: Graph, pc: Precoloring, m: int) -> int:
    """Number of proper m-colorings of g agreeing with the precoloring.

    A proper coloring is a transversal of the identity cover, so this is
    the cover counter with a one-hot start vector at each precolored
    vertex.
    """
    if m < 1:
        raise ValueError("m must be positive")
    _check_precoloring(g, pc)
    if any(c > m for c in pc.assignment.values()):
        return 0
    allowed = [[1] * m] * g.n
    for v, c in pc.assignment.items():
        allowed[g.index[v]] = [int(i == c - 1) for i in range(m)]
    return count_from_edge_perms(g, m, [identity_perm(m)] * len(g.edges), allowed)


def precolored_polynomial(g: Graph, pc: Precoloring) -> IntPoly:
    """Polynomial p with p(m) = precolored_count(g, pc, m) for m >= bound.

    Obtained by making the precolored vertices a clique, contracting the
    like-colored ones, and dividing the resulting chromatic polynomial by
    the falling factorial that fixes the clique's colors.  A conflicting
    precoloring short-circuits to the zero polynomial.
    """
    _check_precoloring(g, pc)
    if _conflicts(g, pc):
        return IntPoly()
    colors = sorted(set(pc.assignment.values()))
    s = len(colors)
    class_of = {g.index[v]: colors.index(c) for v, c in pc.assignment.items()}
    n = s  # merged color classes first, then the free vertices in order
    for v in range(g.n):
        if v not in class_of:
            class_of[v] = n
            n += 1
    edges = [(class_of[a], class_of[b]) for a, b in g.edges]
    edges += [(i, j) for i in range(s) for j in range(i + 1, s)]  # the clique
    try:
        return _chrom(n, edges).exact_div(falling_factorial(s))
    except InexactDivision as exc:  # pragma: no cover - clique guarantees division
        raise InexactDivision(f"contracted graph lost its clique: {exc}") from exc

