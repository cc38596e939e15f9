"""Exact chromatic polynomials and coloring counts.

Every chromatic polynomial, precolored or not, and every count behind
the feedback-vertex-one weights (leaves that avoid a color) comes from
one transfer over the vertices in a frontier-greedy order (the
transfer-matrix method of Biggs, Damerell and Sands, JCTB 1972; Salas and
Sokal, J. Stat. Phys. 2001): each next vertex is the one that leaves the
fewest vertices active.  The order and its per-step table are built once
per graph and shared by every transfer on it.  Its states are the
partitions of the active vertices by equal color, so its cost follows the
width of that order, not the number of cycles.  Generalized Theta graphs
additionally get the classical closed form, which the rest of the package
cross-checks against the transfer; the edge-deleted forms and the
edge-pair surgery family read it.  These forms are pure functions of the
path lengths, so each is built once per argument and kept for the process
(`functools.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from typing import Mapping, NamedTuple

from .covers import count_from_edge_perms, identity_perm
from .errors import BadPathIndex, SearchBudgetExceeded
from .graphs import Graph, ThetaSpec, build_generalized_theta
from .poly import M, IntPoly, forest_polynomial, power_m1, prod, sign

#: Coefficient updates one transfer may make: each state update costs the
#: length of its weight, so this bounds wide graphs and long ones alike.
CHROMATIC_WORK_LIMIT = 20_000_000


def chromatic_polynomial(g: Graph) -> IntPoly:
    """Exact chromatic polynomial by the color-pattern transfer.

    Raises `SearchBudgetExceeded` past `CHROMATIC_WORK_LIMIT` updates.
    """
    return _transfer(g, {}, {})


def _transfer_steps(g: Graph) -> list[tuple[int, list[int], list[int], bool]]:
    """The transfer's walk over g, which no coloring constraint changes.

    The order takes each component from a least-degree vertex, then always
    the frontier vertex (unentered, with an entered neighbor) that leaves
    the fewest vertices active once it enters: +1 if it has an unentered
    neighbor, -1 per entered neighbor it is the last to reach.  Ties go to
    the most entered neighbors, then to the fewest unentered ones, then to
    the lower index.  A vertex is active from its entry until its last
    neighbor enters, so once v enters, an active vertex stays exactly when
    it still has an unentered neighbor.  Each step records v, the positions
    of its neighbors among the active vertices, the positions of the active
    vertices that stay, and whether v stays.  Built once per graph
    (`Graph.plan`).  Each step's scan of the frontier counts against
    `CHROMATIC_WORK_LIMIT`: a chromatic transfer's own work is at least
    that count, so the order refuses no graph its transfer would answer."""
    adj = g.adjacency
    left = [len(a) for a in adj]  # unentered neighbors
    roots = iter(sorted(range(g.n), key=left.__getitem__))
    entered = [False] * g.n
    frontier: set[int] = set()
    active: list[int] = []
    steps = []
    scans = 0

    def score(x: int) -> tuple[int, int, int, int]:
        retired = sum(entered[u] and left[u] == 1 for u in adj[x])
        return (left[x] > 0) - retired, left[x] - len(adj[x]), left[x], x

    for i in range(g.n):
        scans += len(frontier)
        if scans > CHROMATIC_WORK_LIMIT:
            raise SearchBudgetExceeded(
                f"the transfer's vertex order passed CHROMATIC_WORK_LIMIT = "
                f"{CHROMATIC_WORK_LIMIT:,} frontier scans at vertex {i + 1} of {g.n}"
            )
        if len(frontier) > 1:
            v = min(frontier, key=score)
        elif frontier:  # one candidate: no score to compare
            (v,) = frontier
        else:
            v = next(r for r in roots if not entered[r])
        entered[v] = True
        frontier.discard(v)
        for u in adj[v]:
            left[u] -= 1
            if not entered[u]:
                frontier.add(u)
        near = [k for k, u in enumerate(active) if u in adj[v]]
        keep = [k for k, u in enumerate(active) if left[u] > 0]
        stays = left[v] > 0
        active = [active[k] for k in keep] + [v] * stays
        steps.append((v, near, keep, stays))
    return steps


def _transfer(g: Graph, named: Mapping[int, int], avoid: Mapping[int, int]) -> IntPoly:
    """Colorings of g that put each vertex v of `named` on fixed color
    named[v] and each vertex v of `avoid` on any color but avoid[v], the s
    fixed colors numbered 0..s-1, as a polynomial in m: the count at every
    m at which the fixed colors are colors.

    The walk is `_transfer_steps`.  A state gives each active vertex the
    label of its color block: labels below s are the s fixed colors, and
    the others are numbered from s in order of first appearance, so equal
    partitions are equal tuples.  Its weight, a coefficient list, counts
    the colorings of the entered vertices that induce it.  With b blocks
    (the s fixed ones included), an entering vertex joins a block that
    holds none of its neighbors, or takes one of the m - b new colors; a
    fixed vertex may only join its own block, and an avoiding vertex treats
    its avoided block as taken.  Retired vertices are dropped and equal
    states merge.
    """
    s = 1 + max([*named.values(), *avoid.values()], default=-1)
    states: dict[tuple[int, ...], list[int]] = {(): [1]}
    work = 0
    for i, (v, near, keep, stays) in enumerate(g.plan(_transfer_steps)):
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
            if work > CHROMATIC_WORK_LIMIT:
                raise SearchBudgetExceeded(
                    f"the chromatic transfer passed CHROMATIC_WORK_LIMIT = "
                    f"{CHROMATIC_WORK_LIMIT:,} coefficient updates at vertex "
                    f"{i + 1} of {g.n} ({len(states):,} states)"
                )
            for c, x in moves:
                key = kept + (c,) * stays
                old = merged.get(key)
                merged[key] = x if old is None else [
                    p + q for p, q in zip_longest(old, x, fillvalue=0)
                ]
        states = merged
    return IntPoly(states.get((), ()))


def theta_closed_form(lengths: tuple[int, ...]) -> IntPoly:
    """Classical closed form for P(Theta(l_1,...,l_k), m); k = 1 is a path.

    Color the ends u and w first.  A path of length l has
    b_l = ((m-1)^l - (-1)^l)/m proper color walks between two given
    distinct colors and b_l + (-1)^l between equal ones, so
    P = m(m-1) prod b_l + m prod (b_l + (-1)^l).  The form is a product
    over the paths, so every ordering of the lengths gives the identical
    `IntPoly`: the body is cached per process, keyed by the sorted lengths.
    """
    return _theta_closed_form(tuple(sorted(lengths)))


@cache
def _theta_closed_form(lengths: tuple[int, ...]) -> IntPoly:
    """The body of `theta_closed_form`, right for any ordering of the
    lengths.  Every power of m - 1 is a `forest_polynomial` (a binomial
    expansion), not a chain of products, and each division by m is exact."""
    walks = [(power_m1(l) - sign(l)).exact_div(M) for l in lengths]
    differ = prod(walks)
    same = prod(b + sign(l) for b, l in zip(walks, lengths))
    return forest_polynomial(1, 1) * differ + M * same


def theta_chromatic(spec: ThetaSpec) -> IntPoly:
    """Chromatic polynomial of a generalized Theta graph, closed form."""
    return theta_closed_form(spec.lengths)


@cache
def theta_edge_deleted_chromatic(spec: ThetaSpec, path: int) -> IntPoly:
    """P(G - e, m) for e the u-incident edge of the given path (1-based).

    Deleting that edge leaves the Theta graph on the remaining paths with a
    pendant path of length l_path - 1 hanging from w, hence the product
    with (m-1)^(l_path - 1).  Built once per argument, like the Theta form.
    """
    if not 1 <= path <= spec.k:
        raise BadPathIndex(f"path index {path} not in 1..{spec.k}")
    rest = spec.lengths[: path - 1] + spec.lengths[path:]
    return theta_closed_form(rest) * power_m1(spec.lengths[path - 1] - 1)


class EdgePairFamily(NamedTuple):
    """The five graphs of the surgery on the two u-edges of paths 1 and 2,
    or their chromatic polynomials, in this order.

    With a1 = the u-neighbor on path 1 and a3 = the u-neighbor on path 2:
    g1 drops the edge u-a1, g2 drops u-a3, g0 drops both, gstar adds the
    chord a1-a3 to the full graph.
    """

    g: Graph | IntPoly
    g0: Graph | IntPoly
    g1: Graph | IntPoly
    g2: Graph | IntPoly
    gstar: Graph | IntPoly


def theta_edge_pair_graphs(l1: int, l2: int, l3: int) -> EdgePairFamily:
    """Build the surgery family for Theta(l1, l2, l3) with 2 <= l1 <= l2 <= l3."""
    if not 2 <= l1 <= l2 <= l3:
        raise ValueError("need 2 <= l1 <= l2 <= l3")
    g = build_generalized_theta(ThetaSpec((l1, l2, l3)))
    e1 = g.edge_index("u", "v_1_1")
    e2 = g.edge_index("u", "v_2_1")
    return EdgePairFamily(
        g=g,
        g0=g.without_edges([e1, e2]),
        g1=g.without_edges([e1]),
        g2=g.without_edges([e2]),
        gstar=g.with_edge("v_1_1", "v_2_1"),
    )


@cache
def theta_edge_pair_polynomials(l1: int, l2: int, l3: int) -> EdgePairFamily:
    """Closed forms for the surgery family of Theta(l1, l2, l3).

    G is the Theta graph itself, G1 and G2 are its edge-deleted forms and
    G0, a tree, is m(m-1)^(l1+l2+l3-2); only G*, which is not a Theta
    graph, is written out here, and its division is exact (a remainder
    raises).  Each triple is built once per process; invalid arguments
    raise on every call, as a cache keeps no exception.
    """
    if not 2 <= l1 <= l2 <= l3:
        raise ValueError("need 2 <= l1 <= l2 <= l3")
    spec = ThetaSpec((l1, l2, l3))
    total = l1 + l2 + l3
    a = power_m1
    gstar = (M - 2) * (
        a(total - 1)
        + sign(l2 + l3) * a(l1)
        + sign(l1 + l3) * a(l2)
        + sign(l1 + l2 + 1) * a(l3 + 1)
        + 2 * sign(total) * (M - 1)
    )
    return EdgePairFamily(
        theta_chromatic(spec),
        forest_polynomial(1, total - 2),
        theta_edge_deleted_chromatic(spec, 1),
        theta_edge_deleted_chromatic(spec, 2),
        gstar.exact_div(M),
    )


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


def precolored_count(g: Graph, pc: Precoloring, m: int) -> int:
    """Number of proper m-colorings of g agreeing with the precoloring.

    A proper coloring is a transversal of the identity cover, so this is
    the cover counter with a one-hot vector at each precolored vertex: the
    precolored vertices join the feedback set as the slots of the graph's
    counting plan, and the count reads its row table.
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

    The transfer of `chromatic_polynomial` with the distinct precolors as
    fixed blocks, each precolored vertex forced into its own; a
    conflicting precoloring leaves no state, so its polynomial is zero.
    """
    _check_precoloring(g, pc)
    colors = sorted(set(pc.assignment.values()))
    return _transfer(g, {g.index[v]: colors.index(c) for v, c in pc.assignment.items()}, {})
