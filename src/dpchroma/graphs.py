"""Simple undirected graphs with stable string labels.

Provides the generalized Theta construction Theta(l_1, ..., l_k) with its
fixed vertex/edge naming, one union-find pass (`spanning_forest`) behind
every forest, component, standard-tree and feedback-vertex query (a
single feedback vertex, or a small feedback vertex set),
simple-cycle lengths of edge subsets, and the star + forest
decomposition used by the feedback-vertex-one machinery.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import BadEdge, InvalidCenter, InvalidThetaSpec

# Edge subsets are plain int bitmasks over a graph's edge list.
EdgeSubset = int

#: `feedback_vertex_set` shrinks a greedy set to a minimum while at most
#: this many vertex sets one smaller exist (each costs one union-find pass).
EXACT_FEEDBACK_SUBSETS = 10_000


@dataclass(frozen=True)
class ThetaSpec:
    """Path lengths (l_1, ..., l_k) of a generalized Theta graph.

    Two end vertices u and w are joined by k internally disjoint paths of
    these lengths.  At most one length may equal 1, otherwise u and w would
    be joined by parallel edges.
    """

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(x) for x in self.lengths))
        if len(self.lengths) < 2:
            raise InvalidThetaSpec("need at least two paths")
        if any(x < 1 for x in self.lengths):
            raise InvalidThetaSpec("path lengths must be positive")
        if sum(1 for x in self.lengths if x == 1) > 1:
            raise InvalidThetaSpec("two paths of length 1 would be parallel edges")

    @property
    def k(self) -> int:
        return len(self.lengths)

    @property
    def edge_count(self) -> int:
        return sum(self.lengths)

    @property
    def vertex_count(self) -> int:
        return self.edge_count + 2 - self.k

    def sorted_for_analysis(self) -> bool:
        """True when l_2 <= ... <= l_k and l_2 >= max(l_1, 2).

        The path-indexed machinery (twist profiles, subset audits, the
        parity classification) is stated for specs in this order.
        """
        tail = self.lengths[1:]
        return all(a <= b for a, b in zip(tail, tail[1:])) and tail[0] >= max(
            self.lengths[0], 2
        )

    def __str__(self) -> str:
        return "theta:" + ",".join(str(x) for x in self.lengths)

    @classmethod
    def parse(cls, text: str) -> "ThetaSpec":
        body = text[6:] if text.startswith("theta:") else text
        try:
            lengths = tuple(int(part) for part in body.split(","))
        except ValueError:
            raise InvalidThetaSpec(f"cannot parse theta spec {text!r}") from None
        return cls(lengths)


class FeedbackVertex(enum.Enum):
    """Non-vertex outcomes of `find_feedback_vertex`."""

    NONE_NEEDED = "none-needed"
    NOT_SIZE_ONE = "not-size-one"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    `vertices` fixes the label order; `edges` are index pairs into it, each
    oriented from the lexicographically smaller label.  The edge *order* is
    significant: bitmask subsets and cover twists refer to it.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    theta: ThetaSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        pairs = set()
        oriented = []
        for a, b in self.edges:
            if a == b:
                raise ValueError("loops are not allowed")
            if not (0 <= a < len(self.vertices) and 0 <= b < len(self.vertices)):
                raise ValueError("edge endpoint out of range")
            key = frozenset((a, b))
            if key in pairs:
                raise ValueError("parallel edges are not allowed")
            pairs.add(key)
            if self.vertices[a] > self.vertices[b]:
                a, b = b, a
            oriented.append((a, b))
        object.__setattr__(self, "edges", tuple(oriented))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(x) for x in adj)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex."""
        inc: list[list[int]] = [[] for _ in self.vertices]
        for i, (a, b) in enumerate(self.edges):
            inc[a].append(i)
            inc[b].append(i)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def pair_index(self) -> dict[tuple[int, int], int]:
        """Edge index keyed by sorted endpoint index pair."""
        return {
            (min(a, b), max(a, b)): i for i, (a, b) in enumerate(self.edges)
        }

    def edge_index(self, x: str, y: str) -> int:
        a, b = self.index[x], self.index[y]
        i = self.pair_index.get((min(a, b), max(a, b)))
        if i is None:
            raise BadEdge(f"{x}-{y} is not an edge")
        return i

    def edge_labels(self, i: int) -> tuple[str, str]:
        a, b = self.edges[i]
        return self.vertices[a], self.vertices[b]

    def without_edges(self, indices: Iterable[int]) -> "Graph":
        drop = set(indices)
        kept = tuple(e for i, e in enumerate(self.edges) if i not in drop)
        return Graph(self.vertices, kept)

    def with_edge(self, x: str, y: str) -> "Graph":
        return Graph(self.vertices, self.edges + ((self.index[x], self.index[y]),))

    @cached_property
    def feedback_set(self) -> tuple[int, ...]:
        """`feedback_vertex_set` of this graph, computed once."""
        return feedback_vertex_set(self)

    @cached_property
    def _plans(self) -> dict:
        return {}

    def plan(self, build, *args):
        """`build(self, *args)`, built once per graph and arguments: the
        transfer's step table and the counting plans.  They are freed with
        the graph and left out of its pickled state, so a worker process
        builds its own."""
        key, plans = (build, args), self._plans
        if key not in plans:
            plans[key] = build(self, *args)
        return plans[key]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_plans", None)
        return state

    @cached_property
    def standard_tree(self) -> frozenset[int]:
        """Edge indices of the spanning forest that cover twists are
        normalized against: for a generalized Theta graph every edge but the
        u-incident edges of paths 2..k, otherwise every edge outside the
        `spanning_forest` cotree (the greedy forest in edge order)."""
        if self.theta is not None:
            k = self.theta.k
            return frozenset(i for i in range(len(self.edges)) if not 1 <= i < k)
        _, cotree = spanning_forest(self.n, self.edges)
        return frozenset(range(len(self.edges))).difference(cotree)

    @cached_property
    def subset_cycles(self) -> tuple[list[int], ...]:
        """`subset_cycle_lengths` of every edge subset, indexed by mask and
        computed once per graph (the empty subset has no cycles)."""
        return ([],) + tuple(
            subset_cycle_lengths(self, mask) for mask in range(1, 1 << len(self.edges))
        )

    def is_forest(self) -> bool:
        return not spanning_forest(self.n, self.edges)[1]

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        labels: list[str] = []
        seen: dict[str, int] = {}
        pairs: list[tuple[str, str]] = []
        count = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n" and len(parts) == 2:
                count = int(parts[1])
            elif parts[0] == "e" and len(parts) == 3:
                for lab in parts[1:]:
                    if lab not in seen:
                        seen[lab] = len(labels)
                        labels.append(lab)
                pairs.append((parts[1], parts[2]))
            else:
                raise ValueError(f"cannot parse graph line {raw!r}")
        if count is None:
            raise ValueError("missing 'n <count>' header line")
        if count < len(labels):
            raise ValueError("vertex count smaller than number of labels used")
        # Labels never mentioned on an edge line are isolated vertices.
        i = 0
        while len(labels) < count:
            name = f"iso{i}"
            if name not in seen:
                seen[name] = len(labels)
                labels.append(name)
            i += 1
        return cls(tuple(labels), tuple((seen[x], seen[y]) for x, y in pairs))


def build_generalized_theta(spec: ThetaSpec) -> Graph:
    """Build Theta(l_1, ..., l_k) with the fixed naming scheme.

    Vertices: u, w, then v_i_j for path i and position j.  Edges: first the
    u-incident edge of each path in path order (edge i-1 is u--v_i_1, or
    u--w for a length-1 path), then the remaining edges path-major in
    position order.
    """
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


def spanning_forest(
    n: int, edges: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """One union-find pass over `edges` in order.

    Returns the component root of each vertex and the cotree: the indices
    of the edges that close a cycle with earlier edges.  The remaining
    edges form a spanning forest, so the edges form a forest exactly when
    the cotree is empty.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cotree = []
    for i, (a, b) in enumerate(edges):
        ra, rb = find(a), find(b)
        if ra == rb:
            cotree.append(i)
        else:
            parent[ra] = rb
    return [find(x) for x in range(n)], cotree


def component_count(g: Graph, subset: EdgeSubset) -> int:
    """Components of the spanning subgraph with the given edge subset."""
    if subset >> len(g.edges):
        raise BadEdge("subset references nonexistent edges")
    roots, _ = spanning_forest(g.n, [g.edges[i] for i in _bits(subset)])
    return len(set(roots))


def _bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def subset_cycle_lengths(g: Graph, subset: EdgeSubset) -> list[int]:
    """Lengths of all simple cycles of the spanning subgraph, sorted.

    Each cycle is enumerated once from its smallest vertex, walking only
    through larger vertices and breaking the two traversal directions by
    comparing the neighbors of the anchor.
    """
    if subset >> len(g.edges):
        raise BadEdge("subset references nonexistent edges")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i in _bits(subset):
        a, b = g.edges[i]
        adj[a].append(b)
        adj[b].append(a)
    lengths: list[int] = []

    def extend(anchor: int, path: list[int], on_path: set[int]):
        last = path[-1]
        for nxt in adj[last]:
            if nxt == anchor and len(path) >= 3:
                if path[1] < path[-1]:
                    lengths.append(len(path))
            elif nxt > anchor and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                extend(anchor, path, on_path)
                on_path.remove(nxt)
                path.pop()

    for anchor in range(g.n):
        extend(anchor, [anchor], {anchor})
    return sorted(lengths)


def find_feedback_vertex(g: Graph) -> str | FeedbackVertex:
    """A vertex whose removal leaves a forest, trying labels in sorted order.

    Returns NONE_NEEDED when the graph is already a forest and NOT_SIZE_ONE
    when no single vertex works.  Each candidate costs one union-find pass
    over the edges that avoid it.
    """
    if g.is_forest():
        return FeedbackVertex.NONE_NEEDED
    for label in sorted(g.vertices):
        if _leaves_forest(g, (g.index[label],)):
            return label
    return FeedbackVertex.NOT_SIZE_ONE


def feedback_vertex_set(g: Graph) -> tuple[int, ...]:
    """Vertex indices S such that G - S is a forest, kept small.

    S is empty for a forest and the `find_feedback_vertex` pivot when one
    vertex suffices.  Otherwise S grows greedily: while G - S has a
    cycle, the endpoint of its first cotree edge with the higher degree
    in G - S joins S (K4 gets two vertices, K5 three).  The greedy S then
    shrinks while some vertex set one smaller, the first in `combinations`
    order, leaves a forest.  As every superset of a feedback set is one,
    the S it stops at is a minimum, unless more than
    `EXACT_FEEDBACK_SUBSETS` sets were to try.  A forest on n' vertices
    has at most n' - 1 edges, so a set R that leaves more, |E| minus the
    degrees of R plus the edges inside R, is passed over without a
    union-find pass.
    """
    pivot = find_feedback_vertex(g)
    if pivot is FeedbackVertex.NONE_NEEDED:
        return ()
    if isinstance(pivot, str):
        return (g.index[pivot],)
    chosen: set[int] = set()
    while True:
        rest = [e for e in g.edges if chosen.isdisjoint(e)]
        _, cotree = spanning_forest(g.n, rest)
        if not cotree:
            break
        degree = Counter(v for e in rest for v in e)
        a, b = rest[cotree[0]]
        chosen.add(a if degree[a] >= degree[b] else b)
    best = tuple(sorted(chosen))
    near = [set(x) for x in g.adjacency]

    def few_enough_edges(removed: tuple[int, ...]) -> bool:
        inside = sum(1 for a, b in combinations(removed, 2) if b in near[a])
        left = len(g.edges) - sum(len(near[v]) for v in removed) + inside
        return left < g.n - len(removed)

    # one vertex was ruled out above
    while len(best) > 2 and comb(g.n, len(best) - 1) <= EXACT_FEEDBACK_SUBSETS:
        subsets = combinations(range(g.n), len(best) - 1)
        smaller = next(
            (s for s in subsets if few_enough_edges(s) and _leaves_forest(g, s)), None
        )
        if smaller is None:
            break
        best = smaller
    return best


def _leaves_forest(g: Graph, removed: Iterable[int]) -> bool:
    """Whether G minus the `removed` vertices is a forest."""
    removed = set(removed)
    return not spanning_forest(g.n, [e for e in g.edges if removed.isdisjoint(e)])[1]


@dataclass(frozen=True)
class StarDecomposition:
    """A star K_{1,k-1} at `center` whose removal leaves a forest.

    `alphas` lists the star's vertices: the center first, then its
    neighbors in label order.  `forest` is the graph minus the star edges
    (same vertex set, so the center survives as an isolated vertex).
    """

    graph: Graph
    center: str
    star_edges: EdgeSubset
    forest: Graph

    @cached_property
    def alphas(self) -> tuple[str, ...]:
        c = self.graph.index[self.center]
        return (self.center,) + tuple(
            sorted(self.graph.vertices[x] for x in self.graph.adjacency[c])
        )


def star_forest_decomposition(g: Graph, center: str) -> StarDecomposition:
    """Split off the star of all edges at `center`; the rest must be a forest."""
    c = g.index[center]
    mask = 0
    for i in g.incident[c]:
        mask |= 1 << i
    forest = g.without_edges(_bits(mask))
    if not forest.is_forest():
        raise InvalidCenter(f"removing the star at {center!r} leaves a cycle")
    return StarDecomposition(g, center, mask, forest)
