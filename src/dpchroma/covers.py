"""Full m-fold covers as permutation twists, exact coloring counts, and the
exhaustive minimization behind the DP color function.

A cover is exactly its graph, its fold and its cotree twists.  It is
stored in tree-canonical form: matchings on the graph's `standard_tree`
are the identity and each cotree edge carries one permutation of the
fold [m] (oriented from the lexicographically smaller endpoint).  Any
assignment of permutations to all edges can be brought into this form by
relabeling fibers down a forest (`_frames`), which never changes the
number of colorings.

Covers are full (`CoverMismatch` otherwise): a partial matching extends
to a perfect one, and each added cross edge can only remove colorings.
Every count runs the one loop of `_FeedbackPlan`, kept on the graph
(`Graph.plan`), which conditions on a feedback vertex set S and on every
vertex with a fixed color (`BRUTE_FORCE_LIMIT` caps the colorings of the
slots left unfixed, and the n * m entries of one row).  Every vertex left
may take every color, so each row is the forest's count read from a
table per fold.  At its conjugacy level
the search is orderly: it counts one cover per conjugacy orbit and finds
the same first minimum as a count of every cover (see `_search_chunk`);
its orbit sweeps are cached per process by fold and group
(`_orbit_sweep`).  There it also stops at its first count equal to a
proven lower bound (`dp_lower_bound`, the least row times a bound on the
feedback set's own DP color function), which is exact with one feedback
vertex.  With one, a cover counts the bound exactly when every row key is
a least key (`_FeedbackPlan.least_keys`, one walk of the keys per fold),
so the search skips every twist prefix whose fixed key columns no least
key extends (`_FeedbackPlan.least_key_table`) and counts one cover.
The subset walk behind inclusion-exclusion (`subset_walk`) reads the
component count of every edge subset from one cover-free table per graph,
and composes a cover's permutations only where a cycle can close: a
forest subset agrees on m^c colorings whatever the twists.
Set partitions have one enumerator, `_growth_strings` (row keys, FVS-1 leaf
groupings, and star partitions in `partitions_of`); shift covers of star
partitions live here too, weighed by the leaf DP of `analysis._LeafCounts`,
which roots its Steiner forest along a `_forest` descent.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from functools import cache
from itertools import chain, permutations, product
from math import prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    AssumptionViolated,
    CoverMismatch,
    FoldTooSmall,
    GraphTooLarge,
    OutOfRange,
    SearchBudgetExceeded,
)
from .graphs import Graph, StarDecomposition, _bits, spanning_forest

# A twist is a tuple of images, a permutation of the fold.
Perm = tuple[int, ...]

BRUTE_FORCE_LIMIT = 4_000_000
#: A fold's row table stores raw keys only while it is smaller than this;
#: canonical rows always are, so a one-off count need not keep its m^|S| keys.
RAW_KEY_LIMIT = 65_536
#: Default search budget of `min_over_covers` and of the CLI's `--budget`.
SEARCH_BUDGET = 10_000_000
SUBSET_EDGE_LIMIT = 20
# A budget refusal shows the cover count up to this many digits, a bound past it.
_SHOWN_DIGITS = 30


def identity_perm(m: int) -> Perm:
    return tuple(range(m))


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def compose(outer: Perm, inner: Perm) -> Perm:
    """outer after inner."""
    return tuple([outer[v] for v in inner])


def is_permutation(p: Sequence[int], m: int) -> bool:
    return len(p) == m and set(p).issuperset(range(m))


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of a full permutation, each as (x, p(x), p(p(x)), ...)."""
    seen, cycles = [False] * len(p), []
    for start in range(len(p)):
        cycle, i = [], start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = p[i]
        if cycle:
            cycles.append(cycle)
    return cycles


def _ascending_partitions(total: int, minimum: int = 1) -> Iterable[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in _ascending_partitions(total - first, first):
            yield (first,) + rest


def _partition_count(m: int, limit: int | None = None) -> int:
    """p(m), the number of cycle types of S_m, by Euler's pentagonal
    recurrence; `limit` once some p(j), j <= m, reaches it (p grows)."""
    p = [1]
    for n in range(1, m + 1):
        total, k = 0, 1
        while (pentagonal := k * (3 * k - 1) // 2) <= n:
            tail = p[n - pentagonal - k] if pentagonal + k <= n else 0
            total += (p[n - pentagonal] + tail) * (1 if k % 2 else -1)
            k += 1
        if limit is not None and total >= limit:
            return limit
        p.append(total)
    return p[m]


def _factorial(m: int, limit: int) -> int:
    """m!, or `limit` once some j!, j <= m, reaches it."""
    value = 1
    for j in range(2, m + 1):
        value *= j
        if value >= limit:
            return limit
    return value


@cache
def cycle_type_representatives(m: int) -> tuple[Perm, ...]:
    """Lexicographically least permutation of each cycle type, sorted.

    The least representative places cycles on consecutive blocks in
    ascending length order, each block a forward shift.
    """
    reps = []
    for part in _ascending_partitions(m):
        perm: list[int] = []
        start = 0
        for size in part:
            perm.extend(start + (i + 1) % size for i in range(size))
            start += size
        reps.append(tuple(perm))
    return tuple(sorted(reps))


@cache
def _centralizer(f: Perm) -> tuple[tuple[Perm, Perm], ...]:
    """Every permutation tau commuting with f, as (tau, tau^-1) pairs.  Such
    a tau maps the cycles of f onto cycles of the same length, x -> y,
    f(x) -> f(y), ..., for any y.  The search asks only for cycle-type
    representatives, so the cache stays small."""
    cycles = _cycles(f)
    out = []
    for images in permutations(cycles):
        if any(len(c) != len(d) for c, d in zip(cycles, images)):
            continue
        for turns in product(*(range(len(c)) for c in cycles)):
            tau = [0] * len(f)
            for c, d, turn in zip(cycles, images, turns):
                for k, x in enumerate(c):
                    tau[x] = d[(k + turn) % len(c)]
            out.append((tuple(tau), invert_perm(tau)))
    return tuple(out)


@cache
def _orbit_sweep(m: int, group: tuple[tuple[Perm, Perm], ...]) -> tuple[tuple[Perm, tuple], ...]:
    """The first twist of each orbit of `group` (tau, tau^-1 pairs)
    conjugating S_m, in lex order, each with its stabiliser in `group`.
    A sweep depends only on the fold and the group, so every search in a
    process shares it, as it shares `_centralizer`."""
    seen, kept = set(), []
    for p in permutations(range(m)):
        if p in seen:
            continue
        stabiliser = []
        for tau, inv in group:
            q = tuple([tau[p[j]] for j in inv])
            seen.add(q)
            if q == p:
                stabiliser.append((tau, inv))
        kept.append((p, tuple(stabiliser)))
    return tuple(kept)


def _forest(
    g: Graph, edge_ids: Iterable[int], first: Iterable[int] = ()
) -> tuple[list[int], list[tuple[int, int, int, bool]]]:
    """The roots of the forest spanned by `edge_ids`, each tree's first
    vertex listed in `first`, else its least vertex, and its descent:
    every non-root step (v, parent, edge index, forward), each parent
    first and each tree one slice in root order; forward when the edge is
    stored from the parent.  Reversed, the descent visits every child
    before its parent."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in edge_ids:
        a, b = g.edges[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    seen = [False] * g.n
    roots, descent = [], []
    for root in chain(first, range(g.n)):
        if seen[root]:
            continue
        seen[root] = True
        roots.append(root)
        stack = [root]
        while stack:
            x = stack.pop()
            for y, e in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    descent.append((y, x, e, g.edges[e][0] == x))
                    stack.append(y)
    return roots, descent


class _FullCoverFields(NamedTuple):
    graph: Graph
    m: int
    twists: Mapping[int, Perm]


class FullCover(_FullCoverFields):
    """An m-fold cover in tree-canonical form against `graph.standard_tree`.

    `twists` maps each cotree edge index to the permutation realized by its
    matching, read from the lexicographically smaller endpoint; every tree
    matching is the identity.
    """

    __slots__ = ()

    def __new__(cls, graph: Graph, m: int, twists: Mapping[int, Perm]):
        if m < 1:
            raise CoverMismatch("fold must be at least 1")
        if set(twists) != set(range(len(graph.edges))) - graph.standard_tree:
            raise CoverMismatch("twists must cover exactly the cotree edges")
        if not all(is_permutation(p, m) for p in twists.values()):
            raise CoverMismatch("twist is not a permutation of the fold")
        return super().__new__(cls, graph, m, twists)

    def edge_perms(self) -> list[Perm]:
        ident = identity_perm(self.m)
        return [
            self.twists.get(i, ident) for i in range(len(self.graph.edges))
        ]

    @classmethod
    def from_edge_perms(
        cls,
        g: Graph,
        m: int,
        perms: Mapping[int, Perm],
    ) -> "FullCover":
        """Canonicalize an arbitrary edge -> permutation assignment.

        Fibers are relabeled along `g.standard_tree` so tree matchings
        become the identity; cotree twists pick up the conjugations.  A
        twist keyed by anything but an edge index of g is refused.
        """
        if not set(perms) <= set(range(len(g.edges))):
            raise CoverMismatch("twists must be keyed by edge indices of the graph")
        if not all(is_permutation(p, m) for p in perms.values()):
            raise CoverMismatch("twist is not a permutation of the fold")
        tree, ident = g.standard_tree, identity_perm(m)
        full = [tuple(perms.get(i, ident)) for i in range(len(g.edges))]
        # Relabeling each fiber by its frame's inverse makes every tree matching
        # the identity; a cotree twist becomes frame[b]^-1 o sigma o frame[a].
        frame = _frames(g.n, _forest(g, tree)[1], full, ident)
        twists = {}
        for i, (a, b) in enumerate(g.edges):
            if i not in tree:
                p = full[i] if frame[a] is None else compose(full[i], frame[a])
                twists[i] = p if frame[b] is None else compose(invert_perm(frame[b]), p)
        return cls(g, m, twists)


def _frames(n: int, descent: list, perms: Sequence[Perm], ident: Perm, inverse=invert_perm) -> list:
    """frame[v] carries the fiber of v's root to v's own down a `_forest`
    descent; None is the identity, so identity matchings compose nothing."""
    frame: list[Perm | None] = [None] * n
    for v, parent, e, forward in descent:
        p = perms[e]
        if p == ident:
            frame[v] = frame[parent]
        else:
            p = p if forward else inverse(p)
            up = frame[parent]
            frame[v] = p if up is None else compose(p, up)
    return frame


def identity_cover(g: Graph, m: int) -> FullCover:
    """The cover with every matching diagonal; counts proper m-colorings."""
    ident = identity_perm(m)
    twists = {i: ident for i in range(len(g.edges)) if i not in g.standard_tree}
    return FullCover(g, m, twists)


def random_cover(g: Graph, m: int, rng) -> FullCover:
    """Uniformly random twist on each cotree edge."""
    twists = {}
    for i in range(len(g.edges)):
        if i not in g.standard_tree:
            p = list(range(m))
            rng.shuffle(p)
            twists[i] = tuple(p)
    return FullCover(g, m, twists)


def _forest_count(roots: Iterable[int], descent: list, seeds: Sequence[Sequence[int]]) -> int:
    """Count colorings of a forest whose every edge is the identity matching:
    one pass up a `_forest` descent, then the product over the roots;
    seeds[v] is the 0/1 vector of colors allowed at v."""
    vecs = list(seeds)
    for v, parent, _, _ in reversed(descent):
        child, vecs[v] = vecs[v], None  # dropped once read: linear memory on a long path
        s = sum(child)
        vecs[parent] = [a * (s - b) for a, b in zip(vecs[parent], child)]
    return prod(sum(vecs[root]) for root in roots)


class _FeedbackPlan:
    """Counts transversals by conditioning on the colors of its slots: the
    feedback set S = `g.feedback_set`, then the vertices of `restricted`
    outside it.  Every vertex outside the slots may take every color.

    Every count runs one loop over the slot colorings, and one slot is its
    one-factor case.  It relabels the fibers of each tree of the forest
    left down its descent so that every tree edge is the identity: frame[v]
    carries the fiber of v's root to v's.  A row colors the slots, a fixed
    slot with its one color, and is rejected when an edge inside the slots
    matches those colors.  Each edge from a slot blocks one color at its
    other endpoint, read in that endpoint's frame; these colors are the
    row's key, read as soon as it is made, and `_row` counts the colorings
    of the forest avoiding them.  The plan stores the edges inside and out
    of the slots and the forest as its roots and one `_forest` descent, each
    tree a slice of it; none of it depends on the fold or the fixed colors.

    A permutation sigma of all m colors maps the colorings that avoid a key
    one-to-one onto those that avoid sigma(key), so a row depends only on
    which entries of its key are equal.  The plan keeps one row table per
    fold.  A key missing from the table is relabeled in order of first
    occurrence, (2, 0, 2) to (0, 1, 0), and only that canonical key runs
    the forest's DP, so a fold builds at most
    Bell(|edges from the slots|) rows.  The raw key is stored beside it
    only while the table holds fewer than `RAW_KEY_LIMIT` entries.
    """

    def __init__(self, g: Graph, restricted: Iterable[int] = ()):
        self.n = g.n
        self.slots = g.feedback_set + tuple(v for v in restricted if v not in g.feedback_set)
        slot = {v: i for i, v in enumerate(self.slots)}
        self.inner, self.outer, rest = [], [], []
        for e, (a, b) in enumerate(g.edges):
            if a in slot and b in slot:
                self.inner.append((slot[a], slot[b], e))
            elif a in slot or b in slot:
                s, y = (a, b) if a in slot else (b, a)
                self.outer.append((slot[s], y, e, s == a))
            else:
                rest.append(e)
        self.outer.sort(key=lambda edge: edge[0])  # row keys go slot by slot
        roots, self.descent = _forest(g, rest)
        self.roots = [root for root in roots if root not in slot]  # a slot is alone
        self.inverse = cache(invert_perm)
        self.tables: dict[int, dict[tuple[int, ...], int]] = {}  # per fold, its rows
        self.least: dict[int, tuple[int, list[tuple[int, ...]]]] = {}  # per fold, `least_keys`

    def count(
        self, perms: Sequence[Perm], m: int, fixed: Sequence[int | None] | None = None
    ) -> int:
        """Transversals at fold m, fixed[i] the one color of slot i or None
        for every color (all None without `fixed`): one loop over the slot
        colorings, one slot its one-factor case, each key read as made."""
        fixed = [None] * len(self.slots) if fixed is None else fixed
        unfixed = fixed.count(None)
        if m**unfixed > BRUTE_FORCE_LIMIT:
            raise GraphTooLarge(
                f"{m}^{unfixed} feedback-set colorings exceed BRUTE_FORCE_LIMIT = {BRUTE_FORCE_LIMIT:,}"
            )
        rows = self.tables.setdefault(m, {})
        # a slot with no edge out of the slots blocks nothing: m empty keys
        parts = [list(zip(*b)) if b else [()] * m for b in self.blocks(perms, identity_perm(m))]
        # each slot's choices as (color, key part) pairs
        choices = [list(enumerate(part)) if c is None else [(c, part[c])] for part, c in zip(parts, fixed)]
        inner = [(a, b, perms[e]) for a, b, e in self.inner]
        total = 0
        for coloring in product(*choices):
            for a, b, p in inner:
                if p[coloring[a][0]] == coloring[b][0]:
                    break
            else:
                key = ()
                for _, part in coloring:
                    key += part
                row = rows.get(key)
                if row is None:
                    canon = _canonical(key)
                    row = rows.get(canon)
                    if row is None:
                        row = rows[canon] = self._row(canon, m)
                    if len(rows) < RAW_KEY_LIMIT:
                        rows[key] = row
                total += row
        return total

    def blocks(self, perms: Sequence[Perm], ident: Perm) -> list[list[Perm]]:
        """blocks[i][j][c]: the color slot i's edge j blocks when i takes c,
        read in the frame of the edge's other endpoint; column j of the row
        keys.  `ident` is the fold's identity."""
        inverse = self.inverse
        frame = _frames(self.n, self.descent, perms, ident, inverse)
        blocks: list[list[Perm]] = [[] for _ in self.slots]
        for i, y, e, forward in self.outer:
            p = perms[e] if forward else inverse(perms[e])
            up = frame[y]
            blocks[i].append(p if up is None else compose(inverse(up), p))
        return blocks

    def least_key_table(self, m: int, free_edges: Sequence[int]) -> tuple:
        """Per depth d, the number of free edges placed, the columns of the
        row keys fixed once d edges are placed, with the set of canonical
        restrictions to them of the least keys at fold m (`least_keys`), or
        None where depth d fixes no new column.

        Column j is the color blocked at outer edge j's endpoint y in y's
        frame: it depends on the twist of edge j and on those of the free
        edges on the descent from y's root down to y, so it is fixed at the
        depth of the last of them, carried down the descent.  A column fixed
        before the first free edge is at depth 1, tested with that edge's
        twist, the chunk's own."""
        best, place = self.least_keys(m)[1], {e: d for d, e in enumerate(free_edges, start=1)}
        fixed = [1] * self.n  # the depth that fixes each frame
        for v, parent, e, _ in self.descent:
            fixed[v] = max(fixed[parent], place.get(e, 0))
        depths = [max(fixed[y], place.get(e, 0)) for _, y, e, _ in self.outer]
        table: list = [None] * (len(free_edges) + 1)
        for d in sorted(set(depths)):
            columns = tuple(j for j, dj in enumerate(depths) if dj <= d)
            table[d] = (columns, frozenset(_canonical(tuple(key[j] for j in columns)) for key in best))
        return tuple(table)

    def least_keys(self, m: int) -> tuple[int, list[tuple[int, ...]]]:
        """The least row at fold m over every canonical key with at most m
        classes, and the keys whose row it is: one walk of the keys per
        fold, each read through the fold's row table, kept beside it."""
        if m not in self.least:
            rows, least, keys = self.tables.setdefault(m, {}), None, []
            for key in _growth_strings(len(self.outer), m):
                row = rows.get(key)
                if row is None:
                    row = rows[key] = self._row(key, m)
                if least is None or row < least:
                    least, keys = row, [key]
                elif row == least:
                    keys.append(key)
            self.least[m] = (least, keys)
        return self.least[m]

    def _row(self, key: tuple[int, ...], m: int) -> int:
        """The forest's count at fold m when the edges from the slots block
        the colors of `key`.  `BRUTE_FORCE_LIMIT` caps its n * m entries,
        checked before any is made: a forest has no feedback-set colorings
        to cap, so nothing else bounds its fold."""
        if self.n * m > BRUTE_FORCE_LIMIT:
            raise GraphTooLarge(
                f"{self.n} vertices x {m} colors in one forest row exceed BRUTE_FORCE_LIMIT = {BRUTE_FORCE_LIMIT:,}"
            )
        seeds = [[1] * m for _ in range(self.n)]
        for (_, y, _, _), c in zip(self.outer, key):
            seeds[y][c] = 0
        return _forest_count(self.roots, self.descent, seeds)


def _canonical(key: tuple[int, ...]) -> tuple[int, ...]:
    """`key` with its colors renamed 0, 1, ... in order of first occurrence."""
    names: dict[int, int] = {}
    return tuple([names.setdefault(c, len(names)) for c in key])


def _growth_strings(k: int, most: int) -> Iterator[tuple[int, ...]]:
    """Every restricted-growth string of length k with at most `most`
    classes, in lex order: each entry names its class, and a class first
    appears one above the largest so far (k items partitioned, item 0 in
    class 0): the canonical keys of `_canonical`, and the package's one
    set-partition enumerator.  The next string raises the last entry that
    may rise, past no class before it and below `most`, and zeroes every
    entry after it; no frame is made per entry, so k may be any length."""
    if k == 0:
        yield ()
        return
    if most < 1:
        return
    rgs, used = [0] * k, [1] * k  # used[i]: the classes of rgs[: i + 1]
    while True:
        yield tuple(rgs)
        i = k - 1
        while i and rgs[i] in (most - 1, used[i - 1]):
            i -= 1
        if not i:
            return
        rgs[i] += 1
        used[i:] = [max(used[i - 1], rgs[i] + 1)] * (k - i)
        rgs[i + 1 :] = [0] * (k - i - 1)


def _growth_string_count(k: int, most: int) -> int:
    """len(_growth_strings(k, most)): the Stirling numbers S(k, j) summed
    over j <= most, row by row from S(i + 1, j) = j S(i, j) + S(i, j - 1)."""
    row = [1]
    for _ in range(k):
        row = [j * a + b for j, (a, b) in enumerate(zip(row + [0], [0] + row))][: most + 1]
    return sum(row)


def count_from_edge_perms(
    g: Graph,
    m: int,
    perms: Sequence[Perm],
    fixed: Mapping[int, int] | None = None,
) -> int:
    """Exact number of transversals avoiding every matched cross pair.

    `perms` holds one permutation of range(m) per edge, and `fixed`, when
    given, maps a vertex index to the one color in range(m) it must take (a
    precolored vertex); anything else is refused with `CoverMismatch`.  The
    fixed vertices join the slots of the graph's counting plan for that set
    of vertices, so every count reads the plan's row table;
    `BRUTE_FORCE_LIMIT` caps m^(slots left unfixed) and a row's n * m entries.
    """
    ident = identity_perm(m)
    if len(perms) != len(g.edges) or not all(p == ident or is_permutation(p, m) for p in perms):
        raise CoverMismatch(f"every edge needs a permutation of the {m} colors")
    if not fixed:
        return g.plan(_FeedbackPlan).count(perms, m)
    if not all(v in range(g.n) and c in range(m) for v, c in fixed.items()):
        raise CoverMismatch(f"a fixed color needs a vertex of the graph and a color of the {m}")
    plan = g.plan(_FeedbackPlan, tuple(sorted(fixed)))
    return plan.count(perms, m, [fixed.get(v) for v in plan.slots])


def count_colorings(g: Graph, cover: FullCover) -> int:
    """Exact number of cover colorings (independent transversals)."""
    if cover.graph != g:
        raise CoverMismatch("cover belongs to a different graph")
    return count_from_edge_perms(g, cover.m, cover.edge_perms())


def _subset_components(g: Graph) -> list[int]:
    """Component count of every edge subset of g, indexed by mask: the
    cover-free pass of `subset_walk`, built once per graph (`Graph.plan`).

    The same include/exclude walk over an undoable union-find, with no
    permutations; the last edge of each branch is decided in place.
    """
    edges, last = g.edges, len(g.edges) - 1
    parent = list(range(g.n))
    size = [1] * g.n
    components = [g.n] * (1 << len(edges))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    def rec(i: int, mask: int, roots: int):
        ra, rb = root(edges[i][0]), root(edges[i][1])
        if i == last:
            components[mask] = roots
            components[mask | 1 << i] = roots - (ra != rb)
            return
        rec(i + 1, mask, roots)
        if ra == rb:
            rec(i + 1, mask | 1 << i, roots)
            return
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        rec(i + 1, mask | 1 << i, roots - 1)
        parent[rb] = rb
        size[ra] -= size[rb]

    if edges:
        rec(0, 0, g.n)
    return components


def subset_walk(cover: FullCover) -> tuple[list[int], list[int]]:
    """Component count and agreement count of every edge subset of a full
    cover, as two fresh lists indexed by mask (at most `SUBSET_EDGE_LIMIT`
    edges).

    A forest A needs no permutations: each of its c(A) components takes
    any color at one vertex, which fixes the rest along the tree, so it
    agrees on m^c(A) colorings whatever the twists.  The components come
    from `_subset_components`, once per graph, and every agreement starts
    as m^c(A).  Only subsets holding a cycle see the cover: one
    depth-first walk decides each edge in turn, excluded then included,
    over an undoable union-find (union by size and no path compression,
    so a merge is undone by resetting one parent).  A non-root vertex
    keeps the permutation carrying its parent's fiber to its own; a root
    keeps the bitmask of colors its component can take there, and the
    agreement count is the running product of those masks' sizes.  The
    walk enters a node only if its subtree holds a subset with a cycle,
    that is when its largest subset T (the edges included so far and
    every later edge) is not a forest, c(T) + |T| > n; including an edge
    keeps T, so only the excluding child is tested, and once a cycle has
    closed on the path every subset below is cyclic and none is.
    `component_count` and the test oracle `subset_agreement_count` each
    make a fresh forest pass per subset.
    """
    g, m = cover.graph, cover.m
    if len(g.edges) > SUBSET_EDGE_LIMIT:
        raise GraphTooLarge(f"{len(g.edges)} edges exceed SUBSET_EDGE_LIMIT = {SUBSET_EDGE_LIMIT}")
    table = g.plan(_subset_components)
    powers = [m**c for c in range(g.n + 1)]
    components, agreements = table[:], list(map(powers.__getitem__, table))
    n, edges, full = g.n, g.edges, len(table) - 1
    if table[full] + len(edges) == n:  # a forest: no subset has a cycle
        return components, agreements
    perms = cover.edge_perms()
    parent = list(range(n))
    size = [1] * n
    link: list[Perm] = [identity_perm(m)] * n
    allowed = [(1 << m) - 1] * n
    # spare[i]: the edges after edge i
    spare = [full >> (i + 1) << (i + 1) for i in range(len(edges))]

    def climb(v: int) -> tuple[int, Perm | None]:
        """v's root and the permutation carrying its fiber to v's (None for
        the identity)."""
        rho = None
        while parent[v] != v:
            rho = link[v] if rho is None else compose(rho, link[v])
            v = parent[v]
        return v, rho

    def rec(i: int, mask: int, product: int, cyclic: bool):
        if i == len(edges):
            agreements[mask] = product
            return
        below = mask | spare[i]  # the excluding child's T
        if cyclic or table[below] + below.bit_count() > n:
            rec(i + 1, mask, product, cyclic)
        mask |= 1 << i
        (ra, ta), (rb, tb) = climb(edges[i][0]), climb(edges[i][1])
        step = perms[i] if ta is None else compose(perms[i], ta)
        if ra == rb:  # the edge closes a cycle: keep the consistent colors
            old = allowed[ra]
            ok = sum(1 << j for j in range(m) if step[j] == (j if tb is None else tb[j]))
            allowed[ra] = old & ok
            if product:
                product = product // old.bit_count() * allowed[ra].bit_count()
            rec(i + 1, mask, product, True)
            allowed[ra] = old
            return
        # rb's fiber is `step` of ra's; hang the smaller tree below the other
        carry = step if tb is None else compose(invert_perm(tb), step)
        if size[ra] < size[rb]:
            ra, rb, carry = rb, ra, invert_perm(carry)
        old, hung = allowed[ra], allowed[rb]
        allowed[ra] = sum(1 << j for j in range(m) if old >> j & 1 and hung >> carry[j] & 1)
        if product:
            product = product // (old.bit_count() * hung.bit_count()) * allowed[ra].bit_count()
        parent[rb], link[rb] = ra, carry
        size[ra] += size[rb]
        rec(i + 1, mask, product, cyclic)
        parent[rb] = rb
        size[ra] -= size[rb]
        allowed[ra] = old

    rec(0, 0, m**n, False)
    return components, agreements


class TwistProfile(NamedTuple):
    """Per-path twist statistics of a cover of a generalized Theta graph.

    mismatch_counts[i] is the number of cross edges on the u-edge of path
    i+2 that land off the diagonal.  first_twisted is the smallest such
    path index (0 when the cover is canonical), equal_length_paths the
    number of paths sharing that path's length, and mismatch_mass the
    mismatch total over those paths.
    """

    mismatch_counts: tuple[int, ...]
    first_twisted: int
    equal_length_paths: int
    mismatch_mass: int


def twist_profile(cover: FullCover) -> TwistProfile:
    """Read off the twist statistics from a tree-canonical cover."""
    spec = cover.graph.theta
    if spec is None:
        raise AssumptionViolated("twist profiles need a generalized Theta graph")
    if any((l - spec.lengths[0]) % 2 == 0 for l in spec.lengths[1:]):
        raise AssumptionViolated(
            "profile requires the first path length to differ in parity from all others"
        )
    if not spec.sorted_for_analysis():
        raise AssumptionViolated("paths 2..k must be sorted with l_2 >= max(l_1, 2)")
    counts = []
    for i in range(2, spec.k + 1):
        sigma = cover.twists[i - 1]
        counts.append(sum(1 for j, v in enumerate(sigma) if v != j))
    mu = 0
    for i, x in enumerate(counts, start=2):
        if x > 0:
            mu = i
            break
    if mu == 0:
        return TwistProfile(tuple(counts), 0, 0, 0)
    target = spec.lengths[mu - 1]
    ties = sum(1 for l in spec.lengths if l == target)
    mass = sum(
        x for i, x in enumerate(counts, start=2) if spec.lengths[i - 1] == target
    )
    return TwistProfile(tuple(counts), mu, ties, mass)


class _PartitionSpecFields(NamedTuple):
    parts: tuple[frozenset[str], ...]


class PartitionSpec(_PartitionSpecFields):
    """Ordered partition of a star's vertices; part index = fiber shift."""

    __slots__ = ()

    def __new__(cls, parts: tuple[frozenset[str], ...]):
        if any(not p for p in parts):
            raise ValueError("parts must be nonempty")
        union: set[str] = set()
        for p in parts:
            if union & p:
                raise ValueError("parts must be disjoint")
            union |= p
        return super().__new__(cls, parts)

    @classmethod
    def of_string(cls, labels: Sequence[str], string: tuple[int, ...]) -> PartitionSpec:
        """The partition that puts labels[i] in part string[i]."""
        parts: list[list[str]] = [[] for _ in range(max(string, default=-1) + 1)]
        for label, r in zip(labels, string):
            parts[r].append(label)
        return cls(tuple(frozenset(p) for p in parts))

    @property
    def shift(self) -> dict[str, int]:
        return {v: r for r, part in enumerate(self.parts) for v in part}


def partitions_of(labels: Sequence[str]) -> list[PartitionSpec]:
    """All partitions in restricted-growth-string order (`_growth_strings`);
    labels[0] sits in part 0, and no labels have one partition with no parts."""
    k = len(labels)
    return [PartitionSpec.of_string(labels, s) for s in _growth_strings(k, k)]


def shift_cover(
    g: Graph, decomposition: StarDecomposition, partition: PartitionSpec, m: int
) -> FullCover:
    """Cyclic-shift cover attached to a star + forest decomposition.

    The star edge from the center to a leaf in part r carries the shift
    j -> j + r (mod m); every forest edge is an identity matching.  The
    result is renormalized onto the standard spanning tree.
    """
    if decomposition.graph != g:
        raise CoverMismatch("decomposition belongs to a different graph")
    shift = partition.shift
    if shift.keys() != set(decomposition.alphas):
        raise ValueError("partition must cover exactly the star's vertices")
    if decomposition.center not in partition.parts[0]:
        raise ValueError("the center must sit in part 0")
    if m < len(partition.parts):
        raise FoldTooSmall(f"fold {m} smaller than {len(partition.parts)} parts")
    center = g.index[decomposition.center]
    perms: dict[int, Perm] = {}
    for e in _bits(decomposition.star_edges):
        a, b = g.edges[e]
        leaf = g.vertices[b if a == center else a]
        r = shift[leaf]
        perm = tuple((j + r) % m for j in range(m))
        perms[e] = perm if a == center else invert_perm(perm)
    return FullCover.from_edge_perms(g, m, perms)


class MinimizationResult(NamedTuple):
    value: int
    cover: FullCover
    candidates: int


def dp_lower_bound(g: Graph, m: int) -> int:
    """A lower bound L(G, m) <= P_DP(G, m), exact when the feedback set S =
    `g.feedback_set` is one vertex:

      L(G, m) = P_DP(G[S], m) * min over canonical keys k of R(k, m),

    where R(k, m) is a row of the graph's counting plan, the count of the
    forest G - S when the edges from S block the colors of k, and k runs
    over the keys with at most m classes (`_FeedbackPlan.least_keys`).

    Proof of L <= P_DP: in any full cover, relabel the fibers so that each
    tree of G - S is the identity, as `_FeedbackPlan.count` does.  The
    cover's count is then a sum over its colorings of G[S], and each term
    is the row of that coloring's key, at least the least row.  The cover
    restricts to a cover of G[S], so there are at least P_DP(G[S], m)
    terms.  Any lower bound on P_DP(G[S], m) keeps the inequality: when
    the edges inside S form a forest it is its chromatic polynomial
    m^(components) (m - 1)^(edges), m for one vertex; otherwise L(G[S], m),
    recursively (removing all but two vertices of G[S] leaves a forest, so
    its feedback set is at least two smaller and the recursion ends).

    Proof of L = P_DP when S = {c}: every edge from c blocks one color of
    its other endpoint, so a key is a grouping of c's edges by the color
    they block.  Conditioning on c's color a, a full cover counts
    sum_a R(k_a, m) >= m * min R.  The cover whose forest edges are the
    identity and whose edges from c in the j-th class of a least key shift
    colors by j (mod m) blocks that key, relabeled, at every color of c,
    so it counts m * min R exactly.
    """
    if m < 1:
        raise OutOfRange("m must be positive")
    plan = g.plan(_FeedbackPlan)
    least = plan.least_keys(m)[0]
    size, inner = len(g.feedback_set), [(a, b) for a, b, _ in plan.inner]
    if not spanning_forest(size, inner)[1]:
        return least * m ** (size - len(inner)) * (m - 1) ** len(inner)
    core = Graph(tuple(g.vertices[v] for v in g.feedback_set), tuple(inner))
    return least * dp_lower_bound(core, m)


def min_over_covers(
    g: Graph,
    m: int,
    symmetry: str = "tree-canonical+conjugacy",
    budget: int = SEARCH_BUDGET,
    workers: int = 1,
) -> MinimizationResult:
    """Exhaustive minimum of the coloring count over full m-fold covers.

    symmetry levels, with `candidates` the size of the level's cover space:
      "none"                      (m!)^|E|: a permutation on every edge;
      "tree-canonical"            (m!)^c: a twist on each of c cotree edges;
      "tree-canonical+conjugacy"  p(m) (m!)^(c-1): the first twist is the
                                  least of its cycle type (p(m) types); the
                                  search counts one cover per orbit.
    The first two count every cover and are the oracles of the third.  All
    return the same minimum; the witness is the first attaining cover in
    enumeration order (see `_search_chunk`).  With `workers` above 1, the
    chunks (one per first twist) run in a pool of that many processes, at
    most one per chunk and per CPU.  At any worker count the third stops at
    its first count equal to `dp_lower_bound`, unless the bound's canonical
    keys outnumber its covers: chunk results are read in order, and a pool
    is left after the chunk that reaches the bound.
    """
    if m < 1:
        raise OutOfRange("m must be positive")
    if symmetry not in ("none", "tree-canonical", "tree-canonical+conjugacy"):
        raise ValueError(f"unknown symmetry level {symmetry!r}")
    # S_1 has one permutation, so at fold 1 no edge is free
    tree = g.standard_tree
    free_edges = [e for e in range(len(g.edges)) if m > 1 and (symmetry == "none" or e not in tree)]
    orderly = symmetry == "tree-canonical+conjugacy"
    over = max(budget, 10**_SHOWN_DIGITS) + 1  # no count past this is built
    candidates = 1
    if free_edges:
        fact = _factorial(m, over)
        candidates = _partition_count(m, over) if orderly else fact
        for _ in free_edges[1:]:
            candidates = min(candidates * fact, over)
    if candidates > budget:
        shown = candidates if candidates < over else f"more than 10^{_SHOWN_DIGITS}"
        raise SearchBudgetExceeded(f"search budget exceeded: {shown} covers exceed the budget of {budget}")
    chunks = [p for p, _ in _choices(m, orderly, None)] if free_edges else [None]
    plan = g.plan(_FeedbackPlan)
    stop = prune = None
    if orderly and _growth_string_count(len(plan.outer), m) <= candidates:
        stop = dp_lower_bound(g, m)
        if free_edges and len(plan.slots) == 1:
            prune = plan.least_key_table(m, free_edges)
    workers = min(workers, len(chunks), os.cpu_count() or 1) if workers > 1 else workers
    args = [(g, m, free_edges, chunk, orderly, stop, prune) for chunk in chunks]
    pool, results = nullcontext(), map(_search_chunk, args)
    if workers > 1:
        from multiprocessing import Pool

        pool = Pool(workers)
        results = pool.imap(_search_chunk, args)
    partials = []
    with pool:  # leaving a pool terminates the chunks it still runs
        for part in results:
            partials.append(part)
            if part is not None and part[0] == stop:
                break
    if prune is not None and (partials[-1] is None or partials[-1][0] != stop):
        raise AssumptionViolated(
            f"no cover at fold {m} counts dp_lower_bound = {stop}, exact with one feedback vertex"
        )
    # a chunk whose every assignment `prune` skips counted nothing (None)
    best_value, best_assignment = min(filter(None, partials), key=lambda part: part[0])
    perms = dict(zip(free_edges, best_assignment))
    witness = FullCover.from_edge_perms(g, m, perms)
    return MinimizationResult(best_value, witness, candidates)


def _choices(m: int, orderly: bool, group) -> Sequence[tuple[Perm, tuple | None]]:
    """Each twist a free edge takes, with the group H of the edge after:
    all of S_m below the conjugacy level, else one twist per orbit of
    `group`.  None stands for all of S_m, whose orbits are the cycle types;
    the H of a twist p there is its centraliser, built by the search only
    for a twist it keeps."""
    if orderly and group is not None:
        return _orbit_sweep(m, group)
    return [(p, None) for p in (cycle_type_representatives(m) if orderly else permutations(range(m)))]


def _search_chunk(args) -> tuple[int, tuple[Perm, ...]] | None:
    """Minimum over all assignments whose first free edge takes the
    chunk's twist `first` (None without free edges), each counted through
    the graph's counting plan; None when `prune` skips every assignment.

    When `orderly`, the search is orderly (McKay, J. Algorithms 1998): an
    edge skips a twist p when some tau commuting with every earlier twist
    gives tau p tau^-1 <lex p.  A lex sweep keeps the first twist of each
    such orbit, and its stabiliser is the group at the next edge; while
    that group is S_m the kept twists are `cycle_type_representatives(m)`
    (`_choices`).  Relabeling every fiber by tau keeps the tree edges and
    the earlier twists and conjugates the rest without changing the count,
    so a skipped cover has an equal count earlier in enumeration order.
    The first minimum is never skipped: value and witness are those of
    counting every cover.

    No count falls below `stop` when one is given (`dp_lower_bound`), so
    the first count equal to it is the chunk's first minimum, and the
    search ends there.

    `prune` (`_FeedbackPlan.least_key_table`) is given when S is one vertex
    c and `stop` = m * least row.  A cover then counts sum_a R(key_a) over
    the colors a of c, each term at least the least row, so it counts
    `stop` exactly when every key_a is a least key.  Once d free edges are
    placed, the columns of the keys fixed at depth d no longer change, so
    a twist after which some key_a restricted to them, canonically
    relabeled, is no least key's restriction has no cover below it that
    counts `stop`: the search skips it before it builds any group.  The
    first cover counting `stop` is never skipped, so value and witness are
    again those of counting every cover.
    """
    g, m, free_edges, first, orderly, stop, prune = args
    plan = g.plan(_FeedbackPlan)
    ident = identity_perm(m)
    perms: list[Perm] = [ident] * len(g.edges)
    best: tuple[int, tuple[Perm, ...]] | None = None

    def extends(level) -> bool:
        """Whether every key's fixed columns are a least key's."""
        columns, restrictions = level
        blocks = plan.blocks(perms, ident)[0]
        keys = zip(*[blocks[j] for j in columns])
        return all(_canonical(key) in restrictions for key in keys)

    def rec(i: int, choices) -> bool:
        """Search the edges from i on, edge i taking `choices`; True once a
        count reaches `stop`."""
        nonlocal best
        if i == len(free_edges):
            value = plan.count(perms, m)
            if best is None or value < best[0]:
                best = (value, tuple(perms[e] for e in free_edges))
            return value == stop
        level, deeper = prune and prune[i + 1], i + 1 < len(free_edges)
        for p, group in choices:
            perms[free_edges[i]] = p
            if level is not None and not extends(level):
                continue
            if orderly and group is None and deeper and p != ident:
                group = _centralizer(p)
            if rec(i + 1, _choices(m, orderly, group) if deeper else ()):
                return True
        return False

    rec(0, [(first, None)])
    return best


def cover_to_json(cover: FullCover) -> dict:
    """Stable JSON form: fold, tree edges, and 1-based twist image arrays."""
    g = cover.graph
    return {
        "m": cover.m,
        "tree_edges": [list(g.edge_labels(i)) for i in sorted(g.standard_tree)],
        "twists": [
            {
                "edge": list(g.edge_labels(i)),
                "perm": [v + 1 for v in cover.twists[i]],
            }
            for i in sorted(cover.twists)
        ],
    }
