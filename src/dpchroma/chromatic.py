"""Exact chromatic polynomials and coloring counts.

Every chromatic polynomial, precolored or not, comes from one transfer
over the vertices in a frontier-greedy order (the transfer-matrix method
of Biggs, Damerell and Sands, JCTB 1972; Salas and Sokal, J. Stat. Phys.
2001): each next vertex is the one that leaves the fewest vertices
active.  The order and its per-step table are built once
per graph and shared by every transfer on it.  Its states are the
partitions of the active vertices by equal color, so its cost follows the
width of that order, not the number of cycles.  What a state becomes at a
step depends on a few small tuples and not on the graph, so those moves
are worked out once per process, in a bounded table that every transfer
reads (`_moves`).  A whole transfer depends only on the walk's shape and
on the pattern of fixed colors along it, so each distinct one runs once
per process, in a second bounded table (`_transfers`).  A
state's weight, a polynomial in m, is held as one integer, its value at
m = 2^B (Kronecker substitution), with B proven from the step table to
hold every coefficient, so each move is a shift and a small product and
each merge one addition.
Generalized Theta graphs additionally get the classical closed form,
which the rest of the package cross-checks against the transfer; the
edge-deleted forms and the edge-pair surgery family read it.  These forms
are pure functions of the path lengths, so each is built once per
argument and kept for the process (`functools.cache`).
"""

from __future__ import annotations

import sys
from functools import cache, lru_cache
from heapq import heappop, heappush
from typing import Mapping, NamedTuple

from .covers import count_from_edge_perms, identity_perm
from .errors import BadPathIndex, SearchBudgetExceeded
from .graphs import Graph, ThetaSpec, build_generalized_theta
from .poly import M, IntPoly, forest_polynomial, pack, power_m1, prod, sign, unpack

#: Coefficient updates one transfer may make: each state update costs the
#: coefficient count of its weight, so this bounds wide graphs and long
#: ones alike.
CHROMATIC_WORK_LIMIT = 20_000_000


def chromatic_polynomial(g: Graph) -> IntPoly:
    """Exact chromatic polynomial by the color-pattern transfer.

    Raises `SearchBudgetExceeded` past `CHROMATIC_WORK_LIMIT` updates.
    """
    return _transfer(g, {})


#: A walk's shape: per step, the positions of the entering vertex's
#: neighbors among the active vertices, the positions of the active
#: vertices that stay, and whether the entering vertex stays.
Shape = tuple[tuple[tuple[int, ...], tuple[int, ...], bool], ...]


def _walk(g: Graph) -> tuple[Shape, list[int]]:
    """The transfer's walk over g, which no coloring constraint changes:
    its shape and the vertex that enters at each step, all that a transfer
    reads of g.  Built once per graph (`Graph.plan`).

    The order takes each component from a least-degree vertex, then always
    the frontier vertex (unentered, with an entered neighbor) that leaves
    the fewest vertices active once it enters: +1 if it has an unentered
    neighbor, -1 per entered neighbor it is the last to reach.  Ties go to
    the most entered neighbors, then to the fewest unentered ones, then to
    the lower index.  That last term is kept as the walk goes:
    `retired[x]` counts the entered neighbors whose one unentered neighbor
    is x, and it rises when a vertex enters with one unentered neighbor or
    an entered vertex falls to one, so a score costs O(1).  The frontier
    is a binary heap of score tuples: x's tuple is pushed each time its
    score changes and kept as x's live tuple, and an entry is stale once
    x has entered or it is not x's live tuple.  A score only falls and
    ends in the vertex index, so the least entry that is not stale is the
    frontier's `min`, and the walk costs O((n + |E|) log n): it needs no
    budget of its own, and `CHROMATIC_WORK_LIMIT` meters the transfer
    alone.  A vertex is active from its entry until its last neighbor
    enters, so once v enters, an active vertex stays exactly when it still
    has an unentered neighbor.  Each step records the positions of v's
    neighbors among the active vertices (marked by step in `seen`) and
    those of the active vertices that stay, both as tuples, so that they
    key `_moves`, and whether v stays."""
    adj = g.adjacency
    degree = [len(a) for a in adj]
    left = degree.copy()  # unentered neighbors
    retired = [0] * g.n
    roots = iter(sorted(range(g.n), key=left.__getitem__))
    entered = [False] * g.n
    live: list[tuple[int, int, int, int] | None] = [None] * g.n  # x's last pushed tuple
    seen = [-1] * g.n  # seen[u] == i: u is a neighbor of the vertex entering at step i
    heap: list[tuple[int, int, int, int]] = []
    active: list[int] = []
    order, shape = [], []
    for i in range(g.n):
        while heap and (entered[heap[0][3]] or heap[0] is not live[heap[0][3]]):
            heappop(heap)
        v = heappop(heap)[3] if heap else next(r for r in roots if not entered[r])
        entered[v] = True
        order.append(v)
        lone = left[v] == 1  # v retires its one unentered neighbor
        for u in adj[v]:
            seen[u] = i
            left[u] -= 1
            x = u
            if not entered[u]:
                retired[u] += lone
            elif left[u] == 1:  # u retires its one unentered neighbor x
                for x in adj[u]:
                    if not entered[x]:
                        break
                retired[x] += 1
            else:
                continue
            t = live[x] = (left[x] > 0) - retired[x], left[x] - degree[x], left[x], x
            heappush(heap, t)
        # plain loops: a comprehension costs a frame of its own before 3.12
        near, keep, kept = [], [], []
        for k, u in enumerate(active):
            if seen[u] == i:
                near.append(k)
            if left[u]:
                keep.append(k)
                kept.append(u)
        stays = left[v] > 0
        if stays:
            kept.append(v)
        active = kept
        shape.append((tuple(near), tuple(keep), stays))
    return tuple(shape), order


def _transfer(g: Graph, named: Mapping[int, int]) -> IntPoly:
    """Colorings of g that put each vertex v of `named` on fixed color
    named[v], the s fixed colors numbered 0..s-1, as a polynomial in m:
    the count at every m at which the fixed colors are colors.

    The count is `_transfers` of the walk's shape (`_walk`), s and the
    color pattern: for each vertex that `named` holds, in walk order, its
    step and its color, the colors renamed 0, 1, ... in order of first
    use.  Equal graphs, or graphs whose walks have the same shape, and
    precolorings that differ by a renaming of colors share one transfer.
    A run past `CHROMATIC_WORK_LIMIT` raises and leaves no entry.
    """
    shape, order = g.plan(_walk)
    s = 0  # 1 + the largest color named
    rename: dict[int, int] = {}  # the fixed colors in order of first use
    pattern = []
    for i, v in enumerate(order) if named else ():  # no pass for no colors
        fixed = named.get(v)
        if fixed is not None:
            if fixed >= s:
                s = fixed + 1
            pattern.append((i, rename.setdefault(fixed, len(rename))))
    return _transfers(shape, s, tuple(pattern))


#: Entries `_transfers` keeps, least recently used out first.  An entry
#: holds its key, the walk's shape among it.  `verify --suite all` asks
#: for 1,904 transfers over 623 keys; kept whole, its table ends at 636
#: KiB (tracemalloc), about 2.5% of the 25 MB at which perfbench's
#: verify-all peaks.  At this bound the run still makes one transfer per
#: key and ends at 417 KiB, and `theta-identity` alone makes 324 for its
#: 840 rows; at 256 entries the run makes 647, and `theta-identity` 333.
_TRANSFER_TABLE_SIZE = 512


@lru_cache(maxsize=_TRANSFER_TABLE_SIZE)
def _transfers(
    shape: Shape,
    s: int,
    pattern: tuple[tuple[int, int], ...],
) -> IntPoly:
    """The transfer behind `_transfer`, on a walk of the given shape with
    s fixed colors and (step, fixed color) pattern: its polynomial, its
    coefficient updates metered against `CHROMATIC_WORK_LIMIT`.

    A state gives each active vertex the label of its color block, and its
    weight counts the colorings of the entered vertices that induce it.
    Each state's moves at a step come from `_moves`; a move either passes
    the weight on or multiplies it by m - b.  Equal states merge.

    The table is sound: two calls whose graphs have walks of one shape,
    and whose fixed colors agree step by step up to a permutation p of the
    s fixed colors, do the same arithmetic step for step.  The transfer
    reads a graph only through its walk's shape (n is its length) and a
    vertex only through its fixed color.
    `_moves` reads a label below s only through whether it is in `taken`
    or is `fixed`, and renumbers the free blocks among themselves, so
    under p the moves of a state are p's images of its moves, with the
    same factors.  By induction over the steps the states of one call are
    p's images of the other's with the same weights: the same widths, the
    same meter reading after every step (the meter sums over the states,
    so their order does not count, and a refusal names only the step and
    the state count), and the same weight on the empty state at the end,
    which p fixes.  The one renaming to first-use order therefore keys
    every precoloring by its class.

    A weight is one int, its polynomial at m = 2^B, B = 8 * `width`
    (Kronecker substitution): m - b times w is (w << B) - b * w, a merge
    is one addition, and `unpack` reads the answer back.  B rests on a
    bound proven from the step table.  Read each m - b as m + b: the
    coefficients so read bound a weight's own in absolute value, and
    their sum over all states grows at a step by at most what one state's
    moves multiply it by.  That is 1 for a fixed v (one move, passed on);
    1 + |near| for v that retires on entry (one move, m - |taken|); and
    2(s + a) + 1, less 1 if v has an active neighbor, for v that stays (a
    join per block its neighbors leave free, and m - b with b <= s + a,
    for a active vertices before the step).  So every coefficient of every weight after a step is at most
    P, the product of the factors so far.  While P < 2^(B - 2), a weight
    with d + 1 coefficients, the leading one positive (it counts
    colorings), lies in [2^(Bd - 1), 2^(B(d + 1) - 1)), so
    `w.bit_length() // B + 1` is its coefficient count, which
    `CHROMATIC_WORK_LIMIT` meters.  When P outgrows B, every weight is
    repacked a quarter wider than P needs, so that a long walk (a path, a
    broom) is not priced at its last step's width from its first.  The
    width starts at one digit of CPython's int
    (`sys.int_info.sizeof_digit` bytes), which small transfers do not
    outgrow.
    """
    colors = dict(pattern)
    width, bound, active = sys.int_info.sizeof_digit, 1, 0
    states: dict[tuple[int, ...], int] = {(): 1}
    work = 0
    for i, (near, keep, stays) in enumerate(shape):
        fixed = colors.get(i)
        if fixed is None:
            bound *= 2 * (s + active) + (not near) if stays else 1 + len(near)
        active = len(keep) + stays
        need = bound.bit_length() + 2
        if need > 8 * width:
            wider = (need + need // 4) // 8 + 1
            states = {key: pack(unpack(w, width), wider) for key, w in states.items()}
            width = wider
        bits = 8 * width
        merged: dict[tuple[int, ...], int] = {}
        for labels, w in states.items():
            moves = _moves(labels, near, keep, stays, fixed, s)
            work += (w.bit_length() // bits + 1) * len(moves)
            if work > CHROMATIC_WORK_LIMIT:
                raise SearchBudgetExceeded(
                    f"the chromatic transfer passed CHROMATIC_WORK_LIMIT = "
                    f"{CHROMATIC_WORK_LIMIT:,} coefficient updates at vertex "
                    f"{i + 1} of {len(shape)} ({len(states):,} states)"
                )
            for key, b in moves:
                x = w if b is None else (w << bits) - (w if b == 1 else b * w)
                old = merged.get(key)
                merged[key] = x if old is None else old + x
        states = merged
    return unpack(states.get((), 0), width)


#: Entries `_moves` keeps, least recently used out first.  Narrow graphs
#: meet few distinct moves and meet them again and again: `verify --suite
#: all` 252 over 8,870 lookups, its `theta-identity` suite 26 over 6,921.
#: A wide graph meets many that rarely recur: the 8x8 grid 33,272 over
#: 57,467, which kept whole cost 19 MB of peak memory (27 -> 46 MB for
#: `chrom`, in process) for no gain in time.  At this bound that grid
#: keeps its time; at 1,024 it peaks at 24 MB, but with a fifth of the
#: hits (3,601 against 19,236) it takes 0.57 s against 0.47 s.
_MOVE_TABLE_SIZE = 4096


@lru_cache(maxsize=_MOVE_TABLE_SIZE)
def _moves(
    labels: tuple[int, ...],
    near: tuple[int, ...],
    keep: tuple[int, ...],
    stays: bool,
    fixed: int | None,
    s: int,
) -> tuple[tuple[tuple[int, ...], int | None], ...]:
    """The moves of one state as a vertex v enters: pairs (key, b), the
    key the state becomes and b None when its weight passes on unchanged,
    or the weight times m - b.

    Labels below s are the s fixed colors, and the others are numbered
    from s in order of first appearance, so equal partitions are equal
    tuples.  With b blocks (the s fixed ones included), v joins a block
    that holds none of its neighbors (the active vertices at `near`), or
    takes one of the m - b new colors; v fixed to a color may only join
    its own block.
    The key keeps the labels at `keep`, their free blocks renumbered, and
    v's own block when v `stays`.  A pure function of its arguments, so
    it is kept in a process-wide table (`_MOVE_TABLE_SIZE`)."""
    b = max(s, max(labels, default=-1) + 1)
    taken = {labels[k] for k in near}
    free: dict[int, int] = {}  # the kept free blocks, renumbered in order
    kept = tuple(
        a if a < s else free.setdefault(a, s + len(free)) for a in map(labels.__getitem__, keep)
    )
    fresh = s + len(free)
    if fixed is not None:
        return () if fixed in taken else ((kept + (fixed,) * stays, None),)
    if not stays:  # retiring on entry, v leaves one state for all m - |taken| colors
        return ((kept, len(taken)),)
    # a free block v may join holds a vertex that is not v's neighbor, so stays
    joins = tuple((kept + (c if c < s else free[c],), None) for c in range(b) if c not in taken)
    return joins + ((kept + (fresh,), b),)


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
    lengths: products of the `_path_walks` pairs."""
    differ, same = (prod(x) for x in zip(*map(_path_walks, lengths)))
    return forest_polynomial(1, 1) * differ + M * same


@cache
def _path_walks(length: int) -> tuple[IntPoly, IntPoly]:
    """(b_l, b_l + (-1)^l) of `theta_closed_form` for l = length.  The power
    of m - 1 is a `forest_polynomial` (a binomial expansion), not a chain of
    products, and the division by m is exact."""
    walks = (power_m1(length) - sign(length)).exact_div(M)
    return walks, walks + sign(length)


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


class _PrecoloringFields(NamedTuple):
    assignment: Mapping[str, int]
    bound: int


class Precoloring(_PrecoloringFields):
    """Fixed colors on a subset of vertices.

    Colors are 1-based and bounded by `bound`, which must be at least the
    number of vertices of the graph the precoloring is applied to.
    """

    __slots__ = ()

    def __new__(cls, assignment: Mapping[str, int], bound: int):
        for v, c in assignment.items():
            if not 1 <= c <= bound:
                raise ValueError(f"color {c} for {v!r} outside 1..{bound}")
        return super().__new__(cls, assignment, bound)


def _check_precoloring(g: Graph, pc: Precoloring):
    for v in pc.assignment:
        if v not in g.index:
            raise ValueError(f"precolored vertex {v!r} not in graph")
    if pc.bound < g.n:
        raise ValueError("precoloring bound smaller than the vertex count")


def precolored_count(g: Graph, pc: Precoloring, m: int) -> int:
    """Number of proper m-colorings of g agreeing with the precoloring.

    A proper coloring is a transversal of the identity cover, so this is
    the cover counter with each precolored vertex fixed to its color: the
    precolored vertices join the feedback set as the slots of the graph's
    counting plan, and the count reads its row table.
    """
    if m < 1:
        raise ValueError("m must be positive")
    _check_precoloring(g, pc)
    if any(c > m for c in pc.assignment.values()):
        return 0
    fixed = {g.index[v]: c - 1 for v, c in pc.assignment.items()}
    return count_from_edge_perms(g, m, [identity_perm(m)] * len(g.edges), fixed)


def precolored_polynomial(g: Graph, pc: Precoloring) -> IntPoly:
    """Polynomial p with p(m) = precolored_count(g, pc, m) for m >= bound.

    The transfer of `chromatic_polynomial` with the distinct precolors as
    fixed blocks, each precolored vertex forced into its own; a
    conflicting precoloring leaves no state, so its polynomial is zero.
    """
    _check_precoloring(g, pc)
    colors = sorted(set(pc.assignment.values()))
    return _transfer(g, {g.index[v]: colors.index(c) for v, c in pc.assignment.items()})
