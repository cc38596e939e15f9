"""Formula-level results: the Theta DP color function by parity case, the
five-term cover bound and its difference identities, the parity
classification of generalized Theta graphs, the feedback-vertex-one
polynomial with its shift-cover witness, and the exhaustive subset audits
backing the counting machinery.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import itemgetter
from typing import NamedTuple

from .chromatic import (
    chromatic_polynomial,
    theta_chromatic,
    theta_closed_form,
    theta_edge_deleted_chromatic,
    theta_edge_pair_polynomials,
)
from .covers import (
    FullCover,
    PartitionSpec,
    _forest,
    _growth_strings,
    count_colorings,
    shift_cover,
    subset_walk,
    twist_profile,
)
from .errors import (
    InexactDivision,
    OutOfRange,
    OutOfScope,
    SearchBudgetExceeded,
)
from .graphs import (
    FeedbackVertex,
    Graph,
    StarDecomposition,
    ThetaSpec,
    find_feedback_vertex,
    star_forest_decomposition,
)
from .poly import M, IntPoly, forest_polynomial, pack, positive_from, power_m1, sign, unpack


def _parity_case(l1: int, l2: int, l3: int) -> int:
    """1: l1 differs from both; 2: matches l2 only; 3: matches l3 only; 4: all same."""
    same2 = (l1 - l2) % 2 == 0
    same3 = (l1 - l3) % 2 == 0
    if not same2 and not same3:
        return 1
    if same2 and not same3:
        return 2
    if not same2 and same3:
        return 3
    return 4


class ThetaDpFormula(NamedTuple):
    """Closed form for the DP color function of Theta(l1, l2, l3).

    The polynomial is exact for every m >= valid_from; below that the graph
    contains a cycle no 1- or 2-fold cover can color, so the value is 0.
    """

    lengths: tuple[int, int, int]
    case: int
    polynomial: IntPoly
    valid_from: int

    def value_at(self, m: int) -> int:
        if m < 1:
            raise OutOfRange("m must be positive")
        return 0 if m < self.valid_from else self.polynomial(m)


def theta_dp_formula(l1: int, l2: int, l3: int) -> ThetaDpFormula:
    """Dispatch on the parity pattern of the three path lengths."""
    if l1 < 2:
        raise OutOfScope("paths of length 1 belong to a different closed form")
    if not l1 <= l2 <= l3:
        raise ValueError("need l1 <= l2 <= l3")
    total = l1 + l2 + l3
    case = _parity_case(l1, l2, l3)
    if case == 1:
        return ThetaDpFormula((l1, l2, l3), 1, theta_closed_form((l1, l2, l3)), 1)
    a = power_m1
    if case in (2, 3):  # l1 shares its parity with `same` only
        same, other = (l2, l3) if case == 2 else (l3, l2)
        bracket = a(total) + a(l1) - a(same + 1) - a(other) + sign(other + 1) * (M - 2)
        return ThetaDpFormula((l1, l2, l3), case, bracket.exact_div(M), 2)
    bracket = a(total) - a(l1) - a(l2) - a(l3) + 2 * sign(total)
    return ThetaDpFormula((l1, l2, l3), 4, bracket.exact_div(M), 3)


#: Which loss term is maximal in each parity case (0-based index).
CASE_TO_TERM = {1: 0, 2: 1, 3: 3, 4: 4}


def _exact(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise InexactDivision(f"{n} not divisible by {d}")
    return q


class CoverLossTerms(NamedTuple):
    """The five candidate coloring-loss terms at a given fold m.

    Each term counts, for one family of twisted covers, the colorings of
    the doubly edge-deleted graph that the cover destroys; the DP color
    function is P(G0, m) minus the largest of them.
    """

    lengths: tuple[int, int, int]
    m: int
    terms: tuple[int, int, int, int, int]
    bound: int

    @property
    def best_indices(self) -> tuple[int, ...]:
        top = max(self.terms)
        return tuple(i for i, t in enumerate(self.terms) if t == top)


def cover_loss_terms(l1: int, l2: int, l3: int, m: int) -> CoverLossTerms:
    """Evaluate the five loss terms exactly; every division must be exact."""
    if m < 3:
        raise OutOfRange("loss terms are defined for m >= 3")
    p, p0, p1, p2, pstar = (f(m) for f in theta_edge_pair_polynomials(l1, l2, l3))
    t1 = p0 - p
    t2 = p0 - p2 + _exact(p, m - 1)
    t3 = p0 - p1 + _exact(p, m - 1)
    t4 = _exact(p1 + p2 + pstar - p, m - 1)
    t5 = _exact(p1 + p2 - _exact(pstar, m - 2), m - 1)
    terms = (t1, t2, t3, t4, t5)
    return CoverLossTerms((l1, l2, l3), m, terms, p0 - max(terms))


class TermDifference(NamedTuple):
    """One pairwise difference, computed both ways, with its predicted sign."""

    pair: tuple[int, int]  # 1-based indices (i, j) for terms[i] - terms[j]
    direct: int
    closed_form: int
    predicted: str  # ">=" or "<=" (relation of terms[i] to terms[j])
    agrees: bool
    sign_ok: bool


class ChainCheck(NamedTuple):
    """A numeric milestone from one of the spelled-out inequality chains."""

    pair: tuple[int, int]
    condition: str
    direction: str
    milestone: int
    value: int
    ok: bool


class LossTermReport(NamedTuple):
    lengths: tuple[int, int, int]
    m: int
    terms: CoverLossTerms
    differences: tuple[TermDifference, ...]
    chains: tuple[ChainCheck, ...]

    @property
    def ok(self) -> bool:
        return all(d.agrees and d.sign_ok for d in self.differences) and all(
            c.ok for c in self.chains
        )


def loss_term_differences(l1: int, l2: int, l3: int, m: int) -> LossTermReport:
    """Check the seven closed-form difference identities and their signs.

    Each difference is computed once by subtracting evaluated loss terms
    and once from its closed form; the two must agree exactly, and the
    sign must follow the parity rule.  The three differences whose sign
    needs more than inspection also get their milestone bounds checked.
    """
    terms = cover_loss_terms(l1, l2, l3, m)
    t = terms.terms
    a = m - 1
    total = l1 + l2 + l3
    closed = {
        (2, 3): sign(l2 + l3) * a**l1 + sign(l1 + l3 + 1) * a**l2,
        (5, 4): sign(l1 + l2) * a**l3 + sign(total + 1),
        (2, 1): sign(l2 + l3) * a**l1 + sign(l1 + l2) * a**l3 + sign(total) * (m - 2),
        (3, 1): sign(l1 + l3) * a**l2 + sign(l1 + l2) * a**l3 + sign(total) * (m - 2),
        (4, 1): sign(l2 + l3) * a**l1 + sign(l1 + l3) * a**l2 + sign(total) * (m - 2),
        (5, 2): sign(l1 + l3) * a**l2 + sign(total + 1),
        (5, 3): sign(l2 + l3) * a**l1 + sign(total + 1),
    }
    ge_when = {
        (2, 3): (l1 + l3) % 2 == 1,
        (5, 4): (l1 + l2) % 2 == 0,
        (2, 1): (l1 + l2) % 2 == 0,
        (3, 1): (l1 + l2) % 2 == 0,
        (4, 1): (l1 + l3) % 2 == 0,
        (5, 2): (l1 + l3) % 2 == 0,
        (5, 3): (l2 + l3) % 2 == 0,
    }
    differences = []
    for pair in ((2, 3), (5, 4), (2, 1), (3, 1), (4, 1), (5, 2), (5, 3)):
        i, j = pair
        direct = t[i - 1] - t[j - 1]
        predicted = ">=" if ge_when[pair] else "<="
        sign_ok = direct >= 0 if ge_when[pair] else direct <= 0
        differences.append(
            TermDifference(
                pair, direct, closed[pair], predicted, direct == closed[pair], sign_ok
            )
        )

    all_same = (l1 - l2) % 2 == 0 and (l1 - l3) % 2 == 0
    plateau = m * (m - 2) ** 2
    ridge = 2 * m * m - 5 * m + 4
    chains = []

    def chain(pair, condition, direction, milestone):
        value = t[pair[0] - 1] - t[pair[1] - 1]
        ok = value >= milestone if direction == ">=" else value <= milestone
        chains.append(ChainCheck(pair, condition, direction, milestone, value, ok))

    if (l1 + l2) % 2 == 0:
        if all_same:
            chain((2, 1), "all lengths share a parity", ">=", ridge)
            chain((3, 1), "all lengths share a parity", ">=", ridge)
        else:
            chain((2, 1), "l1+l2 even, parities mixed", ">=", plateau)
            chain((3, 1), "l1+l2 even, parities mixed", ">=", plateau)
    else:
        chain((2, 1), "l1+l2 odd", "<=", -plateau)
        if (l1 + l3) % 2 == 0:
            chain((3, 1), "l1+l2 odd, l1+l3 even", "<=", -plateau)
        else:
            chain((3, 1), "l1+l2 odd, l1+l3 odd", "<=", -ridge)
    if (l1 + l3) % 2 == 0:
        if all_same:
            # The published chain keeps (m-1)^3 here, which needs odd
            # lengths; for all-even lengths the exact floor is the one
            # attained at l1 = l2 = 2.
            milestone = (
                m * (m - 1) ** 2 - (m - 2)
                if l1 % 2
                else 2 * (m - 1) ** 2 + (m - 2)
            )
            chain((4, 1), "all lengths share a parity", ">=", milestone)
        else:
            chain((4, 1), "l1+l3 even, parities mixed", ">=", plateau)
    else:
        if (l2 + l3) % 2 == 0:
            chain((4, 1), "l1+l3 odd, l2+l3 even", "<=", -plateau)
        else:
            chain((4, 1), "l1+l3 odd, l2+l3 odd", "<=", -ridge)

    return LossTermReport(
        (l1, l2, l3), m, terms, tuple(differences), tuple(chains)
    )


def _deletion_margin(whole: IntPoly, deleted: IntPoly) -> IntPoly:
    """The edge-deletion margin m P(G, m) - (m-1) P(G-e, m), from P(G) and
    P(G-e): where it is positive, deleting e certifies a DP coloring
    deficit, P_DP(G, m) < P(G, m) (Kaul and Mudrock, arXiv:1904.07697)."""
    return M * whole - (M - 1) * deleted


def edge_deletion_gap(g: Graph, x: str, y: str, m: int) -> tuple[bool, int]:
    """Whether deleting the edge xy certifies a DP coloring deficit at m.

    Returns (holds, margin) with margin the `_deletion_margin` of xy at m;
    holds means margin > 0.
    """
    if m < 2:
        raise OutOfRange("the test is defined for m >= 2")
    e = g.edge_index(x, y)
    whole = chromatic_polynomial(g)
    deleted = chromatic_polynomial(g.without_edges([e]))
    margin = _deletion_margin(whole, deleted)(m)
    return margin > 0, margin


class ParityClassification(NamedTuple):
    """Eventual relation of the DP color function to the chromatic polynomial."""

    spec: ThetaSpec
    kind: str  # "eventually-equal" | "eventually-less"
    witness_path: int | None
    empirical_bound: int | None


def classify_generalized(spec: ThetaSpec) -> ParityClassification:
    """Parity classification of a generalized Theta graph.

    If some path j >= 2 shares the parity of path 1, the DP color function
    eventually drops below the chromatic polynomial.  The first such j is
    the witness, and the bound is the first fold m >= 2 at which the
    `_deletion_margin` of path j's u-edge is positive.  It exists: with
    s_i = (-1)^(l_i) and b_i = ((m-1)^(l_i) - s_i)/m, the Theta closed form
    and P(G - e) = P(Theta without path j) (m-1)^(l_j - 1) give the margin
    m(m-1) s_j (prod_{i != j} (b_i + s_i) - prod_{i != j} b_i).  As b_i
    leads with m^(l_i - 1), the difference leads with the terms that trade
    one shortest b_i for s_i.  Path 1 is a shortest path other than j, and
    only it may have length 1, so these are the paths i != j of length l_1,
    each with s_i = s_1 = s_j: the leading coefficient counts them, so the
    scan ends, at `positive_from(margin)` on every spec with k = 3..5 and
    lengths <= 9 (a test), where the margin stays positive from it on.
    """
    if not spec.sorted_for_analysis():
        raise OutOfScope("lengths must satisfy l2 <= ... <= lk and l2 >= max(l1, 2)")
    witness = None
    for j in range(2, spec.k + 1):
        if (spec.lengths[j - 1] - spec.lengths[0]) % 2 == 0:
            witness = j
            break
    if witness is None:
        return ParityClassification(spec, "eventually-equal", None, None)
    margin = _deletion_margin(
        theta_chromatic(spec), theta_edge_deleted_chromatic(spec, witness)
    )
    bound = next(m for m in count(2) if margin(m) > 0)
    return ParityClassification(spec, "eventually-less", witness, bound)


class _LeafCounts:
    """The avoidance counts of one decomposition's leaf groupings: the
    colorings of d.forest in which leaf d.alphas[i + 1] avoids color
    grouping[i], from one tree DP, with its coefficient updates metered.

    Only the Steiner forest S, the least subforest of d.forest that joins
    the star leaves of each tree holding two or more, is counted per
    grouping.  Every other forest vertex is a star leaf alone in its tree,
    which avoids one color, or has one neighbor nearer S or that leaf, so
    it multiplies the count by m - 1, or starts a tree with no star leaf
    (the isolated center among them), and multiplies it by m: one factor
    m^a (m - 1)^t for all groupings, with a such trees and t = n - a - |S|.
    One `_forest` descent, the star leaves tried first as roots, roots
    each tree holding one at its least star leaf, so that a path of S
    between two star leaves multiplies no two children's polynomials.  So
    S is the vertices with a star leaf below them in a tree holding two or
    more, and the descent gives S's children and a parent-first order.

    A vertex v of S has one entry per class that the star leaves of its
    subtree name, in order of first use along `positions` (v first, then
    its children's leaves), and one for every other color: the colorings
    of its subtree with v on that color.  The other entry stands for m - b
    colors, b the classes named, so the subtree's total is the named
    entries plus m - b times the other.  A child u turns each entry into
    its product with u's total less u's entry for that color, and v has no
    coloring on its own class.  So v's value is fixed by its leaves'
    classes renamed in order of first use, its key.

    A run is a vertex of S, its first, and the path above it of vertices
    that are no star leaf and have one child in S, its climbs.  A climb
    has its child's key and maps its child's entries x, with total T, to
    T - x, and T to (m - 1)T.  So a run is made from its first vertex up
    whenever its key changes, each climb dropping the entries below it,
    and only its last vertex keeps a value: with l star leaves, S has at
    most l - 1 vertices of two children or more, so at most 2l - 1 values
    are kept, each at most l + 2 polynomials of degree |S| or less.  The
    run up from a star leaf alone is made once, in closed form: its j
    climbs are (A - I)^j on x = (0, 1) and T = m - 1, with A = 1 w^T of
    rank one, w the entries' weights; since A^2 = mA, that gives
    (-1)^j x + D_j T, D_j = ((m - 1)^j - (-1)^j) / m, and (m - 1)^(j + 1).

    Values are ints, polynomials at m = 2^B, B = 8 * `width`.  Ring
    operations are exact on them whatever their coefficients, and only
    the product of S's totals, the Steiner count, is read back (`unpack`).
    By inclusion-exclusion over its N constraints (an edge of S joining
    equal colors, a star leaf on its class's color), that count is a signed
    sum of 2^N terms, each 0 or a power of m, so no coefficient exceeds 2^N
    in absolute value, and B >= N + 2 holds them.  So two Steiner counts
    are equal exactly when their packed values are; and, both monic of
    degree |S|, they order as their packed values do, since the lower
    digits of their difference sum to less than its top digit's place.

    The meter charges every grouping what a cold count of it vertex by
    vertex costs: at each vertex of S, b + 1 entries updated once per
    child and once into the total, each at the vertex's |subtree| + 1
    coefficients, and b + 1 products of two children's polynomials at the
    product of their coefficient counts; the shared factor's a + t linear
    factors multiplied in one at a time, each at the coefficient count of
    its product; and the product of S's totals, one tree at a time, at
    |S| + 1 coefficients in 64-bit words each.  The last two, summed once
    in `fixed`, grow with the star's width: uncharged, with each lone star
    leaf a tree of S, K_{1,1000} and a windmill of 2,000 triangles ran
    past 130 s.  A run made per grouping works on packed values of up to
    (|subtree| + 1)B bits, so its updates are charged in 64-bit words,
    times B / 64 rounded up; a run made once, in closed form, is charged
    its coefficient updates alone.  A reused run is charged what it cost
    to make.  All of one call's groupings may charge `FVS1_WORK_LIMIT`
    together, checked before each run is made.
    """

    def __init__(self, d: StarDecomposition):
        f = d.forest
        self.decomposition = d
        self.leaf = leaf = [-1] * f.n  # v's place in a grouping, -1 off the star
        for i, x in enumerate(d.alphas[1:]):
            leaf[f.index[x]] = i
        # each tree holding a star leaf rooted at its least one
        roots, descent = _forest(f, range(len(f.edges)), [v for v in range(f.n) if leaf[v] >= 0])
        below = [int(i >= 0) for i in leaf]  # star leaves in v's subtree
        for v, p, _, _ in reversed(descent):
            below[p] += below[v]
        full = below.copy()  # star leaves in v's tree
        self.roots = [v for v in roots if full[v] > 1]  # the roots of S
        order = self.roots.copy()  # S, parents first
        kids: list[list[int]] = [[] for _ in range(f.n)]  # v's children in S
        for v, p, _, _ in descent:
            full[v] = full[p]
            if full[v] > 1 and below[v]:
                kids[p].append(v)
                order.append(v)
        size, leafy = len(order), len(self.roots)
        self.width = (size - leafy + len(d.alphas) - 1 + 9) // 8  # N + 2 bits or more
        words = -(-self.width // 8)  # the 64-bit words of a coefficient
        self.trees = sum(1 for v in roots if not full[v])
        self.lone = f.n - self.trees - size
        factors = self.trees + self.lone
        self.fixed = factors * (size + 1) + factors * (factors + 1) // 2
        self.fixed += max(leafy - 1, 0) * (size + 1) * words  # the product of S's totals
        self.positions: list[tuple[int, ...]] = [()] * f.n
        # per vertex of S, its children's runs: (their last vertex, the span of their leaves)
        self.kids: list[list[tuple[int, int, int]]] = [[] for _ in range(f.n)]
        self.sizes = [1] * f.n
        # per run, at its first vertex: its last, climbs, cost over b + 1 and key
        self.tops = list(range(f.n))
        self.climbs = [0] * f.n
        self.rates = [0] * f.n
        self.keys: list[tuple[int, ...]] = [()] * f.n
        self.values: list[list[int]] = [[]] * f.n  # at a run's last vertex
        self.totals = [0] * f.n
        self.steps = []  # (first vertex, its leaves' classes) per run above two star leaves, children first
        self.groupings = self.work = 0
        first = list(range(f.n))  # the first vertex of v's run
        once = []  # the runs above one star leaf
        for v in reversed(order):
            spots, rate = (leaf[v],) if leaf[v] >= 0 else (), 0
            for u in kids[v]:
                self.kids[v].append((u, len(spots), len(spots) + len(self.positions[u])))
                spots += self.positions[u]
                if len(self.kids[v]) > 1:  # a product of two children's polynomials
                    rate += self.sizes[v] * (self.sizes[u] + 1)
                self.sizes[v] += self.sizes[u]
            self.positions[v] = spots
            if leaf[v] < 0 and len(kids[v]) == 1:  # a climb
                first[v] = r = first[kids[v][0]]
                self.tops[r] = v
                self.climbs[r] += 1
            elif len(spots) > 1:
                r = v
                self.steps.append((v, itemgetter(*spots)))
            else:
                r = v
                once.append(v)
            self.rates[r] += rate + (len(kids[v]) + 1) * (self.sizes[v] + 1)
        for r, _ in self.steps:
            self.rates[r] *= words
        bits = 8 * self.width
        for r in once:  # a star leaf, x = (0, 1) and T = m - 1, and its climbs
            self.fixed += 2 * self.rates[r]
            if self.fixed > FVS1_WORK_LIMIT:
                break  # every grouping is refused
            j = self.climbs[r]
            power, flip = pack(power_m1(j + 1), self.width), (-1) ** j  # (m - 1)^(j + 1), (-1)^j
            lift = (power - flip * ((1 << bits) - 1)) >> bits  # D_j (m - 1)
            self.values[self.tops[r]], self.totals[self.tops[r]] = [lift, lift + flip], power

    def _make(self, r: int, key: tuple[int, ...], b: int) -> None:
        """The value and total of the run from r under the renamed classes
        `key`, b of them, its climbs one at a time."""
        entries = None
        for u, first, end in self.kids[r]:
            theirs, total = self.values[u], self.totals[u]
            moves = [total - theirs[-1]] * (b + 1)
            for x, c in enumerate(dict.fromkeys(key[first:end])):  # u's classes in its order
                moves[c] = total - theirs[x]
            entries = moves if entries is None else [e * x for e, x in zip(entries, moves)]
        if self.leaf[r] >= 0:
            entries[0] = 0
        bits, other = 8 * self.width, entries[b]
        total = sum(entries) + (other << bits) - (b + 1) * other
        for _ in range(self.climbs[r]):
            entries, total = [total - e for e in entries], (total << bits) - total
        self.values[self.tops[r]], self.totals[self.tops[r]] = entries, total

    def packed(self, grouping: tuple[int, ...]) -> int:
        """The Steiner count of `grouping`, packed."""
        self.groupings += 1
        spent, keys, rates = self.work + self.fixed, self.keys, self.rates
        for r, classes in self.steps:
            seen: dict[int, int] = {}
            key = tuple([seen.setdefault(c, len(seen)) for c in classes(grouping)])
            spent += (len(seen) + 1) * rates[r]
            if spent > FVS1_WORK_LIMIT:
                break
            if key != keys[r]:
                keys[r] = key
                self._make(r, key, len(seen))
        if spent > FVS1_WORK_LIMIT:
            raise SearchBudgetExceeded(
                f"the FVS-1 route passed FVS1_WORK_LIMIT = {FVS1_WORK_LIMIT:,}"
                f" coefficient updates at leaf grouping {self.groupings:,}"
            )
        self.work = spent
        return math.prod(map(self.totals.__getitem__, self.roots))

    def count(self, packed: int) -> IntPoly:
        """The avoidance count whose Steiner count is `packed`."""
        return unpack(packed, self.width) * self.factor

    @cached_property
    def factor(self) -> IntPoly:
        return forest_polynomial(self.trees, self.lone)

    def weight(self, partition: PartitionSpec) -> IntPoly:
        """`partition_weight(d, partition)`, metered as a fresh count is;
        runs made for earlier partitions are reused."""
        d = self.decomposition
        shift = partition.shift
        if shift.keys() != set(d.alphas):
            raise ValueError("partition must cover exactly the star's vertices")
        self.work = self.groupings = 0
        packed = self.packed(tuple(shift[v] for v in d.alphas[1:]))
        return (_forest_chromatic(d) - self.count(packed)).exact_div(M)


def _forest_chromatic(d: StarDecomposition) -> IntPoly:
    """P(forest), the center an isolated vertex of it.  The decomposition
    has refused a cycle, so the forest has n - |E| trees."""
    f = d.forest
    return forest_polynomial(f.n - len(f.edges), len(f.edges))


def partition_weight(d: StarDecomposition, partition: PartitionSpec) -> IntPoly:
    """Colorings of the forest that collide with a star cover of this shape.

    Counts (as a polynomial) the proper colorings of the forest that give
    the center its partition color and at least one leaf its partition
    color: P(forest) less the colorings in which every leaf avoids its
    part's color, over m.  The count depends only on which leaves share a
    part.
    """
    return _LeafCounts(d).weight(partition)


class FeedbackPolynomialResult(NamedTuple):
    """Eventual DP color function of a graph with a one-vertex feedback set.

    dp_polynomial = P(forest, m) - m * weight, exact from stable_from, the
    least fold (at least the part count) from which no count `value_at` reads
    undercuts it; `counts` keeps those it reads below, each with the first
    grouping that has its fewest classes.  `maximizers` counts the star
    partitions tied at the least count: a tied leaf grouping of s classes
    gives s + 1, the center joining a class or alone.
    `witness_cover(m)` builds a shift cover that counts `value_at(m)`.
    """

    decomposition: StarDecomposition
    partition: PartitionSpec
    weight: IntPoly
    dp_polynomial: IntPoly
    stable_from: int
    maximizers: int
    counts: tuple[tuple[int, IntPoly, tuple[int, ...]], ...]  # (fewest classes, count, first grouping with them) per distinct grouping count

    def value_at(self, m: int) -> int:
        """P_DP(G, m): below `stable_from`, the least count of a grouping with
        at most m classes (proof: `covers.dp_lower_bound`; a count of s
        classes is a leaf count exact at every m >= s)."""
        if m < 1:
            raise OutOfRange("m must be positive")
        if m >= self.stable_from:
            return self.dp_polynomial(m)
        return min(c(m) for s, c, _ in self.counts if s <= m)

    def witness_cover(self, m: int) -> FullCover:
        """A shift cover that counts `value_at(m)`: that of `partition` from
        `stable_from` on; below it, that of the first count `value_at` takes,
        the center joining class 0 of its grouping (star string
        (0,) + grouping, s <= m parts)."""
        d = self.decomposition
        partition = self.partition
        if m < self.stable_from:
            value = self.value_at(m)
            r = next(r for s, c, r in self.counts if s <= m and c(m) == value)
            partition = PartitionSpec.of_string(d.alphas, (0,) + r)
        return shift_cover(d.graph, d, partition, m)


#: Coefficient updates that the leaf counts of all of one graph's leaf
#: groupings may meter together (`_LeafCounts`, checked before each run),
#: the FVS-1 route's one bound.  Sums (2-vCPU VM, Python 3.11, in
#: process): the fan with 10 star vertices 1.07e7 in 0.7 s, alt-hub 3x5
#: 7.9e6 in 0.2 s.  In a fresh process K_{1,11}, the fan with 11 star
#: vertices and a windmill of 5 triangles answer in 1.9, 5.1 and 1.1 s;
#: K_{1,12}, the fan with 12 and a windmill of 6 are refused after 2.1,
#: 4.8 and 4.1 s, and K_{1,4000} or a windmill of 2,000 in 0.2 s.  A
#: 10-star hub over a path of L vertices: L = 20 answers at 4.5e7 in
#: 1.6 s; L = 100, 200 and 300 are refused at groupings 1,157, 173 and 66
#: after 0.2, 0.1 and 0.1 s.  Cycles answer up to about 4,800 vertices,
#: C_4,500 in 0.3 s at 61 MB in a fresh process.
FVS1_WORK_LIMIT = 100_000_000


def fvs1_dp_polynomial(g: Graph) -> FeedbackPolynomialResult:
    """Polynomial form of the DP color function for feedback-vertex-one graphs.

    A shift cover whose star partition groups the leaves as r counts the
    colorings of the forest in which each leaf avoids its class's color
    (r's avoidance count), the same for every place of the center.  The
    polynomial is the eventually least of these over the Bell(k - 1) leaf
    groupings of a star with k vertices, restricted-growth strings
    (`_growth_strings`) streamed once through one leaf DP (`_LeafCounts`),
    which compares them by their packed Steiner counts: the least count so
    far with its first grouping and the star partitions tied at it, and
    per distinct count, in order of first occurrence, its fewest classes
    and the first grouping with them.  Each distinct count becomes an
    `IntPoly` once, after the loop.  Their counts together may meter
    `FVS1_WORK_LIMIT` updates, the route's one bound.
    Only `partition` becomes a `PartitionSpec`: a tied grouping r has one
    star string per place j of the center, which joins class j (or stands
    alone, j = r's class count) in part 0, the classes below j moved up
    one.  The least of them, `partition`, is j = 0 of the earliest tied
    grouping: any j > 0 turns the first leaf's class 0 into 1.
    Every count is monic of degree n(forest): it is P(forest), which is,
    less the colorings in which some leaf takes its color, of degree at
    most n(forest) - 1.  So two counts differ first at their highest
    unequal coefficient, and the eventually least count is the least by
    coefficients read from the top.
    Since P(forest) = m * P(forest - center), it is P(forest) - m * weight,
    with weight the `partition_weight` of the winning partition; two counts
    differ by m times their weights' difference, so the winner and its ties
    are those of the weights.
    """
    if not g.n:
        raise OutOfScope("graph has no vertices")
    pivot = find_feedback_vertex(g)
    if pivot is FeedbackVertex.NOT_SIZE_ONE:
        raise OutOfScope("graph has no feedback vertex set of size one")
    if pivot is FeedbackVertex.NONE_NEEDED:
        with_degree = sorted(v for v in g.vertices if g.adjacency[g.index[v]])
        pivot = with_degree[0] if with_degree else sorted(g.vertices)[0]
    d = star_forest_decomposition(g, pivot)
    k = len(d.alphas) - 1
    counts = _LeafCounts(d)
    firsts: dict[int, list] = {}  # packed count -> [fewest classes, first grouping with them]
    least = winner = tie = None  # the least packed count so far, its entry and its first grouping
    maximizers = 0
    for r in _growth_strings(k, k):
        c = counts.packed(r)
        s = max(r, default=-1) + 1
        first = firsts.get(c)
        if first is None:
            first = firsts[c] = [s, r]
            if winner is None or c < least:
                least, winner, tie, maximizers = c, first, r, 0
        elif s < first[0]:
            first[:] = s, r
        if first is winner:
            maximizers += s + 1
    partition = PartitionSpec.of_string(d.alphas, (0,) + tie)
    dp = counts.count(least)
    weight = (_forest_chromatic(d) - dp).exact_div(M)
    # c >= dp from positive_from(c - dp + 1) on (h >= 0 is h + 1 > 0); value_at
    # reads c from s on, and a fold up to the part count moves nothing, so the
    # search starts at t; the winner's own difference is the constant 1
    low, parts = dp - 1, len(partition.parts)
    rows, folds = [], [parts]
    for packed, (s, r) in firsts.items():
        c = dp if packed == least else counts.count(packed)
        rows.append((s, c, r))
        t = max(s, parts)
        if c is not dp and (n := positive_from(c - low, t)) > t:
            folds.append(n)
    stable_from = max(folds)
    distinct = tuple(row for row in rows if row[0] < stable_from)
    return FeedbackPolynomialResult(d, partition, weight, dp, stable_from, maximizers, distinct)


class SubsetCheck(NamedTuple):
    subset: int
    category: str
    expected: str
    difference: int


class SubsetAuditReport(NamedTuple):
    """Exhaustive classification of agreement deficits over edge subsets.

    Every nonempty edge subset is placed in one bucket -- short-cycle (the
    deficit must vanish), exact-cycle (the deficit is minus the twist
    mismatch count times a power of m), or the three large-subset bounds --
    and checked against its bucket's prediction.
    """

    spec: ThetaSpec
    m: int
    first_twisted: int
    subsets_checked: int
    category_counts: dict[str, int]
    failures: tuple[SubsetCheck, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def cover_subset_audit(cover: FullCover) -> SubsetAuditReport:
    """Audit one cover of a generalized Theta graph against the
    subset-deficit classification, every nonempty edge subset once
    (`subset_walk`).  A subset with |A| + c(A) > n (the walk's component
    table) holds as cycles the pairs of u--w paths it holds whole
    (`ThetaSpec.path_masks`), as only u and w have degree above 2; the
    profile sorts the lengths, so its last two whole paths are its longest."""
    profile = twist_profile(cover)
    m, spec = cover.m, cover.graph.theta
    l = spec.edge_count
    n = spec.vertex_count
    mu = profile.first_twisted
    counts: dict[str, int] = {}
    failures: list[SubsetCheck] = []
    components, agreements = subset_walk(cover)
    paths = spec.path_masks
    cycle_size = None if mu == 0 else spec.lengths[0] + spec.lengths[mu - 1]
    for mask in range(1, 1 << l):
        c = components[mask]
        diff = agreements[mask] - m**c
        checks: list[tuple[str, str, bool]] = [
            ("range", f"-{m}^{c} <= diff <= 0", -(m**c) <= diff <= 0)
        ]
        p = mask.bit_count()
        whole = [] if mu == 0 or p + c == n else [
            i for i, path in enumerate(paths, 1) if mask & path == path
        ]
        if len(whole) < 2 or sum(spec.lengths[i - 1] for i in whole[-2:]) < cycle_size:
            category = "short-cycle"
            checks.append(("zero", "diff == 0", diff == 0))
        elif p == cycle_size:
            category = "exact-cycle"
            j = next(i for i in whole if i > 1)
            want = -profile.mismatch_counts[j - 2] * m ** (n - cycle_size)
            checks.append(("exact", f"diff == {want}", diff == want))
        elif p == cycle_size + 1:
            category = "one-spare-edge"
            checks.append(
                ("components", f"{n - cycle_size} components", c == n - cycle_size)
            )
            checks.append(("one-cycle", "exactly one cycle", len(whole) == 2))
            floor = -2 * profile.mismatch_mass * m ** (n - cycle_size - 1)
            checks.append(("floor", f"diff >= {floor}", diff >= floor))
        elif p % 2 == 0:
            category = "large-even"
            floor = -(m ** (n - cycle_size - 1))
            checks.append(("floor", f"diff >= {floor}", diff >= floor))
        else:
            category = "large-odd"
            checks.append(("nonpositive", "diff <= 0", diff <= 0))
        counts[category] = counts.get(category, 0) + 1
        for name, expected, ok in checks:
            if not ok:
                failures.append(SubsetCheck(mask, f"{category}:{name}", expected, diff))
    return SubsetAuditReport(spec, m, mu, (1 << l) - 1, counts, tuple(failures))


def cover_gap(cover: FullCover) -> tuple[int, Fraction] | None:
    """The surplus P(cover) - P(G, m) of a twisted cover of a generalized
    Theta graph over the chromatic polynomial, with the lower bound the
    subset classification forces on it once m >= 2^(|E| + 1):

      m^(n - d) - 2^(|E| + 2) m^(n - d - 1),  d = l_1 + l_mu,

    where path mu is the first twisted path.  None for a canonical cover or
    a smaller fold, where no bound is claimed."""
    mu = twist_profile(cover).first_twisted
    g, m = cover.graph, cover.m
    spec = g.theta
    l, n = spec.edge_count, spec.vertex_count
    if mu == 0 or m < 2 ** (l + 1):
        return None
    surplus = count_colorings(g, cover) - theta_chromatic(spec)(m)
    drop = spec.lengths[0] + spec.lengths[mu - 1]
    return surplus, Fraction(m) ** (n - drop) - 2 ** (l + 2) * Fraction(m) ** (n - drop - 1)


LIST_THRESHOLD_DENOMINATOR = math.log(1 + math.sqrt(2))


def list_color_threshold(edge_count: int) -> tuple[float, int]:
    """Fold beyond which the list color function matches the chromatic one.

    Returns the real threshold (edges - 1) / ln(1 + sqrt 2) as a float and
    the least integer strictly above it, clamped to at least 1.  The
    integer is exact at every edge count, which the float's floor is not
    past about 2^53 edges.
    """
    if edge_count < 0:
        raise OutOfRange("edge count cannot be negative")
    try:
        threshold = (edge_count - 1) / LIST_THRESHOLD_DENOMINATOR
    except OverflowError:
        raise OutOfRange("edge count too large for a floating-point threshold") from None
    return threshold, 1 if edge_count <= 1 else _floor_over_log_silver(edge_count - 1) + 1


def _floor_over_log_silver(numerator: int) -> int:
    """floor(numerator / ln(1 + sqrt 2)), exactly, for numerator >= 1.

    At precision p each decimal step (square root, sum, logarithm,
    quotient) is correctly rounded, so the computed quotient q is within a
    relative 10^(2 - p) of the true one, and q(1 -+ 10^(3 - p)) brackets
    it.  Once both ends floor alike, so does the true quotient; otherwise
    the precision doubles.  This ends: 1 + sqrt 2 is algebraic and not 1,
    so its logarithm is transcendental (Lindemann-Weierstrass) and the
    quotient is never an integer."""
    precision = len(str(numerator)) + 20
    while True:
        with decimal.localcontext() as context:
            context.prec = precision
            q = decimal.Decimal(numerator) / (1 + decimal.Decimal(2).sqrt()).ln()
            slack = q.scaleb(3 - precision)
            low, high = int(q - slack), int(q + slack)
        if low == high:
            return low
        precision *= 2
