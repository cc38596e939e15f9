"""One loop per count.

`_FeedbackPlan.count` walks the colorings of its slots once and reads
each key's row through the fold's table as soon as it makes the key, so
a count holds one key at a time and never a list of all m^|slots| of
them.  These tests count the colorings `product` hands out and record
that count at every canonical read: the first row must be read before
the last coloring is made, with every slot free and with one fixed.
"""

import itertools
import random

import pytest

from dpchroma import covers
from dpchroma.covers import count_from_edge_perms, random_cover
from dpchroma.graphs import Graph

from oracles import transversal_count


def complete(n: int) -> Graph:
    return Graph(
        tuple(f"k{i}" for i in range(n)),
        tuple((a, b) for a in range(n) for b in range(a + 1, n)),
    )


@pytest.mark.parametrize("fixed", [None, {0: 2}], ids=["free", "k0-fixed"])
def test_the_first_row_is_read_before_the_last_coloring_is_made(monkeypatch, fixed):
    """K5 at m = 4 conditions on S = {k1, k2, k3}, and on k0 too when it is
    fixed: 64 slot colorings either way, the first row read long before
    the last of them."""
    made, reads = [0], []
    canonical = covers._canonical

    def counted_product(*iterables):
        for colors in itertools.product(*iterables):
            made[0] += 1
            yield colors

    def recorded_canonical(key):
        reads.append(made[0])
        return canonical(key)

    monkeypatch.setattr(covers, "product", counted_product)
    monkeypatch.setattr(covers, "_canonical", recorded_canonical)
    g = complete(5)  # a fresh graph, so its plan starts with empty tables
    perms = random_cover(g, 4, random.Random(36)).edge_perms()
    count = count_from_edge_perms(g, 4, perms, fixed)
    allowed = None
    if fixed is not None:
        allowed = [[int(v not in fixed or c == fixed[v]) for c in range(4)] for v in range(5)]
    assert count == transversal_count(g, 4, perms, allowed) > 0
    assert made[0] == 64 and reads
    assert reads[0] < made[0]
