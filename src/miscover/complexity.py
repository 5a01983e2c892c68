"""Integer complexity: fewest 1s needed to write m with + and *.

The table fills by the recurrence

    c[1] = 1
    c[m] = min( {c[i] + c[m-i] : 1 <= i <= m-1}
              | {c[d] + c[m/d] : d | m, 1 < d < m} )

scanning summands up to m//2 and divisors up to sqrt(m) (the upper halves
are symmetric).  Back-pointers record the first minimizer (sums by
ascending i, then products by ascending d, with sums kept on ties), so
reconstruction is deterministic.

The largest m with c[m] = n equals max_partition_product(n), and a minimal
expression for m converts to an m.ones-vertex graph with exactly m MISes
(sums become joins, products become disjoint unions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .graphs import Graph, complete_graph, count_mis, disjoint_union, join

MAX_TABLE_LIMIT = 10**7


@dataclass(frozen=True)
class ComplexityTable:
    """Complexities c[1..limit] plus back-pointers for reconstruction.

    choice[m] > 0 is a summand i (m = i + (m-i)); choice[m] < 0 is a
    divisor -d (m = d * (m/d)); choice[1] = 0.
    """

    limit: int
    c: np.ndarray
    choice: np.ndarray

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= self.limit:
            raise IndexError(f"m must be in 1..{self.limit}, got {m}")
        return int(self.c[m])


def complexity_table(limit: int) -> ComplexityTable:
    """Fill the complexity table for 1..limit."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > MAX_TABLE_LIMIT:
        raise ValueError(
            f"limit {limit} exceeds {MAX_TABLE_LIMIT}; the two int32 arrays "
            f"alone would need {8 * limit / 2**20:.0f} MiB"
        )
    c = np.zeros(limit + 1, dtype=np.int32)
    choice = np.zeros(limit + 1, dtype=np.int32)
    c[1] = 1
    for m in range(2, limit + 1):
        half = m // 2
        sums = c[1 : half + 1] + c[m - 1 : m - half - 1 : -1]
        k = int(np.argmin(sums))
        best = int(sums[k])
        pick = k + 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                cand = int(c[d] + c[m // d])
                if cand < best:
                    best = cand
                    pick = -d
            d += 1
        c[m] = best
        choice[m] = pick
    return ComplexityTable(limit, c, choice)


def minimal_expression(m: int, table: ComplexityTable) -> ex.Expression:
    """Expression with value m using exactly table[m] ones.

    Follows the table's back-pointers, so the result is the unique
    expression selected by the first-minimizer scan order.
    """
    if not 1 <= m <= table.limit:
        raise ValueError(f"m must be in 1..{table.limit}, got {m}")

    def build(k: int) -> ex.Expression:
        if k == 1:
            return ex.one()
        pick = int(table.choice[k])
        if pick > 0:
            return ex.add(build(pick), build(k - pick))
        d = -pick
        return ex.mul(build(d), build(k // d))

    return build(m)


def graph_from_expression(e: ex.Expression) -> Graph:
    """Graph with e.ones vertices and exactly e.value MISes.

    A 1 becomes a single vertex, a sum joins the child graphs (MIS counts
    add), and a product takes their disjoint union (counts multiply).
    The MIS count is verified before returning.
    """
    if e.ones > 128:
        raise ValueError(f"expression has {e.ones} ones; at most 128 supported")

    def build(node: ex.Expression) -> Graph:
        if node.kind == ex.ONE:
            return complete_graph(1)
        left = build(node.left)
        right = build(node.right)
        if node.kind == ex.SUM:
            return join(left, right)
        return disjoint_union(left, right)

    g = build(e)
    count = count_mis(g)
    if g.n != e.ones or count != e.value:
        raise ValueError(
            f"expression claims value {e.value} with {e.ones} ones, but its "
            f"graph has {count} MISes on {g.n} vertices"
        )
    return g


def complexity_csv(table: ComplexityTable, limit: int | None = None) -> str:
    """CSV lines "m,c" for m = 1..limit, no header."""
    limit = table.limit if limit is None else limit
    if not 1 <= limit <= table.limit:
        raise ValueError(f"limit must be in 1..{table.limit}, got {limit}")
    return "".join(f"{m},{int(table.c[m])}\n" for m in range(1, limit + 1))
