"""Integer complexity: fewest 1s needed to write m with + and *.

The table holds the recurrence

    c[1] = 1
    c[m] = min( {c[i] + c[m-i] : 1 <= i <= m//2}
              | {c[d] + c[m/d] : d | m, 1 < d <= sqrt(m)} )

and its back-pointers record the first minimizer: sums by ascending i,
then products by ascending d, with sums kept on ties.  Reconstruction is
therefore deterministic.

The build fills m in doubling blocks [lo, 2*lo - 1]:

* Products, one numpy pass per divisor.  Every factor of an m in the block
  is at most lo - 1, so it is final.  For d = 2..isqrt(hi), ascending, one
  pass over the multiples m = d*q with q >= d keeps c[d] + c[q] where it is
  strictly below the block's best so far: the first minimal divisor.
* Sums, the summand 1 alone.  Up to MAX_TABLE_LIMIT no summand i >= 2
  changes c or choice, so each entry is the running minimum

      c[m] = min(c[m-1] + 1, prod[m])

  that is, c[m] - m is the running minimum of prod[m] - m, one numpy
  cumulative minimum per block.  choice[m] is -d where prod[m] < c[m-1] + 1,
  else 1 (ties keep the sum).

The rule is a measured fact, not a theorem.  The tests compare both arrays
with the full scan of every summand and divisor up to 10**5, and check the
10**7 table against digests of the exact table, computed with every
summand that could matter.  It agrees with Iraids et al., "Integer
complexity: experimental and analytical results" (2012), who report
353 942 783 as the first m that needs a summand other than 1.  Raising
MAX_TABLE_LIMIT past 10**7 needs a summand scan back.

The largest m with c[m] = n equals max_partition_product(n), and a minimal
expression for m converts to an m.ones-vertex graph with exactly m MISes
(sums become joins, products become disjoint unions).

numpy is imported inside the two functions that use it, so that importing
the package, and every CLI command that builds no table, skips its load.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import expressions as ex
from .closedforms import _is_index
from .graphs import MAX_VERTICES, Graph, _side_by_side, count_mis

# complexity_table(MAX_TABLE_LIMIT) measured 0.8-1.0 s of CPU at a peak RSS
# of 193-195 MiB on a 2-core x86 host, Python 3.11, numpy 2.4 (10**5: 0.01
# s).  Past 10**7 the running minimum is not checked; see the docstring.
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
    """Fill the complexity table for 1..limit (see the module docstring)."""
    if not _is_index(limit) or limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit!r}")
    if limit > MAX_TABLE_LIMIT:
        raise ValueError(f"limit {limit} exceeds MAX_TABLE_LIMIT = {MAX_TABLE_LIMIT}")
    import numpy as np

    c = np.zeros(limit + 1, dtype=np.int32)
    choice = np.zeros(limit + 1, dtype=np.int32)
    c[1] = 1
    lo = 2
    while lo <= limit:
        hi = min(2 * lo - 1, limit)
        prod, divisor = _products(c, lo, hi)
        m = np.arange(lo, hi + 1, dtype=np.int32)
        run = np.minimum.accumulate(np.minimum(prod - m, c[lo - 1] - (lo - 1)))
        c[lo : hi + 1] = run + m
        choice[lo : hi + 1] = np.where(prod < c[lo - 1 : hi] + 1, divisor, 1)
        lo = hi + 1
    return ComplexityTable(limit, c, choice)


def _products(c: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Best product c[d] + c[m/d] and its -d for each m in lo..hi.

    Needs c final below lo and hi < 2*lo.  Where m has no divisor, the
    best is int32 max and the divisor 0.
    """
    import numpy as np

    best = np.full(hi - lo + 1, np.iinfo(np.int32).max, dtype=np.int32)
    divisor = np.zeros(hi - lo + 1, dtype=np.int32)
    for d in range(2, isqrt(hi) + 1):
        qmin = max(d, -(-lo // d))
        qmax = hi // d
        if qmin > qmax:
            continue
        cand = c[qmin : qmax + 1] + c[d]
        multiples = slice(d * qmin - lo, d * qmax - lo + 1, d)
        cur = best[multiples]
        better = cand < cur
        cur[better] = cand[better]
        divisor[multiples][better] = -d
    return best, divisor


def minimal_expression(m: int, table: ComplexityTable) -> ex.Expression:
    """Expression with value m using exactly table[m] ones.

    Follows the table's back-pointers, so the result is the unique
    expression selected by the first-minimizer scan order.
    """
    if not _is_index(m) or not 1 <= m <= table.limit:
        raise ValueError(f"m must be in 1..{table.limit}, got {m!r}")

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
    The adjacency rows are built recursively by the row rule of join and
    disjoint_union, and validated once.
    The MIS count is verified before returning.
    """
    if e.ones > MAX_VERTICES:
        raise ValueError(f"expression has {e.ones} ones; at most {MAX_VERTICES} supported")

    def build(node: ex.Expression) -> list[int]:
        if node.kind == ex.ONE:
            return [0]
        return _side_by_side(build(node.left), build(node.right), node.kind == ex.SUM)

    rows = build(e)
    g = Graph(len(rows), tuple(rows))
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
    if not _is_index(limit) or not 1 <= limit <= table.limit:
        raise ValueError(f"limit must be in 1..{table.limit}, got {limit!r}")
    return "".join(_csv_blocks(table, limit))


def _csv_blocks(table: ComplexityTable, limit: int):
    """The lines of complexity_csv in blocks of 2**16 rows, to stream."""
    for lo in range(1, limit + 1, 1 << 16):
        values = table.c[lo : min(lo + (1 << 16), limit + 1)].tolist()
        yield "".join(f"{m},{v}\n" for m, v in enumerate(values, lo))
