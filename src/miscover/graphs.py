"""Bitset graphs and exact maximal-independent-set (MIS) machinery.

A maximal independent set is an independent set not properly contained in
any other independent set (maximal, not maximum).  Two counting laws drive
everything here: disjoint unions multiply MIS counts, joins add them.

Graphs are immutable, hold at most 128 vertices, and store adjacency as
one Python-int bitmask per vertex, so induced subgraphs are plain mask
intersections.  Counts are exact arbitrary-precision integers; they reach
3**(n/3) and leave 64-bit range near n = 122.

count_mis memoizes a recursion over (alive, pending) vertex masks.  It
splits every disconnected alive set into components, also while excluded
vertices still wait for a neighbor in the set: each waiting vertex goes
with the component its alive neighbors lie in, and one whose neighbors
span several components is removed first by inclusion-exclusion.  With
nothing waiting it also splits joins.  A connected remainder with nothing
waiting goes to _narrow_count, an exact dynamic program over a greedy
vertex elimination order with three states per vertex, unless its tables
would exceed the budget or 3**(n//3) entries for n vertices; then the
recursion branches, and makes no further attempt.  So narrow graphs
count in milliseconds (a 128-vertex cycle in 2-5 ms), and a fixed memo
budget makes every hard graph fail fast with CountBudgetError instead of
running on.
enumerate_mis lists the MISes as a product of factors, found by
_mis_factors.  While the component C of the lowest remaining vertex lies
wholly below the rest R, C is a factor and R is split again; what is left,
connected or with components whose labels interleave, is the last factor.
The canonical list is the C-major product of the factors' lists: a sorted
member tuple is its C-part followed by its R-part, and no MIS of C is a
prefix of another (that would be containment), so the C-part decides.  So
a union of vertex-contiguous cliques (the extremal graphs) never branches,
covers.py lays the same factors out in mixed radix without listing the
product, and ``miscover mis --list`` prints the product of the factors'
member strings without building a set.  The product itself is one
slotted VertexSet per MIS, about 100 B with its mask.  Each factor is
listed lazily by _mis_masks, a lowest-vertex branching whose include-first
order is the canonical MIS order, with no sort; like count_mis, it forces
the one alive neighbor of a waiting vertex into the set without
branching.  _mis_factors alone applies the enumeration cap; its docstring
gives the policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import islice
from operator import add, mul, sub
from pathlib import Path
from typing import Iterable, Iterator

from .closedforms import _is_index

MAX_VERTICES = 128
DEFAULT_MIS_CAP = 10_000_000
# count_mis memo entries, and the total table entries of one elimination
# DP (_narrow_count), which the benchmark's relabeled 36-vertex cubic
# graphs keep under 200 000.  Measured on a 2-core x86 host, Python 3.11: graphs the
# DP refuses reach the memo budget after 9-10 s of CPU (72-vertex cubic)
# to 12 s (128 vertices, p = 0.03), at a peak RSS of 210-215 MiB, about
# 180 MiB above an idle interpreter.
COUNT_MEMO_BUDGET = 1_000_000
# the masks a factor lists before _mis_factors asks _mis_lower_bound
# whether it exceeds its share of the cap (the policy is in _mis_factors'
# docstring).  65 536 masks are about 0.1 s of listing and ten times the
# benchmark's largest enumeration, 6 561 sets, so a factor with fewer sets
# never pays for the bound: on random 28-vertex cubic graphs it took
# 0.9-2.7 ms, 30-70 % of their 2.8-5.5 ms listing (2-core x86 host,
# Python 3.11)
MIS_COUNT_PROBE = 65_536


class MisCapError(RuntimeError):
    """Raised when enumeration would exceed its cap.

    partial_count always equals cap: a graph over the cap is refused
    without listing all its sets, so no count beyond the cap is known.
    """

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"number of maximal independent sets exceeds cap {cap}")
        self.cap = cap
        self.partial_count = partial_count


class CountBudgetError(ValueError):
    """Raised when count_mis would keep more memo entries than its budget."""

    def __init__(self, budget: int):
        super().__init__(
            f"counting maximal independent sets needs more than {budget} "
            "memo entries; the graph is too hard to count"
        )
        self.budget = budget


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Subset of the vertices 0..n-1 of some graph, stored as a bitmask.

    Slotted, with no instance dict: enumeration makes one per MIS, up to
    DEFAULT_MIS_CAP of them, and a slotted instance is about half the size
    of a dict-backed one.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits {self.bits:#x} out of range for n={self.n}")

    def members(self) -> tuple[int, ...]:
        return tuple(_bits_of(self.bits))

    def __iter__(self) -> Iterator[int]:
        return _bits_of(self.bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.bits >> v & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.members())) + "}"


def _bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(s) -> int:
    if isinstance(s, VertexSet):
        return s.bits
    if isinstance(s, int):
        return s
    mask = 0
    for v in s:
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitmask adjacency.

    Equality and hashing are label-exact (same n, same adjacency rows);
    isomorphism is deliberately not considered here.
    """

    n: int
    adj: tuple[int, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        adj = self.adj
        full = (1 << self.n) - 1
        for v, row in enumerate(adj):
            if row < 0 or row & ~full:
                raise ValueError(f"adjacency row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} is its own neighbor")
            m = row
            while m:
                low = m & -m
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")
                m ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in _bits_of(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given undirected edges."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complete_graph(k: int) -> Graph:
    """K_k: all pairs adjacent.  It has exactly k MISes (the singletons)."""
    if not 0 <= k <= MAX_VERTICES:
        raise ValueError(f"k must be in 0..{MAX_VERTICES}, got {k}")
    full = (1 << k) - 1
    return Graph(k, tuple(full ^ (1 << v) for v in range(k)))


def cycle_graph(j: int) -> Graph:
    """C_j: vertices i and i+1 (mod j) adjacent, nothing else."""
    if not 3 <= j <= MAX_VERTICES:
        raise ValueError(f"cycle length must be in 3..{MAX_VERTICES}, got {j}")
    return from_edges(j, [(i, (i + 1) % j) for i in range(j)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; h's vertices are relabeled after g's.

    The MIS count multiplies: every MIS of the union is the union of one
    MIS from each side.
    """
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges.

    The MIS count adds: an independent set cannot straddle the cross
    edges, so every MIS of the join is an MIS of one side.
    """
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join would have {n} > {MAX_VERTICES} vertices")
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = [row | h_mask for row in g.adj]
    adj += [(row << g.n) | g_mask for row in h.adj]
    return Graph(n, tuple(adj))


def closed_neighborhood(g: Graph, v: int) -> VertexSet:
    """N[v]: the vertex v together with its neighbors."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return VertexSet(g.adj[v] | 1 << v, g.n)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertices, relabeled 0..k-1 in order."""
    keep = sorted(_bits_of(_mask_of(vertices) & g.full_mask))
    pos = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in _bits_of(g.adj[v]):
            if u in pos:
                adj[pos[v]] |= 1 << pos[u]
    return Graph(len(keep), tuple(adj))


def delete_vertices(g: Graph, vertices) -> Graph:
    """G - X: remove the vertices and their incident edges."""
    return induced_subgraph(g, g.full_mask & ~_mask_of(vertices))


def is_independent(g: Graph, s) -> bool:
    mask = _mask_of(s)
    return all(not g.adj[v] & mask for v in _bits_of(mask))


def is_maximal_independent(g: Graph, s) -> bool:
    """Definition check: independent, and no outside vertex can be added."""
    mask = _mask_of(s)
    if not is_independent(g, mask):
        return False
    for u in range(g.n):
        if not mask >> u & 1 and not g.adj[u] & mask:
            return False
    return True


def _mis_factors(adj: tuple[int, ...], alive: int, cap: int) -> list[tuple[int, list[int]]]:
    """The factors of the MISes of the subgraph induced by ``alive``, as
    (vertex mask, MIS masks in canonical order) pairs.  Raises MisCapError
    once their product exceeds ``cap``, and ValueError if cap is not an
    int >= 0.

    While the component C of the lowest alive vertex lies wholly below the
    rest R (nonempty), C is a factor and R is split again; what is left
    then, connected or with components whose labels interleave, is the
    last factor.  So the factors hold consecutive vertices, in order, and
    every MIS is the union of one MIS of each factor.

    This is the one place that applies the enumeration cap, and it builds
    no list near the cap's size for a graph over it:

    - each factor gets a share, ``cap`` divided by the product of the
      sizes before it.  Every graph has an MIS, so the product fits the
      cap exactly when each factor fits its share, and a union over the
      cap is refused after listing a few small factors;
    - a factor's listing is read up to MIS_COUNT_PROBE + 1 masks.  If that
      many come and the share is larger, _mis_lower_bound, with a DP
      budget of the share (at most DEFAULT_MIS_CAP entries), bounds the
      factor's size from below: a bound over the share refuses it, so a
      connected graph over the cap is refused after MIS_COUNT_PROBE + 1
      sets, not after share + 1.  Otherwise the listing goes on, to its
      end or to share + 1 masks;
    - past share + 1 masks the factor is refused.

    The bound comes after the probe's masks, not before them: it costs a
    third to two thirds of a small factor's listing (see MIS_COUNT_PROBE),
    and 0.05-0.8 s of CPU on G(128, p) for p = 0.02 to 0.5 (seeds 1-3 of
    the tests' random_graph, 2-core x86, Python 3.11).
    The budget is the share because the DP's tables are then no larger
    than the listing they can save, and a smaller one bounds too low: at
    10**6 entries a G(76, 0.05) with 12 087 195 MISes was bounded at
    9 287 582, at 10**7 exactly.
    """
    if not _is_index(cap):
        raise ValueError(f"cap must be an int >= 0, got {cap!r}")
    factors, share = [], cap
    while alive or not factors:
        comp = _flood(adj, alive, 0)
        rest = alive & ~comp
        comp = comp if rest and comp < rest & -rest else alive
        listing = _mis_masks(adj, comp)
        masks = list(islice(listing, min(share, MIS_COUNT_PROBE) + 1))
        if share > MIS_COUNT_PROBE < len(masks):
            if _mis_lower_bound(adj, comp, min(share, DEFAULT_MIS_CAP)) > share:
                raise MisCapError(cap, cap)
            masks += islice(listing, share - MIS_COUNT_PROBE)
        if len(masks) > share:
            raise MisCapError(cap, cap)
        factors.append((comp, masks))
        share //= len(masks)
        alive &= ~comp
    return factors


def _mis_lower_bound(adj: tuple[int, ...], alive: int, budget: int) -> int:
    """A lower bound on the MIS count of the subgraph induced by ``alive``
    (nonempty), certified, from _narrow_count with ``budget`` entries.

    Each MIS I of an induced subgraph G[S] extends to an MIS of G whose
    part in S is I, since I is maximal in G[S]; so #MIS(G) >= #MIS(G[S]).
    A join's bound is the sum of its sides' bounds, a disconnected set's
    the product of its components'.  Any other set goes to the DP, and
    while the DP refuses, the vertex of largest alive degree (ties: the
    larger sum of its neighbors' alive degrees, then the lowest) is
    deleted and the rest bounded again.  With no deletion the bound is the
    exact count, as on every graph built from an expression.  The DP
    accepts one vertex at any budget of 3 or more, so this always ends.
    """
    comp = _flood(adj, alive, 0)
    if comp != alive:
        return _mis_lower_bound(adj, comp, budget) * _mis_lower_bound(adj, alive & ~comp, budget)
    side = _flood(adj, alive, -1)
    if side != alive:
        return _mis_lower_bound(adj, side, budget) + _mis_lower_bound(adj, alive & ~side, budget)
    r = _narrow_count(adj, alive, budget)
    if r is None:
        deg = {v: (adj[v] & alive).bit_count() for v in _bits_of(alive)}
        v = max(deg, key=lambda v: (deg[v], sum(deg[u] for u in _bits_of(adj[v] & alive))))
        r = _mis_lower_bound(adj, alive & ~(1 << v), budget)
    return r


def _mis_masks(adj: tuple[int, ...], whole: int) -> Iterator[int]:
    """Every MIS bitmask of the subgraph induced by ``whole``, lazily, in
    canonical order.

    ``_mis_factors`` calls it once per factor, so it makes no product
    split of its own: it branches on the lowest alive vertex v.  Either v
    enters the set (N[v] leaves play), or v is excluded and recorded as
    still needing a neighbor in the set.  The include branch is followed
    at once and the exclude branch pushed on an explicit stack, so a
    node's include branch is listed before its exclude branch.  Each node
    first scans its pending vertices, as count_mis does: one with no
    alive neighbor prunes the node, and one with a single alive neighbor
    w forces w into the set (N[w] leaves play, N(w) leaves the pending
    set) and restarts the scan.  So each emitted mask is maximal.

    The masks come in canonical order without sorting.  Every vertex
    below v is decided, so all sets under a node agree below v.  The
    include branch continues them with v.  An exclude-branch set must
    continue with some vertex above v: otherwise it would lie inside an
    include-branch set, since no neighbor of the alive v is in it.  Forced
    vertices above v do not change this.
    """
    stack = [(whole, 0, 0)]
    while stack:
        alive, partial, need = stack.pop()
        while True:
            nd = need
            while nd:
                low = nd & -nd
                reach = adj[low.bit_length() - 1] & alive
                if not reach:
                    break
                if reach & (reach - 1):
                    nd ^= low
                else:  # forced: the one alive neighbor w enters the set
                    w_adj = adj[reach.bit_length() - 1]
                    alive &= ~(w_adj | reach)
                    partial |= reach
                    need &= ~w_adj
                    nd = need
            if nd:
                break  # an excluded vertex can never be dominated
            if not alive:
                yield partial
                break
            bit = alive & -alive
            nbrs = adj[bit.bit_length() - 1]
            stack.append((alive & ~bit, partial, need | bit))
            alive &= ~(nbrs | bit)
            partial |= bit
            need &= ~nbrs


def _trusted_sets(masks: list[int], n: int) -> list[VertexSet]:
    """VertexSets for masks already known to lie in 0..n-1.

    Fills the two slots through their descriptors, skipping the frozen
    dataclass's __init__ and the range check of __post_init__; equality,
    hashing and repr see the same fields as for VertexSet(m, n).
    """
    new = object.__new__
    set_bits = VertexSet.bits.__set__
    set_n = VertexSet.n.__set__
    out = []
    for m in masks:
        s = new(VertexSet)
        set_bits(s, m)
        set_n(s, n)
        out.append(s)
    return out


def enumerate_mis(g: Graph, cap: int = DEFAULT_MIS_CAP) -> list[VertexSet]:
    """All maximal independent sets, sorted by ascending member list.

    The order is canonical: compare the sorted vertex tuples
    lexicographically, e.g. {0,2} before {1}.  It is produced directly,
    with no sort, as the C-major product of the factors of
    ``_mis_factors``, each listed by ``_mis_masks``.  Raises MisCapError
    if more than ``cap`` sets exist, without building a partial list (the
    cap policy is in ``_mis_factors``), and ValueError if cap is not an
    int >= 0.

    The masks become VertexSets by ``_trusted_sets``, which skips the
    range check they cannot fail.
    """
    factors = _mis_factors(g.adj, g.full_mask, cap)
    masks = factors[-1][1]  # a single factor's list is not copied
    for _, left in reversed(factors[:-1]):
        masks = [a | b for a in left for b in masks]
    return _trusted_sets(masks, g.n)


def count_mis(g: Graph) -> int:
    """Exact number of maximal independent sets of g.

    A recursion on (alive, need): alive are the undecided vertices, need
    the excluded vertices that still wait for a neighbor in the set.  It
    counts the independent sets S within alive that dominate alive and
    need.  Each step, in order:

    - a pending vertex with no alive neighbor gives 0; one with a single
      alive neighbor w forces w into the set in place, and the scan
      starts over;
    - if alive is disconnected, it splits off the component C of its
      lowest vertex from the rest R, in one pass over the pending
      vertices.  One whose alive neighbors all lie on one side goes with
      that side (into D_C or D_R), and the counts multiply.  Each one, u,
      with neighbors on both sides is removed by inclusion-exclusion: it
      leaves the pending set D, and the sets that avoid N(u), whose alive
      members then wait in turn, are subtracted.  With u_1, u_2, ... the
      straddlers in scan order and D_i the pending set once u_1..u_i
      have left it:
      cnt(A, D) = cnt(C, D_C) * cnt(R, D_R)
                  - sum_i cnt(A - N(u_i), D_i | (N(u_i) & A)),
      so no call re-enters with the same alive set;
    - if nothing is pending and alive is a join (its complement is
      disconnected), the counts of the two sides add;
    - if nothing is pending and alive has two or more vertices, the
      elimination DP _narrow_count counts it, unless its tables would
      hold more than COUNT_MEMO_BUDGET entries, or more than 3**(n//3)
      for n alive vertices (there the memo recursion is faster).  After
      one such refusal the call never tries the DP again;
    - otherwise it branches on a maximum-degree vertex: in the set, or
      excluded and pending.

    Unions of cliques and expression-built graphs thus resolve without
    branching, and never reach the DP: their remainders are single
    vertices or have something pending.  Narrow graphs are one DP call:
    a 128-vertex cycle or a 36-vertex cubic graph takes 2-10 ms.  The
    memo serves joins, pending sets and graphs too wide for the DP.  It
    lives for this call only; the graph keeps the final count, so a
    repeat call on the same Graph is O(1).

    Raises CountBudgetError rather than keep more than COUNT_MEMO_BUDGET
    memo entries, so every accepted graph returns or fails within about
    20 s of CPU time and 220 MiB (measured; see the constant).
    """
    total = g._cache.get("count_mis")
    if total is not None:
        return total
    adj = g.adj
    memo: dict[tuple[int, int], int] = {}
    refused = False

    def cnt(alive: int, need: int) -> int:
        nonlocal refused
        nd = need
        while nd:
            low = nd & -nd
            reach = adj[low.bit_length() - 1] & alive
            if not reach:
                return 0
            if reach & (reach - 1):
                nd ^= low
            else:  # forced: the one alive neighbor w enters the set
                w_adj = adj[reach.bit_length() - 1]
                alive &= ~(w_adj | reach)
                need &= ~w_adj
                nd = need
        if not alive:
            return 1
        key = (alive, need)
        r = memo.get(key)
        if r is not None:
            return r
        comp = _flood(adj, alive, 0)
        if comp != alive:
            rest = alive & ~comp
            need_c = need_r = r = 0
            nd = need
            while nd:
                low = nd & -nd
                nd ^= low
                reach = adj[low.bit_length() - 1] & alive
                if not reach & rest:
                    need_c |= low
                elif not reach & comp:
                    need_r |= low
                else:
                    need ^= low
                    r -= cnt(alive & ~reach, need | reach)
            part = cnt(comp, need_c)
            if part:
                r += part * cnt(rest, need_r)
        elif not need and (cocomp := _flood(adj, alive, -1)) != alive:
            r = cnt(cocomp, 0) + cnt(alive & ~cocomp, 0)
        else:
            r = None
            if not need and not refused and alive & (alive - 1):
                # past 3**(n//3) entries, the most MISes of n = 3k vertices,
                # the memo recursion measured faster: G(24, p = 0.3) held
                # 7e5 entries, 75 ms against 1 ms
                cap = min(COUNT_MEMO_BUDGET, 3 ** (alive.bit_count() // 3))
                r = _narrow_count(adj, alive, cap)
                refused = r is None
            if r is None:
                best = -1
                rem = alive
                while rem:
                    low = rem & -rem
                    rem ^= low
                    d = (adj[low.bit_length() - 1] & alive).bit_count()
                    if d > best:
                        best, bit = d, low
                v_adj = adj[bit.bit_length() - 1]
                r = cnt(alive & ~(v_adj | bit), need & ~v_adj) + cnt(
                    alive & ~bit, need | bit
                )
        if len(memo) >= COUNT_MEMO_BUDGET:
            raise CountBudgetError(COUNT_MEMO_BUDGET)
        memo[key] = r
        return r

    try:
        total = g._cache["count_mis"] = cnt(g.full_mask, 0)
    finally:
        memo.clear()  # cnt refers to itself, so without this only gc frees it
    return total


def _narrow_count(adj: tuple[int, ...], alive: int, budget: int) -> int | None:
    """MIS count of the subgraph induced by alive, by vertex elimination,
    or None when its tables would hold more than budget entries in total.

    The order is greedy minimum degree, least fill on ties (Bodlaender &
    Koster 2010).  Eliminating v with later neighborhood L(v) costs a
    table of 3**(|L(v)| + 1) entries, each axis one of IN, A (out, any)
    and N (out, no IN neighbor eliminated so far); D = A - N then counts
    the dominated outs, and in this basis merging children is a pointwise
    product (van Rooij, Bodlaender & Rossmanith 2009).  The order is
    complete before any table is built, so a refusal costs no DP work,
    and a dense graph is refused on its edge count alone.

    The table of v has axes v, then L(v) in elimination order, flat and
    row-major.  It is the product of the child messages, broadcast to
    those axes.  Then, for each true neighbor u in L(v): the IN block
    drops u in IN (independence) and in N (v dominates it), the N block
    drops u in IN (v's last chance of a dominator).  The message
    IN + A - N over L(v) goes to the first vertex of L(v), whose own L
    holds the rest of L(v).  The three blocks of v are built and summed
    into the message one at a time, so the table is never whole.  An
    empty L(v) closes a tree, and the count is the product over trees.
    """
    rows = {v: adj[v] & alive for v in _bits_of(alive)}
    # Each elimination removes its degree in edges, so the degrees sum to
    # at least the edge count m; by convexity the total is least when m is
    # spread evenly, n - r vertices of degree q and r of degree q + 1.
    n = len(rows)
    q, r = divmod(sum(map(int.bit_count, rows.values())) // 2, n)
    if (n + 2 * r) * 3 ** (q + 1) > budget:
        return None
    # (degree, twice the fill, v); a fill of -1 is not computed yet, and
    # is computed only once its vertex is among those of least degree
    rank = {v: (row.bit_count(), -1, v) for v, row in rows.items()}
    unknown = alive
    order = []
    total = 0
    while rank:
        d, f, v = min(rank.values())
        if total + 3 ** (d + 1) > budget:
            return None
        if f < 0:
            for x in _bits_of(unknown):
                if rank[x][0] == d:
                    rank[x] = (d, _fill(rows, rows[x]), x)
                    unknown ^= 1 << x
            continue
        total += 3 ** (d + 1)
        del rank[v]
        row = rows.pop(v)
        order.append((v, row))
        gone = 1 << v
        for u in _bits_of(row):
            rows[u] = (rows[u] | row) & ~(gone | 1 << u)
        # a fill changes with the row, or with a new edge between two
        # neighbors: only then can both ends of the edge lie in row
        seen = twice = 0
        for u in _bits_of(row):
            twice |= seen & rows[u]
            seen |= rows[u]
        dirty = row | twice
        unknown |= dirty
        for x in _bits_of(dirty):
            x_row = rows[x]
            e = x_row.bit_count()
            if e > d:
                rank[x] = (e, -1, x)
            else:  # likely among the least next time
                rank[x] = (e, _fill(rows, x_row), x)
                unknown ^= 1 << x

    pos = {v: i for i, (v, _) in enumerate(order)}
    inbox: dict[int, list] = {}
    count = 1
    for v, row in order:
        later = sorted(_bits_of(row), key=pos.__getitem__)
        block = 3 ** len(later)
        strides = [block // 3 ** (i + 1) for i, u in enumerate(later) if adj[v] >> u & 1]
        kids = inbox.pop(v, [])
        for state in range(3):  # the blocks of v in IN, A, N
            t = None
            for kid_axes, kid in kids:
                part = len(kid) // 3
                piece = kid[state * part : (state + 1) * part]
                piece = _broadcast(piece, kid_axes[1:], later)
                t = piece if t is None else list(map(mul, t, piece))
            if t is None:
                t = [1] * block
            for stride in strides:
                if state != 1:
                    _zero(t, stride, 0)
                if state == 0:
                    _zero(t, stride, 2)
            if state == 0:
                msg = t
            else:
                msg = list(map(add if state == 1 else sub, msg, t))
            del t
        del kids
        if later:
            inbox.setdefault(later[0], []).append((later, msg))
        else:
            count *= msg[0]
    return count


def _fill(rows: dict[int, int], row: int) -> int:
    """Twice the number of edges that eliminating a vertex with this row adds."""
    f = -row.bit_count()  # each neighbor u meets itself in row & ~rows[u]
    m = row
    while m:
        low = m & -m
        f += (row & ~rows[low.bit_length() - 1]).bit_count()
        m ^= low
    return f


def _broadcast(msg: list, have: list[int], axes: list[int]) -> list:
    """msg over the axes ``have``, a subsequence of ``axes``, repeated along
    the missing axes."""
    if len(have) == len(axes):
        return msg
    present = set(have)
    inner = 1  # entries per step of axes[i]
    i = len(axes) - 1
    while i >= 0:
        if axes[i] in present:
            inner *= 3
            i -= 1
            continue
        j = i - 1
        while j >= 0 and axes[j] not in present:
            j -= 1
        rep = 3 ** (i - j)
        msg = _repeat(msg, inner, rep)
        inner *= rep
        i = j
    return msg


def _repeat(cur: list, inner: int, rep: int) -> list:
    """cur as (outer, inner) blocks, each block repeated rep times in a row."""
    n = len(cur)
    step = inner * rep
    if n // inner <= step:
        out = []
        for o in range(0, n, inner):
            out += cur[o : o + inner] * rep
        return out
    out = [0] * (n * rep)
    for j in range(inner):
        col = cur[j::inner]
        for r in range(j, step, inner):
            out[r::step] = col
    return out


def _zero(t: list, stride: int, digit: int) -> None:
    """Zero the entries of t whose digit of this stride is digit."""
    step = 3 * stride
    outer = len(t) // step
    start = digit * stride
    if outer <= stride:
        zeros = [0] * stride
        for o in range(start, len(t), step):
            t[o : o + stride] = zeros
    else:
        zeros = [0] * outer
        for j in range(start, start + stride):
            t[j::step] = zeros


def _flood(adj: tuple[int, ...], alive: int, flip: int) -> int:
    """Connected component of the lowest alive vertex.

    flip = 0 floods G; flip = -1 inverts each row, flooding the complement.
    """
    comp = frontier = alive & -alive
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1] ^ flip
            frontier ^= low
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


class Variant(enum.Enum):
    """Shape choice for extremal graphs when n = 3i+1 admits two of them."""

    DEFAULT = "default"
    TWO_EDGES = "two-edges"
    K4 = "k4"


def extremal_graph(n: int, variant: Variant = Variant.DEFAULT) -> Graph:
    """An n-vertex graph attaining the maximum MIS count.

    Disjoint cliques in the quantities dictated by n mod 3: i triangles
    (n = 3i); i triangles plus an edge (n = 3i+2); and for n = 3i+1 >= 4
    either i-1 triangles plus two edges (TWO_EDGES, the default) or i-1
    triangles plus a K_4 (K4).  The MIS count is max_partition_product(n).
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_VERTICES}, got {n}")
    if variant != Variant.DEFAULT and not (n % 3 == 1 and n >= 4):
        raise ValueError(
            f"variant {variant.value!r} only applies when n = 3i+1 >= 4, got n={n}"
        )
    i, r = divmod(n, 3)
    # for n = 3i+1 the last triangle and the extra vertex make two edges or a K_4
    last = {0: [], 1: [4] if variant == Variant.K4 else [2, 2], 2: [2]}[r]
    sizes = [1] if n == 1 else [3] * (i - (r == 1)) + last
    adj = [0] * n
    off = 0
    for k in sizes:
        block = ((1 << k) - 1) << off
        for v in range(off, off + k):
            adj[v] = block ^ (1 << v)
        off += k
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Graph text format: "p <n> <m>" header, then m lines "e <u> <v>" with
# 0-based endpoints and u < v; lines starting with "c" are comments.


def graph_to_text(g: Graph) -> str:
    lines = [f"p {g.n} {g.edge_count()}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    n = None
    declared = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'p <n> <m>'")
            n, declared = int(parts[1]), int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = int(parts[1]), int(parts[2])
            if not u < v:
                raise ValueError(f"line {lineno}: endpoints must satisfy u < v")
            if (u, v) in seen:
                raise ValueError(f"line {lineno}: duplicate edge {u}-{v}")
            seen.add((u, v))
            edges.append((u, v))
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'p <n> <m>' header")
    if len(edges) != declared:
        raise ValueError(f"header declares {declared} edges, found {len(edges)}")
    return from_edges(n, edges)


def write_graph_text(g: Graph, path) -> None:
    Path(path).write_text(graph_to_text(g))


def read_graph_text(path) -> Graph:
    return graph_from_text(Path(path).read_text())
