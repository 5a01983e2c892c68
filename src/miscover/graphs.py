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
vertex elimination order (the better of two tie-breaks when the first is
large) with three states per vertex, unless its tables would exceed the
budget or 3**(n//3) entries for n vertices; then the recursion branches,
and makes no further attempt.  So narrow graphs count in milliseconds (a
128-vertex cycle in 2-5 ms), and a fixed memo budget makes every hard
graph fail fast with CountBudgetError instead of running on.
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
from typing import Iterable, Iterator, Sequence

from .closedforms import _is_index, _parts

MAX_VERTICES = 128
DEFAULT_MIS_CAP = 10_000_000
# count_mis memo entries, and the total table entries of one elimination
# DP (_narrow_count), which the benchmark's relabeled 36-vertex cubic
# graphs keep under 150 000 (at most 143 652 over 400 relabelings of its
# eight shapes).  Measured on a 2-core x86 host, Python 3.11: graphs the
# DP refuses reach the memo budget after 9-10 s of CPU (72-vertex cubic)
# to 12 s (128 vertices, p = 0.03), at a peak RSS of 210-215 MiB, about
# 180 MiB above an idle interpreter.
COUNT_MEMO_BUDGET = 1_000_000
# the masks a factor lists before _mis_factors asks _mis_lower_bound
# whether it exceeds its share of the cap (the policy is in _mis_factors'
# docstring).  65 536 masks are about 0.1 s of listing and ten times the
# benchmark's largest enumeration, 6 561 sets, so a factor with fewer sets
# never pays for the bound.  The probe is what keeps a bound of up to
# 1.5 s off small factors: G(48, 0.3), seed 1, lists its 4 890 MISes in
# 22 ms but takes 1.2 s to bound, nearly all in one accepted _narrow_count
# call; random 28-vertex cubic graphs take 0.9-2.7 ms, 30-70 % of their
# 2.8-5.5 ms listing (2-core x86 host, Python 3.11)
MIS_COUNT_PROBE = 65_536
# table entries per vertex past which _narrow_count tries its second
# tie-break.  One order costs about as much as 150 entries per vertex
# (0.27 / 0.41 ms at 30 / 36 vertices on a 2-core x86 host, Python 3.11),
# and a second order saves only a fraction of the total: counting an
# order as 150 entries a vertex, retrying past 300 or 600 raised the mean
# cost of the benchmark's relabeled 30-vertex cubic graphs, past 1000 it
# did not.  1 % of those pass it, and 52 % of the 36-vertex ones
_ORDER_RETRY = 1000
# _narrow_count's tie-breaks, in the order tried: lowest label, then highest
_TIES = (1, -1)


class MisCapError(ValueError, RuntimeError):
    """Raised when enumeration would exceed its cap.

    A ValueError like every other refusal in miscover, and still a
    RuntimeError, as it was before, for handlers that catch that.  A graph
    over the cap is refused without listing all its sets, so the error
    carries the cap alone: no count beyond it is known.
    """

    def __init__(self, cap: int):
        super().__init__(f"number of maximal independent sets exceeds cap {cap}")
        self.cap = cap

    def __reduce__(self):
        # pickle and copy rebuild an error from the arguments of __init__
        return type(self), (self.cap,), self.__dict__


class CountBudgetError(ValueError):
    """Raised when count_mis would keep more memo entries than its budget."""

    def __init__(self, budget: int):
        super().__init__(
            f"counting maximal independent sets needs more than {budget} "
            "memo entries; the graph is too hard to count"
        )
        self.budget = budget

    def __reduce__(self):
        return type(self), (self.budget,), self.__dict__


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
        _check_size("vertex count", self.n, 0)
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


def _check_size(name: str, x, lo: int) -> None:
    """The vertex-count check of every constructor: a non-bool int in
    lo..MAX_VERTICES, else a ValueError naming the argument."""
    if not (_is_index(x) and lo <= x <= MAX_VERTICES):
        raise ValueError(f"{name} must be in {lo}..{MAX_VERTICES}, got {x}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given undirected edges."""
    _check_size("vertex count", n, 0)
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
    _check_size("k", k, 0)
    full = (1 << k) - 1
    return Graph(k, tuple(full ^ (1 << v) for v in range(k)))


def cycle_graph(j: int) -> Graph:
    """C_j: vertices i and i+1 (mod j) adjacent, nothing else."""
    _check_size("cycle length", j, 3)
    return from_edges(j, [(i, (i + 1) % j) for i in range(j)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; h's vertices are relabeled after g's.

    The MIS count multiplies: every MIS of the union is the union of one
    MIS from each side.
    """
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    return Graph(n, tuple(_side_by_side(g.adj, h.adj, False)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges.

    The MIS count adds: an independent set cannot straddle the cross
    edges, so every MIS of the join is an MIS of one side.
    """
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join would have {n} > {MAX_VERTICES} vertices")
    return Graph(n, tuple(_side_by_side(g.adj, h.adj, True)))


def _side_by_side(a: Sequence[int], b: Sequence[int], joined: bool) -> list[int]:
    """The adjacency rows a, then the rows b with b's vertices numbered
    after a's; if ``joined``, every vertex of one side is also adjacent to
    every vertex of the other.  The one row rule of disjoint_union, join
    and complexity.graph_from_expression.
    """
    shift = len(a)
    a_side = (1 << shift) - 1 if joined else 0
    b_side = ((1 << len(b)) - 1) << shift if joined else 0
    return [row | b_side for row in a] + [row << shift | a_side for row in b]


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

    The bound comes after the probe's masks, not before them: it can cost
    far more than a small factor's listing (see MIS_COUNT_PROBE), and on
    the tests' random_graph, seed 1, it took 0.44 / 0.77 / 0.96 s of CPU
    on G(128, p) for p = 0.3 / 0.5 / 0.9, 0.93 s on G(64, 0.5) and 1.2 s
    on G(48, 0.3) (2-core x86, Python 3.11).
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
                raise MisCapError(cap)
            masks += islice(listing, share - MIS_COUNT_PROBE)
        if len(masks) > share:
            raise MisCapError(cap)
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
      elimination DP _narrow_count counts it, unless its tables, in the
      best order it tries, would hold more than COUNT_MEMO_BUDGET entries,
      or more than 3**(n//3) for n alive vertices (there the memo
      recursion is faster).  After one such refusal the call never tries
      the DP again;
    - otherwise it branches on a maximum-degree vertex: in the set, or
      excluded and pending.

    Unions of cliques and expression-built graphs thus resolve without
    branching, and never reach the DP: their remainders are single
    vertices or have something pending.  Narrow graphs are one DP call:
    a 128-vertex cycle takes about 3 ms, a 36-vertex cubic graph 1.5 to
    17 ms, 4 ms in the median (2-core x86 host, Python 3.11).  The
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

    Greedy orders are sensitive to the ties left after degree and fill,
    so one labelling of a graph can need several times the entries of
    another.  The order therefore comes from a portfolio of tie-breaks
    (_best_order): lowest label first, then highest.  The second runs
    only when the first is refused or its total passes _ORDER_RETRY
    entries per vertex, so most small graphs pay for one order.  It gets
    the first's total less one as its budget, so it stops as soon as it
    cannot win.  Of the orders run, the one with the least total is
    built, the first on a tie.

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
    best = _best_order(rows, alive, budget)
    if best is None:
        return None
    order = best[0]

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


def _best_order(rows: dict[int, int], alive: int, budget: int) -> tuple[list, int] | None:
    """The order _narrow_count builds, by its portfolio rule, and its
    total; or None when every tie-break is refused."""
    best = None
    for tie in _TIES:
        got = _order(rows, alive, budget, tie)
        if got is not None:
            best = got
            budget = got[1] - 1  # a later order stops once it cannot win
        if best is not None and best[1] <= _ORDER_RETRY * len(rows):
            break
    return best


def _order(rows: dict[int, int], alive: int, budget: int, tie: int) -> tuple[list, int] | None:
    """A greedy elimination order of the vertices of rows (v: its row in
    alive) as (v, later neighbors) pairs, and its total table entries; or
    None once that total would pass budget.

    Minimum degree, then least fill, then least tie * v: tie is 1 for the
    lowest label, -1 for the highest.  rows is not changed.
    """
    # (degree, twice the fill, tie * v); a fill of -1 is not computed yet,
    # and is computed only once its vertex is among those of least degree
    rows = dict(rows)
    rank = {v: (row.bit_count(), -1, tie * v) for v, row in rows.items()}
    unknown = alive
    order = []
    total = 0
    while rank:
        d, f, key = min(rank.values())
        if total + 3 ** (d + 1) > budget:
            return None
        if f < 0:
            for x in _bits_of(unknown):
                if rank[x][0] == d:
                    rank[x] = (d, _fill(rows, rows[x]), tie * x)
                    unknown ^= 1 << x
            continue
        v = tie * key
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
                rank[x] = (e, -1, tie * x)
            else:  # likely among the least next time
                rank[x] = (e, _fill(rows, x_row), tie * x)
                unknown ^= 1 << x
    return order, total


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

    Disjoint cliques, in label order, one per part of
    ``closedforms._parts(n)``: i triangles (n = 3i); i triangles plus an
    edge (n = 3i+2); and for n = 3i+1 >= 4 either i-1 triangles plus two
    edges (TWO_EDGES, the default) or i-1 triangles plus a K_4 (K4).  The
    MIS count is max_partition_product(n).
    """
    _check_size("n", n, 1)
    if variant != Variant.DEFAULT and not (n % 3 == 1 and n >= 4):
        raise ValueError(
            f"variant {variant.value!r} only applies when n = 3i+1 >= 4, got n={n}"
        )
    i, tail = _parts(n)
    # for n = 3i+1 the two edges of the tail may be one K_4 instead
    sizes = [3] * i + ([4] if variant == Variant.K4 else tail)
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
            n, declared = _int_fields(parts, lineno)
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = _int_fields(parts, lineno)
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


def _int_fields(parts: list[str], lineno: int) -> tuple[int, int]:
    """The two integer fields of a record, or a ValueError naming the line."""
    try:
        return int(parts[1]), int(parts[2])
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None


def write_graph_text(g: Graph, path) -> None:
    Path(path).write_text(graph_to_text(g))


def read_graph_text(path) -> Graph:
    return graph_from_text(Path(path).read_text())
