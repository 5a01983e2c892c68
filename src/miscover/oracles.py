"""Brute-force recomputation of every headline quantity, at desk scale.

Nothing here reuses the closed forms or the production algorithms it
certifies.  Partition products come from exhaustive partition search, MIS
maxima from scanning every labeled graph (counting maximal sets straight
from the definition, vectorized across all graphs at once), the MISes of
one graph from testing every vertex subset the same way, separating
minima from exhaustive family search, complexity from breadth-first
reachable-value sets, and one MIS per element of a cover's disjointness
graph from a greedy extension over a pairwise adjacency.
``run_verification`` compares each oracle with its closed-form or DP
counterpart and reports agreement.  numpy is imported inside the two
scans that use it, so that importing the package does not load it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

from .closedforms import max_partition_product, min_separating_sets
from .complexity import complexity_table
from .covers import SeparatingCover, graph_from_cover, minimal_cover
from .graphs import Graph, Variant, VertexSet, count_mis, extremal_graph, from_edges

MAX_SCAN_VERTICES = 7  # 2**21 graphs; n = 8 would be 2**28, minutes of CPU


def brute_max_partition_product(n: int) -> int:
    """Maximum product over all integer partitions of n, by direct search."""
    if not 1 <= n <= 45:
        raise ValueError(f"n must be in 1..45, got {n}")
    return _best_product(n, n)


@lru_cache(maxsize=None)
def _best_product(remaining: int, cap: int) -> int:
    if remaining == 0:
        return 1
    best = 0
    for part in range(1, min(remaining, cap) + 1):
        cand = part * _best_product(remaining - part, part)
        if cand > best:
            best = cand
    return best


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@lru_cache(maxsize=None)
def _scan_all_graphs(n: int) -> tuple[int, tuple[int, ...]]:
    """(max MIS count, edge masks attaining it) over all 2**C(n,2) graphs.

    For every vertex subset S the scan marks, across all graphs at once,
    whether S is independent (no graph edge inside S) and maximal (every
    outside vertex sees an edge into S), accumulating per-graph counts.
    """
    import numpy as np

    pairs = _edge_pairs(n)
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    graphs = np.arange(1 << len(pairs), dtype=np.uint32)
    counts = np.zeros(len(graphs), dtype=np.uint8)  # counts <= C(7,3) = 35
    for s in range(1, 1 << n):
        inside = sum(bit[p] for p in pairs if s >> p[0] & 1 and s >> p[1] & 1)
        ok = (graphs & inside) == 0
        for v in range(n):
            if s >> v & 1:
                continue
            touching = sum(
                bit[tuple(sorted((v, u)))] for u in range(n) if s >> u & 1
            )
            ok &= (graphs & touching) != 0
        counts += ok
    best = int(counts.max())
    winners = tuple(int(x) for x in np.nonzero(counts == best)[0])
    return best, winners


def brute_max_mis_count(n: int) -> int:
    """Maximum MIS count over ALL labeled graphs on n vertices (n <= 7)."""
    if not 1 <= n <= MAX_SCAN_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_SCAN_VERTICES}, got {n}")
    return _scan_all_graphs(n)[0]


def brute_mis_masks(g: Graph) -> list[int]:
    """Every MIS bitmask of g in ascending order, straight from the definition.

    Tests all 2**n vertex subsets at once: a subset qualifies when each of
    its vertices has no neighbor inside it and each other vertex has one.
    Limited to n <= 20 (2**20 subsets).
    """
    if g.n > 20:
        raise ValueError(f"scanning every vertex subset needs n <= 20, got {g.n}")
    import numpy as np

    subsets = np.arange(1 << g.n, dtype=np.int64)
    ok = np.ones(len(subsets), dtype=bool)
    for v, row in enumerate(g.adj):
        inside = (subsets >> v & 1).astype(bool)
        ok &= inside != ((subsets & row) != 0)
    return [int(s) for s in np.flatnonzero(ok)]


def greedy_mis_witnesses(cover: SeparatingCover) -> list[VertexSet]:
    """One MIS of graph_from_cover(cover) per ground element, all distinct.

    Element x starts from the independent set {sets containing x} and is
    extended greedily by ascending vertex index.  Distinctness is what
    makes the constructed graph have at least ground_size MISes.  The
    graph's adjacency (sets adjacent exactly when disjoint) and each
    element's signature (the sets containing it) are built here set by
    set, apart from the library's.
    """
    adj = [sum(1 << j for j, t in enumerate(cover.sets) if not s & t) for s in cover.sets]
    signature = [0] * cover.ground_size
    for i, s in enumerate(cover.sets):
        for x in range(cover.ground_size):
            if s >> x & 1:
                signature[x] |= 1 << i
    witnesses = []
    for current in signature:
        for v, row in enumerate(adj):
            if not row & current:  # no neighbor of v in current; a no-op if v is in it
                current |= 1 << v
        witnesses.append(VertexSet(current, len(adj)))
    return witnesses


def _cover_witnesses(m: int):
    """Distinct greedy witnesses for minimal_cover(m): m when all is well.

    They are MISes of graph_from_cover(minimal_cover(m)), so count_mis of
    that graph must reach their number; a shortfall is returned as text.
    """
    cover = minimal_cover(m)
    found = len({w.bits for w in greedy_mis_witnesses(cover)})
    count = count_mis(graph_from_cover(cover))
    return found if count >= found else f"count_mis {count} < {found} witnesses"


def brute_min_separating_sets(m: int, mode: str = "direct") -> int:
    """Smallest separating cover on m elements, by exhaustive search.

    direct mode (m <= 4): try every family of n distinct nonempty subsets
    of the ground set, for n = 1, 2, ...; families are generated in a
    fixed subset order, which silently skips permuted duplicates.

    reduction mode (m <= 12): min{n : brute_max_mis_count(n) >= m}, the
    graph side of the same quantity.
    """
    if mode == "direct":
        if not 1 <= m <= 4:
            raise ValueError(f"direct mode supports m in 1..4, got {m}")
        subsets = range(1, 1 << m)
        for n in range(1, (1 << m)):
            for family in itertools.combinations(subsets, n):
                if _separates(m, family):
                    return n
        raise AssertionError("unreachable: the singleton family always separates")
    if mode == "reduction":
        if not 1 <= m <= 12:
            raise ValueError(f"reduction mode supports m in 1..12, got {m}")
        n = 1
        while brute_max_mis_count(n) < m:
            n += 1
        return n
    raise ValueError(f"mode must be 'direct' or 'reduction', got {mode!r}")


def _separates(m: int, family: tuple[int, ...]) -> bool:
    """Whether the subsets in family cover 0..m-1 and put each pair x < y
    in two disjoint members, straight from the definition."""
    union = 0
    for s in family:
        union |= s
    return union == (1 << m) - 1 and all(
        any(s >> x & 1 and t >> y & 1 and not s & t for s in family for t in family)
        for x, y in itertools.combinations(range(m), 2)
    )


def brute_complexity(m: int) -> int:
    """Least number of 1s expressing m, by reachable-value breadth search."""
    if not 1 <= m <= 500:
        raise ValueError(f"m must be in 1..500, got {m}")
    return _first_levels()[m]


@lru_cache(maxsize=None)
def _first_levels() -> dict[int, int]:
    """The level at which each value 1..500 first appears.

    V(n) holds every value expressible with exactly n ones, clipped at
    500.  Clipping loses nothing: x + y and x * y are both at least
    max(x, y) for positive x and y, so every subvalue of an expression is
    at most its value.  One search answers every m <= 500.
    """
    cap = 500
    levels: list[set[int]] = [set(), {1}]
    first = {1: 1}
    for n in itertools.count(2):
        cur: set[int] = set()
        for a in range(1, n // 2 + 1):
            for x in levels[a]:
                for y in levels[n - a]:
                    s = x + y
                    if s <= cap:
                        cur.add(s)
                    p = x * y
                    if p <= cap:
                        cur.add(p)
        for v in cur:
            first.setdefault(v, n)
        if len(first) == cap:
            return first
        levels.append(cur)


def _graph_from_edge_mask(n: int, mask: int) -> Graph:
    pairs = _edge_pairs(n)
    return from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def _edge_mask_of(g: Graph) -> int:
    return sum(1 << k for k, (u, v) in enumerate(_edge_pairs(g.n)) if g.has_edge(u, v))


@lru_cache(maxsize=None)
def _perm_edge_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex permutation, where each edge-bit position lands."""
    pairs = _edge_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    maps = []
    for perm in itertools.permutations(range(n)):
        maps.append(
            tuple(index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs)
        )
    return tuple(maps)


def canonical_form(g: Graph) -> int:
    """Smallest edge mask over all vertex relabelings (n <= 8 only)."""
    if g.n > 8:
        raise ValueError(f"canonical form by permutation scan needs n <= 8, got {g.n}")
    mask = _edge_mask_of(g)
    bits = [k for k in range(len(_edge_pairs(g.n))) if mask >> k & 1]
    best = mask
    for emap in _perm_edge_maps(g.n):
        out = 0
        for k in bits:
            out |= 1 << emap[k]
        if out < best:
            best = out
    return best


def extremal_graphs_up_to_iso(n: int) -> list[Graph]:
    """All n-vertex graphs attaining the maximum MIS count, up to isomorphism.

    Scans every labeled graph, keeps the winners, and deduplicates by
    canonical form; returns one representative per class, in canonical
    edge-mask order.
    """
    if not 1 <= n <= MAX_SCAN_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_SCAN_VERTICES}, got {n}")
    _, winners = _scan_all_graphs(n)
    forms = sorted({canonical_form(_graph_from_edge_mask(n, w)) for w in winners})
    return [_graph_from_edge_mask(n, f) for f in forms]


@dataclass(frozen=True)
class OracleReport:
    """One oracle-vs-production comparison."""

    quantity: str
    input: str
    oracle_value: str
    expected_value: str
    agree: bool
    elapsed: float

    def tsv_line(self) -> str:
        cols = [
            self.quantity,
            self.input,
            self.oracle_value,
            self.expected_value,
            "OK" if self.agree else "FAIL",
        ]
        return "\t".join(cols)


def _report(quantity, inp, compute_oracle, expected) -> OracleReport:
    t0 = time.perf_counter()
    got = compute_oracle()
    elapsed = time.perf_counter() - t0
    return OracleReport(
        quantity=quantity,
        input=str(inp),
        oracle_value=str(got),
        expected_value=str(expected),
        agree=got == expected,
        elapsed=elapsed,
    )


def run_verification(level: str = "quick") -> list[OracleReport]:
    """Re-derive the library's claims by brute force and compare.

    quick keeps the graph scans at n <= 6 and complexity at m <= 300 and
    finishes well under a minute; full raises them to n = 7 / m = 500 and
    adds the two-extremal-graphs check at n = 7 and the cover -> graph
    direction: distinct greedy witnesses on minimal_cover(m), m <= 243.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    g_max = 7 if full else 6
    s_max = 12 if full else 9
    c_max = 500 if full else 300
    reports = []

    for n in range(1, 41):
        reports.append(
            _report(
                "partition-product",
                n,
                lambda n=n: brute_max_partition_product(n),
                max_partition_product(n),
            )
        )
    for n in range(1, g_max + 1):
        reports.append(
            _report(
                "max-mis-count",
                n,
                lambda n=n: brute_max_mis_count(n),
                max_partition_product(n),
            )
        )
    for m in range(1, s_max + 1):
        reports.append(
            _report(
                "separating-min/reduction",
                m,
                lambda m=m: brute_min_separating_sets(m, mode="reduction"),
                min_separating_sets(m),
            )
        )
    for m in range(1, 5):
        reports.append(
            _report(
                "separating-min/direct",
                m,
                lambda m=m: brute_min_separating_sets(m, mode="direct"),
                min_separating_sets(m),
            )
        )
    table = complexity_table(c_max)
    for m in range(1, c_max + 1):
        reports.append(
            _report("complexity", m, lambda m=m: brute_complexity(m), table[m])
        )
    # other direction of the duality: largest m handled by n sets, against
    # the closed form (reduction mode is defined by brute_max_mis_count, so
    # comparing with that would hold for any monotone count)
    for n in range(1, g_max + 1):
        cap = min(s_max, 12)
        reports.append(
            _report(
                "max-m-with-n-sets",
                n,
                lambda n=n, cap=cap: max(
                    m
                    for m in range(1, cap + 1)
                    if brute_min_separating_sets(m, mode="reduction") <= n
                ),
                max_partition_product(n),
            )
        )
    # extremal graphs match the clique-union constructions exactly
    for n in (2, 3, 5, 6):
        reports.append(
            _report(
                "extremal-canonical",
                n,
                lambda n=n: sorted(
                    canonical_form(g) for g in extremal_graphs_up_to_iso(n)
                ),
                [canonical_form(extremal_graph(n))],
            )
        )
    counts = {6: 1} if not full else {6: 1, 7: 2}
    for n, expected in counts.items():
        reports.append(
            _report(
                "extremal-class-count",
                n,
                lambda n=n: len(extremal_graphs_up_to_iso(n)),
                expected,
            )
        )
    if full:
        reports.append(
            _report(
                "extremal-canonical",
                7,
                lambda: sorted(canonical_form(g) for g in extremal_graphs_up_to_iso(7)),
                sorted(
                    canonical_form(extremal_graph(7, v))
                    for v in (Variant.TWO_EDGES, Variant.K4)
                ),
            )
        )
        for m in range(1, 244):
            reports.append(
                _report("cover-witnesses", m, lambda m=m: _cover_witnesses(m), m)
            )
    return reports
