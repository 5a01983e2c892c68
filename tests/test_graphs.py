import copy
import dataclasses
import pickle
import random
import re
import time
import tracemalloc
from itertools import islice

import pytest

import miscover.graphs
from conftest import (
    all_graphs,
    chain_of_triangles,
    prism_graph,
    random_cubic_graph,
    random_graph,
    random_tree,
)
from miscover import (
    DEFAULT_MIS_CAP,
    CountBudgetError,
    Graph,
    MisCapError,
    Variant,
    VertexSet,
    add,
    closed_neighborhood,
    complete_graph,
    complexity_table,
    count_mis,
    cover_from_graph,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    enumerate_mis,
    extremal_graph,
    from_edges,
    graph_from_expression,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    is_independent,
    is_maximal_independent,
    join,
    max_partition_product,
    minimal_expression,
    mul,
    one,
    perrin,
)
from miscover.graphs import (
    COUNT_MEMO_BUDGET,
    MIS_COUNT_PROBE,
    _bits_of,
    _flood,
    _mis_factors,
    _mis_lower_bound,
    _mis_masks,
    _narrow_count,
)
from miscover.oracles import brute_mis_masks


def seed_count_mis(g: Graph) -> int:
    """The count_mis recursion before its component split became one loop,
    as a reference: verbatim but for the Graph._cache lookup and store, so
    that it never answers for, or from, the code under test."""
    adj = g.adj
    memo: dict[tuple[int, int], int] = {}
    budget = miscover.graphs.COUNT_MEMO_BUDGET

    def cnt(alive: int, need: int) -> int:
        nd = need
        while nd:
            low = nd & -nd
            reach = adj[low.bit_length() - 1] & alive
            if not reach:
                return 0
            if not reach & (reach - 1):
                w_adj = adj[reach.bit_length() - 1]
                return cnt(alive & ~(w_adj | reach), need & ~w_adj)
            nd ^= low
        if not alive:
            return 1
        key = (alive, need)
        r = memo.get(key)
        if r is not None:
            return r
        comp = seed_flood(adj, alive, complement=False)
        if comp != alive:
            rest = alive & ~comp
            need_c = need_r = 0
            for u in _bits_of(need):
                reach = adj[u] & alive
                if not reach & rest:
                    need_c |= 1 << u
                elif not reach & comp:
                    need_r |= 1 << u
                else:
                    others = need & ~(1 << u)
                    r = cnt(alive, others) - cnt(alive & ~reach, others | reach)
                    break
            else:
                r = cnt(comp, need_c)
                if r:
                    r *= cnt(rest, need_r)
        elif not need:
            cocomp = seed_flood(adj, alive, complement=True)
            if cocomp != alive:
                r = cnt(cocomp, 0) + cnt(alive & ~cocomp, 0)
        if r is None:
            v = seed_branch_vertex(adj, alive)
            bit = 1 << v
            r = cnt(alive & ~(adj[v] | bit), need & ~adj[v]) + cnt(
                alive & ~bit, need | bit
            )
        if len(memo) >= budget:
            raise CountBudgetError(budget)
        memo[key] = r
        return r

    try:
        total = cnt(g.full_mask, 0)
    finally:
        memo.clear()
    return total


def seed_flood(adj: tuple[int, ...], alive: int, complement: bool) -> int:
    """Connected component of the lowest alive vertex, in G or its complement."""
    comp = alive & -alive
    frontier = comp
    while frontier:
        nxt = 0
        for v in _bits_of(frontier):
            if complement:
                nxt |= alive & ~adj[v] & ~(1 << v)
            else:
                nxt |= alive & adj[v]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def seed_branch_vertex(adj: tuple[int, ...], alive: int) -> int:
    """Maximum-degree vertex within the induced mask, lowest index on ties."""
    best_v = -1
    best_d = -1
    for v in _bits_of(alive):
        d = (adj[v] & alive).bit_count()
        if d > best_d:
            best_v, best_d = v, d
    return best_v


def seed_mis_masks(adj: tuple[int, ...], alive: int, limit: int) -> list[int]:
    """The MIS enumerator before its product split, verbatim: the
    lowest-vertex recursion alone, include branch first."""
    out: list[int] = []

    def rec(alive: int, partial: int, need: int) -> None:
        if len(out) >= limit:
            return
        nd = need
        while nd:
            low = nd & -nd
            if not adj[low.bit_length() - 1] & alive:
                return  # an excluded vertex can never be dominated
            nd ^= low
        if not alive:
            out.append(partial)
            return
        bit = alive & -alive
        nbrs = adj[bit.bit_length() - 1]
        rec(alive & ~(nbrs | bit), partial | bit, need & ~nbrs)
        rec(alive & ~bit, partial, need | bit)

    rec(alive, 0, 0)
    return out


def canonical_masks(g: Graph) -> list[int]:
    """Brute-force MIS masks, ordered by their ascending member lists."""
    return sorted(brute_mis_masks(g), key=lambda m: list(_bits_of(m)))


def random_union(rng: random.Random, depth: int = 2) -> Graph:
    """A nest of disjoint unions whose leaves are small random graphs, K1s
    and edgeless graphs (isolated vertices): at most 5 * 2**depth vertices."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.2:
            return complete_graph(1)
        if kind < 0.3:
            return Graph(2, (0, 0))
        return random_graph(rng, rng.randint(1, 5), rng.choice([0.2, 0.5, 0.8]))
    return disjoint_union(random_union(rng, depth - 1), random_union(rng, depth - 1))


def interleaved(g: Graph) -> tuple[Graph, bool]:
    """g relabeled by dealing out its components' vertices round-robin,
    largest component first, and whether the components now interleave:
    true when there are two or more and the largest has two vertices."""
    comps = []
    alive = g.full_mask
    while alive:
        comp = seed_flood(g.adj, alive, complement=False)
        comps.append(list(_bits_of(comp)))
        alive &= ~comp
    comps.sort(key=len, reverse=True)
    order = [c[i] for i in range(len(comps[0])) for c in comps if i < len(c)]
    pos = {v: i for i, v in enumerate(order)}
    h = from_edges(g.n, [(pos[u], pos[v]) for u, v in g.edges()])
    return h, len(comps) >= 2 and len(comps[0]) >= 2


def spider_graph(rng: random.Random, hubs: int, legs: int, length: int) -> Graph:
    """Paths of ``length`` vertices ("legs"), each end joined to a random hub.

    Branching picks the hubs early (they have the highest degrees), and an
    excluded hub waits for a neighbor spread over several legs: a pending
    vertex that straddles two or three components."""
    n = hubs + legs * length
    edges = set()
    for k in range(legs):
        first = hubs + k * length
        edges.update((first + i, first + i + 1) for i in range(length - 1))
        edges.add((rng.randrange(hubs), first))
        edges.add((rng.randrange(hubs), first + length - 1))
    return from_edges(n, edges)


def test_complete_graph_mis_counts():
    assert count_mis(complete_graph(1)) == 1
    assert count_mis(complete_graph(3)) == 3
    assert count_mis(complete_graph(4)) == 4


def test_complete_graph_rejects_oversize():
    with pytest.raises(ValueError):
        complete_graph(129)


def test_cycle_graph_counts():
    assert count_mis(cycle_graph(3)) == 3  # C_3 = K_3
    assert count_mis(cycle_graph(4)) == 2
    assert count_mis(cycle_graph(5)) == 5
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_graph_validation():
    with pytest.raises(ValueError, match="^edge 0-1 is not symmetric$"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError, match="^edge 0-2 is not symmetric$"):
        Graph(3, (0b110, 0b001, 0))  # the first missing reverse edge
    with pytest.raises(ValueError, match="^vertex 0 is its own neighbor$"):
        Graph(1, (1,))
    with pytest.raises(ValueError, match=r"^adjacency row 0 has bits outside 0\.\.1$"):
        Graph(2, (4, 0))
    with pytest.raises(ValueError, match="^adjacency has 1 rows for n=2$"):
        Graph(2, (0,))
    with pytest.raises(ValueError):
        from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        from_edges(2, [(0, 1), (1, 1)])
    # checked before the adjacency list of n rows is allocated
    for n in (-1, 129, 10**12):
        with pytest.raises(ValueError, match=rf"^vertex count must be in 0\.\.128, got {n}$"):
            from_edges(n, [])


def test_disjoint_union_multiplies():
    k3 = complete_graph(3)
    assert count_mis(disjoint_union(k3, k3)) == 9
    k2 = complete_graph(2)
    assert count_mis(disjoint_union(k2, k2)) == 4
    g = cycle_graph(5)
    assert count_mis(disjoint_union(g, complete_graph(1))) == count_mis(g)


def test_union_and_join_reject_overflow():
    big = complete_graph(100)
    with pytest.raises(ValueError):
        disjoint_union(big, complete_graph(29))
    with pytest.raises(ValueError):
        join(big, complete_graph(29))


def test_join_adds():
    assert join(complete_graph(2), complete_graph(2)) == complete_graph(4)
    assert join(complete_graph(3), complete_graph(4)) == complete_graph(7)
    assert count_mis(join(complete_graph(2), complete_graph(2))) == 4
    assert count_mis(join(cycle_graph(5), complete_graph(1))) == 6


def test_closed_neighborhood():
    assert closed_neighborhood(complete_graph(3), 0).members() == (0, 1, 2)
    assert closed_neighborhood(Graph(3, (0, 0, 0)), 1).members() == (1,)
    assert closed_neighborhood(cycle_graph(5), 2).members() == (1, 2, 3)
    with pytest.raises(ValueError):
        closed_neighborhood(complete_graph(3), 3)


def test_enumerate_mis_canonical_order():
    assert [s.members() for s in enumerate_mis(Graph(4, (0,) * 4))] == [(0, 1, 2, 3)]
    assert [s.members() for s in enumerate_mis(complete_graph(3))] == [(0,), (1,), (2,)]
    path = from_edges(3, [(0, 1), (1, 2)])
    assert [s.members() for s in enumerate_mis(path)] == [(0, 2), (1,)]


def test_enumerate_mis_cap_error_is_a_value_error_carrying_the_cap():
    g = extremal_graph(12)  # 81 MISes
    with pytest.raises(MisCapError) as exc:
        enumerate_mis(g, cap=17)
    # a ValueError like every refusal, and still the RuntimeError it was
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, RuntimeError)
    assert exc.value.cap == 17
    assert str(exc.value) == "number of maximal independent sets exceeds cap 17"


@pytest.mark.parametrize("cap", [-1, True, 2.5])
@pytest.mark.parametrize("fn", [enumerate_mis, cover_from_graph])
def test_cap_must_be_a_nonnegative_int(fn, cap):
    with pytest.raises(ValueError, match=f"cap must be an int >= 0, got {cap!r}$"):
        fn(cycle_graph(5), cap=cap)


def test_mis_masks_match_seed_recursion_on_unions():
    # the branch recursion alone and the product of the factors must both
    # give the seed recursion's list exactly, and interleaved components
    # must reach that recursion unsplit
    rng = random.Random(29)
    for _ in range(300):
        g = random_union(rng, rng.choice([1, 2, 2, 3]))
        h, mixed = interleaved(g)
        for x in (g, h):
            expected = seed_mis_masks(x.adj, x.full_mask, 10**6)
            assert list(_mis_masks(x.adj, x.full_mask)) == expected
            assert [s.bits for s in enumerate_mis(x)] == expected
        if mixed:
            comp = seed_flood(h.adj, h.full_mask, complement=False)
            rest = h.full_mask & ~comp
            assert rest and comp > rest & -rest  # the fallback's condition


def test_mis_masks_match_seed_recursion_on_extremal_graphs():
    for n in range(1, 31):
        for variant in Variant:
            if variant != Variant.DEFAULT and not (n % 3 == 1 and n >= 4):
                continue
            g = extremal_graph(n, variant)
            masks = list(_mis_masks(g.adj, g.full_mask))
            assert masks == seed_mis_masks(g.adj, g.full_mask, 10**6)
            assert [s.bits for s in enumerate_mis(g)] == masks
            assert len(masks) == max_partition_product(n)


def test_union_enumeration_order_is_canonical_by_brute_force():
    rng = random.Random(31)
    seen = 0
    while seen < 300:
        g = random_union(rng)
        if g.n > 12:
            continue
        seen += 1
        expected = canonical_masks(g)
        assert [s.bits for s in enumerate_mis(g)] == expected
        h, _ = interleaved(g)
        assert [s.bits for s in enumerate_mis(h)] == canonical_masks(h)


def factor_product(factors: list[tuple[int, list[int]]]) -> list[int]:
    """The C-major product of _mis_factors' lists: every MIS mask in order."""
    masks = [0]
    for _, listed in factors:
        masks = [a | b for a in masks for b in listed]
    return masks


def spy_on_listings(monkeypatch) -> list[int]:
    """How many masks _mis_factors draws from each factor's listing."""
    drawn = []
    lister = miscover.graphs._mis_masks

    def spy(adj, whole):
        drawn.append(0)
        for mask in lister(adj, whole):
            drawn[-1] += 1
            yield mask

    monkeypatch.setattr(miscover.graphs, "_mis_masks", spy)
    return drawn


def test_mis_masks_stop_at_every_cap(monkeypatch):
    path4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    uneven = disjoint_union(
        disjoint_union(cycle_graph(5), complete_graph(1)),
        disjoint_union(path4, complete_graph(4)),
    )  # 5 * 1 * 3 * 4 = 60 MISes
    # a prism and a spider branch, and their pending vertices force often
    spider = spider_graph(random.Random(43), 2, 3, 3)
    drawn = spy_on_listings(monkeypatch)
    for g in (extremal_graph(9), uneven, prism_graph(6), spider):
        full = seed_mis_masks(g.adj, g.full_mask, 10**6)
        for cap in range(len(full)):
            drawn.clear()
            with pytest.raises(MisCapError) as exc:
                _mis_factors(g.adj, g.full_mask, cap)
            assert exc.value.cap == cap
            assert max(drawn) <= cap + 1  # no listing runs past its share
            with pytest.raises(MisCapError) as exc:
                enumerate_mis(g, cap=cap)
            assert exc.value.cap == cap
        for cap in (len(full), len(full) + 1):
            assert factor_product(_mis_factors(g.adj, g.full_mask, cap)) == full
        assert [s.bits for s in enumerate_mis(g, cap=len(full))] == full


@pytest.mark.parametrize("fn", [enumerate_mis, cover_from_graph])
def test_union_over_the_cap_is_refused_before_listing(fn):
    # 3**20 MISes: the product split refuses after a few triangles, so no
    # list of masks near the cap's size is ever built
    g = extremal_graph(60)
    tracemalloc.start()
    try:
        with pytest.raises(MisCapError):
            fn(g, cap=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumeration_allocates_one_small_object_per_set():
    # 59 049 MISes: a slotted VertexSet, its mask and its list slot come to
    # about 97 B per set; one with an instance dict took about 201 B
    g = extremal_graph(30)
    tracemalloc.start()
    try:
        sets = enumerate_mis(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sets) == 3**10
    assert peak <= 120 * len(sets)


def spy_on_bounds(monkeypatch) -> list[int]:
    """The alive mask of each lower bound that enumeration asks for, as it
    asks; the bound's calls on its own parts are not recorded."""
    calls = []
    bound = miscover.graphs._mis_lower_bound
    depth = 0

    def spy(adj, alive, budget):
        nonlocal depth
        if not depth:
            calls.append(alive)
        depth += 1
        try:
            return bound(adj, alive, budget)
        finally:
            depth -= 1

    monkeypatch.setattr(miscover.graphs, "_mis_lower_bound", spy)
    return calls


@pytest.mark.parametrize("fn", [enumerate_mis, cover_from_graph])
def test_connected_graph_over_the_cap_is_refused_at_the_probe(fn, monkeypatch):
    # 267 914 296 MISes, which the lower bound finds exactly in milliseconds,
    # so the listing stops at MIS_COUNT_PROBE masks (0.1 s), not at cap + 1
    # (15 s)
    g = chain_of_triangles(20)
    calls = spy_on_bounds(monkeypatch)
    drawn = spy_on_listings(monkeypatch)
    with pytest.raises(MisCapError) as exc:
        fn(g, cap=10**7)
    assert exc.value.cap == 10**7
    assert calls == [g.full_mask]
    assert drawn == [miscover.graphs.MIS_COUNT_PROBE + 1]
    assert _mis_lower_bound(g.adj, g.full_mask, 10**7) == count_mis(g) == 267_914_296


def test_mis_masks_probe_keeps_every_list_and_refusal(monkeypatch):
    # past a probe of 3 or 30 masks, the lower bound is asked, with a DP
    # budget of the cap, under every larger cap; a bound over the cap
    # refuses at once, and one within it keeps listing.  The answers stay
    # the seed recursion's either way.
    bound = miscover.graphs._mis_lower_bound
    calls = spy_on_bounds(monkeypatch)
    drawn = spy_on_listings(monkeypatch)
    spider = spider_graph(random.Random(43), 2, 3, 3)
    graphs = [prism_graph(6), spider, chain_of_triangles(4), cycle_graph(11)]
    refused = []
    for probe in (3, 30):
        monkeypatch.setattr(miscover.graphs, "MIS_COUNT_PROBE", probe)
        for g in graphs:
            full = seed_mis_masks(g.adj, g.full_mask, 10**6)
            for cap in range(len(full) + 2):
                calls.clear()
                drawn.clear()
                if cap >= len(full):
                    assert _mis_factors(g.adj, g.full_mask, cap) == [(g.full_mask, full)]
                else:
                    with pytest.raises(MisCapError):
                        _mis_factors(g.adj, g.full_mask, cap)
                if probe < cap < len(full):
                    assert calls == [g.full_mask]
                    over = bound(g.adj, g.full_mask, cap) > cap
                    refused.append(over)
                    assert drawn == [probe + 1 if over else cap + 1]
                else:
                    assert calls in ([], [g.full_mask]) and (cap > probe or not calls)
    assert True in refused and False in refused  # bounds over and within the cap


def test_lower_bound_never_exceeds_the_brute_force_count():
    # small budgets make the bound delete vertices.  Eliminating n vertices
    # takes at most 3**n + ... + 3 = (3**(n + 1) - 3) / 2 entries, 9 840 for
    # n = 8, so up to 8 vertices the bound at 10**4 entries is the count
    rng = random.Random(53)
    for _ in range(2000):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        count = len(brute_mis_masks(g))
        budget = rng.choice([3, 20, 100, 10**4])
        got = _mis_lower_bound(g.adj, g.full_mask, budget)
        assert 1 <= got <= count
        if n <= 8 and budget == 10**4:
            assert got == count


def test_lower_bound_never_exceeds_the_seed_count_on_sparse_graphs():
    for g in sparse_connected_graphs():
        count = seed_count_mis(g)
        for budget in (3, 100, 10**4, DEFAULT_MIS_CAP):
            assert 1 <= _mis_lower_bound(g.adj, g.full_mask, budget) <= count


def test_lower_bound_is_exact_on_expression_graphs_and_chains():
    # an expression's graph splits into joins and unions down to single
    # vertices, so nothing is deleted at any budget; a chain of k triangles
    # fits the DP whole, and has Fibonacci(2k + 2) MISes
    rng = random.Random(59)
    for _ in range(300):
        e = random_tree(rng, rng.randint(1, 90))
        g = graph_from_expression(e)
        for budget in (3, DEFAULT_MIS_CAP):
            assert _mis_lower_bound(g.adj, g.full_mask, budget) == e.value
    fib = [0, 1]
    while len(fib) < 87:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 43):
        g = chain_of_triangles(k)
        assert _mis_lower_bound(g.adj, g.full_mask, DEFAULT_MIS_CAP) == fib[2 * k + 2]


def test_graphs_the_count_probe_missed_are_refused_at_the_probe(monkeypatch):
    # a join of 123 vertices with 2 * 3**14 + 3**13 = 11 160 261 MISes:
    # without the join split its bound was 4 782 970, under the cap.  And a
    # G(76, 0.05) with 12 087 195 MISes: at a DP budget of 10**6 entries,
    # not the share's 10**7, its bound was 8.8-9.3 * 10**6.  Each refusal
    # takes about 1 s; listing cap + 1 masks took about 10 s
    triple = add(add(one(), one()), one())
    powers = [triple]
    while len(powers) < 14:
        powers.append(mul(powers[-1], triple))
    e = add(add(powers[13], powers[13]), powers[12])
    assert (e.ones, e.value) == (123, 11_160_261)
    sparse = random_graph(random.Random(91 * 76 + 1), 76, 0.05)
    drawn = spy_on_listings(monkeypatch)
    for g in (graph_from_expression(e), sparse):
        drawn.clear()
        with pytest.raises(MisCapError):
            _mis_factors(g.adj, g.full_mask, DEFAULT_MIS_CAP)
        assert drawn == [MIS_COUNT_PROBE + 1]


def sparse_connected_graphs() -> list[Graph]:
    """Shapes where a pending vertex often has one alive neighbor left."""
    rng = random.Random(37)
    graphs = [random_cubic_graph(rng, n) for n in range(4, 31, 2)]
    graphs += [prism_graph(k) for k in range(3, 16)]
    graphs += [
        spider_graph(rng, hubs, legs, length)
        for hubs in (1, 2, 3)
        for legs in (2, 3, 4)
        for length in (1, 2, 3, 5)
    ]
    graphs += [cycle_graph(n) for n in range(4, 41, 4)]
    graphs += [path_graph(n) for n in range(4, 41, 4)]
    return graphs


def test_mis_masks_match_seed_recursion_on_sparse_graphs():
    rng = random.Random(41)
    graphs = sparse_connected_graphs()
    graphs += [
        random_graph(rng, rng.randint(1, 30), p) for p in (0.05, 0.1, 0.2) for _ in range(20)
    ]
    graphs += [interleaved(extremal_graph(n))[0] for n in range(2, 22)]
    for g in graphs:
        assert list(_mis_masks(g.adj, g.full_mask)) == seed_mis_masks(g.adj, g.full_mask, 10**6)


def test_mis_masks_are_listed_lazily():
    # the first masks of a graph with about 4 * 10**17 MISes come at once:
    # the cap policy of _mis_factors reads only as many as it needs
    g = chain_of_triangles(42)
    start = time.perf_counter()
    first = list(islice(_mis_masks(g.adj, g.full_mask), 5))
    assert time.perf_counter() - start < 0.1
    assert first == seed_mis_masks(g.adj, g.full_mask, 5)


def test_sparse_enumeration_order_is_canonical_by_brute_force():
    for g in sparse_connected_graphs():
        if g.n <= 14:
            assert [s.bits for s in enumerate_mis(g)] == canonical_masks(g)


class CountingRows(tuple):
    """Adjacency rows that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_forced_steps_read_fewer_rows():
    # the forced step changes speed only, so count the adjacency rows read
    g = prism_graph(10)
    reads = []
    listers = (
        lambda rows: list(_mis_masks(rows, g.full_mask)),
        lambda rows: seed_mis_masks(rows, g.full_mask, 10**6),
    )
    for lister in listers:
        rows = CountingRows(g.adj)
        masks = lister(rows)
        reads.append(rows.reads)
        assert len(masks) == count_mis(g)
    assert 2 * reads[0] <= reads[1]


def test_enumerated_sets_are_plain_vertex_sets():
    g = disjoint_union(extremal_graph(7), cycle_graph(5))
    sets = enumerate_mis(g)
    public = [VertexSet(s.bits, g.n) for s in sets]
    assert sets == public
    assert [hash(s) for s in sets] == [hash(s) for s in public]
    assert [repr(s) for s in sets] == [repr(s) for s in public]
    assert all(type(s) is VertexSet for s in sets)
    for s in sets:  # the container protocol reads the mask
        assert (list(s), len(s)) == (list(s.members()), len(s.members()))
        assert [v for v in range(-1, g.n + 1) if v in s] == list(s.members())
    assert VertexSet.__slots__ == ("bits", "n")
    assert not any(hasattr(s, "__dict__") for s in sets)
    # the slots hold what one unsplit listing of the whole graph gives
    whole = list(_mis_masks(g.adj, g.full_mask))
    assert [(s.bits, s.n) for s in sets] == [(bits, g.n) for bits in whole]
    for copied in (pickle.loads(pickle.dumps(sets)), copy.deepcopy(sets)):
        assert copied == public
        assert [hash(s) for s in copied] == [hash(s) for s in public]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sets[0].bits = 0
    # the public constructor still checks the range
    for bits in (-1, 1 << g.n, 1 << (g.n + 5)):
        with pytest.raises(ValueError, match="out of range"):
            VertexSet(bits, g.n)


def test_count_of_empty_graph_is_one():
    # the empty set is vacuously maximal; makes the product law unital
    assert count_mis(Graph(0, ())) == 1


def test_enumeration_matches_definition_checker():
    rng = random.Random(7)
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 8))
        sets = enumerate_mis(g)
        masks = [s.bits for s in sets]
        assert len(set(masks)) == len(masks)
        assert all(is_maximal_independent(g, m) for m in masks)
        assert sorted(masks) == brute_mis_masks(g)
        assert count_mis(g) == len(sets)


def test_enumeration_order_is_canonical():
    # the oracle orders the brute-force masks by their ascending member lists
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.4, 0.6, 0.8]))
        expected = sorted(
            brute_mis_masks(g), key=lambda m: [v for v in range(n) if m >> v & 1]
        )
        assert [s.bits for s in enumerate_mis(g)] == expected


def test_count_mis_on_all_graphs_up_to_5():
    for n in range(6):
        for g in all_graphs(n):
            assert count_mis(g) == len(brute_mis_masks(g))


def test_cycles_count_perrin():
    for j in range(3, 129):
        assert count_mis(cycle_graph(j)) == perrin(j)


def test_paths_count_padovan_type_recurrence():
    # P_n has p(n) = p(n-2) + p(n-3) MISes, with p(1), p(2), p(3) = 1, 2, 2
    p = [None, 1, 2, 2]
    for n in range(4, 129):
        p.append(p[n - 2] + p[n - 3])
    for n in range(1, 129):
        assert count_mis(from_edges(n, [(i, i + 1) for i in range(n - 1)])) == p[n]


def test_count_mis_on_random_graphs_against_brute_force():
    rng = random.Random(13)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        assert count_mis(g) == len(brute_mis_masks(g))


def test_count_mis_against_networkx_cliques_of_complement():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 20), rng.choice([0.1, 0.2, 0.35, 0.5, 0.8]))
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        h = nx.complement(h)
        assert count_mis(g) == sum(1 for _ in nx.find_cliques(h))


def test_count_mis_keeps_only_the_count_and_fails_fast(monkeypatch):
    g = prism_graph(18)  # cubic, 36 vertices
    monkeypatch.setattr(miscover.graphs, "COUNT_MEMO_BUDGET", 50)
    with pytest.raises(CountBudgetError) as exc:
        count_mis(g)
    assert exc.value.budget == 50
    assert g._cache == {}
    monkeypatch.undo()
    total = count_mis(g)
    assert total == len(enumerate_mis(g)) == 5780
    assert g._cache == {"count_mis": total}  # the memo died with the call


def seed_check_graphs() -> list[Graph]:
    rng = random.Random(19)
    graphs = [
        random_graph(rng, rng.randint(1, 30), p)
        for p in (0.05, 0.1, 0.2, 0.35, 0.5, 0.8)
        for _ in range(25)
    ]
    graphs += [random_cubic_graph(rng, n) for n in range(4, 37, 2) for _ in range(2)]
    graphs += [prism_graph(k) for k in range(3, 19)]
    graphs += [
        spider_graph(rng, hubs, legs, length)
        for hubs in (1, 2, 3)
        for legs in (2, 3, 4)
        for length in (1, 2, 3, 5)
    ]
    return graphs


def test_count_mis_matches_seed_recursion():
    for g in seed_check_graphs():
        assert count_mis(g) == seed_count_mis(g)


def test_count_mis_splits_components_while_vertices_are_pending():
    # the DP refuses this graph, so the memo counts it: in about 0.5 s with
    # the component split under pending vertices and its straddler
    # inclusion-exclusion.  Splitting only with nothing pending, or not
    # splitting past a straddler, each reached CountBudgetError after 7-10 s.
    g = random_graph(random.Random(1), 64, 0.08)
    assert count_mis(g) == seed_count_mis(g) == 837_605


def test_count_mis_matches_seed_recursion_without_the_dp(monkeypatch):
    # the sparse graphs above mostly go to the elimination DP; refused, they
    # keep the memo recursion's component split and inclusion-exclusion checked
    monkeypatch.setattr(miscover.graphs, "_narrow_count", lambda *args: None)
    for g in seed_check_graphs():
        assert count_mis(g) == seed_count_mis(g)


def narrow(g: Graph, budget: int = COUNT_MEMO_BUDGET):
    return _narrow_count(g.adj, g.full_mask, budget)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_narrow_count_matches_seed_recursion():
    rng = random.Random(29)
    graphs = [random_cubic_graph(rng, n) for n in range(4, 37, 2) for _ in range(2)]
    graphs += [prism_graph(k) for k in range(3, 19)]
    graphs += [cycle_graph(n) for n in range(3, 65)]
    graphs += [path_graph(n) for n in range(2, 65)]
    graphs += [
        spider_graph(rng, hubs, legs, length)
        for hubs in (1, 2, 3)
        for legs in (2, 3, 4)
        for length in (1, 2, 3, 5)
    ]
    for g in graphs:
        assert narrow(g) == seed_count_mis(g)
    answered = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 40), rng.choice([0.02, 0.05, 0.1]))
        got = narrow(g)
        if got is not None:
            answered += 1
            assert got == seed_count_mis(g)
    assert answered >= 140  # some G(40, 0.1) are too wide for the budget


def test_narrow_count_against_brute_force():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        got = narrow(g)
        if n <= 10:  # n * 3**n entries at most: always within the budget
            assert got is not None
        assert got is None or got == len(brute_mis_masks(g))


def test_narrow_count_against_networkx_cliques_of_complement():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 30), rng.choice([0.05, 0.1, 0.2]))
        got = narrow(g)
        if got is not None:
            h = nx.empty_graph(g.n)
            h.add_edges_from(g.edges())
            assert got == sum(1 for _ in nx.find_cliques(nx.complement(h)))


def test_narrow_count_refuses_past_its_budget():
    # minimum degree eliminates a cycle down to a triangle, 27 entries a
    # vertex, then an edge (9) and a vertex (3)
    for n in (3, 4, 12, 40):
        need = 27 * (n - 2) + 9 + 3
        assert narrow(cycle_graph(n), need) == perrin(n)
        assert narrow(cycle_graph(n), need - 1) is None
    # a path sheds an end vertex at a time: 9 entries each, 3 for the last,
    # which is also the least any graph with as many vertices and edges needs
    for n in (2, 3, 10, 64):
        need = 9 * (n - 1) + 3
        assert narrow(path_graph(n), need) == seed_count_mis(path_graph(n))
        assert narrow(path_graph(n), need - 1) is None
    assert narrow(prism_graph(18), 50) is None  # 3**4 at the first vertex
    assert narrow(complete_graph(20)) is None  # refused on its edge count


def test_count_mis_hands_narrow_remainders_to_the_dp(monkeypatch):
    calls = []
    real = miscover.graphs._narrow_count

    def spy(adj, alive, budget):
        got = real(adj, alive, budget)
        calls.append(got)
        return got

    monkeypatch.setattr(miscover.graphs, "_narrow_count", spy)
    table = complexity_table(1000)
    cographs = [(extremal_graph(n), max_partition_product(n)) for n in (2, 10, 30, 128)]
    cographs += [(extremal_graph(13, Variant.K4), max_partition_product(13))]
    cographs += [
        (graph_from_expression(minimal_expression(m, table)), m) for m in (7, 100, 1000)
    ]
    for g, expected in cographs:
        calls.clear()
        assert count_mis(Graph(g.n, g.adj)) == expected  # a fresh Graph, no cached count
        assert calls == []
    calls.clear()
    assert count_mis(prism_graph(18)) == 5780
    assert calls == [5780]
    calls.clear()
    count_mis(random_graph(random.Random(2), 128, 0.5))
    assert calls == [None]  # refused once, then the memo alone
    # tables within the budget, but far past 3**8 = 6561 for 24 vertices,
    # where the memo recursion is faster
    g = random_graph(random.Random(3), 24, 0.3)
    assert real(g.adj, g.full_mask, COUNT_MEMO_BUDGET) is not None
    calls.clear()
    assert count_mis(g) == seed_count_mis(g)
    assert calls == [None]


def test_count_mis_splits_joins(monkeypatch):
    # the join split changes speed only, never a count, so a spy on _flood
    # pins it: some complement flood must return a proper part of alive
    calls = []
    real_flood = miscover.graphs._flood

    def spy(adj, alive, flip):
        comp = real_flood(adj, alive, flip)
        calls.append((alive, flip, comp))
        return comp

    monkeypatch.setattr(miscover.graphs, "_flood", spy)
    c5 = cycle_graph(5)
    table = complexity_table(1000)
    cases = [
        (join(join(c5, c5), c5), 15),
        (graph_from_expression(minimal_expression(7, table)), 7),
        (graph_from_expression(minimal_expression(1000, table)), 1000),
    ]
    for g, expected in cases:
        g = Graph(g.n, g.adj)  # graph_from_expression has cached its count
        calls.clear()
        assert count_mis(g) == expected
        assert any(
            flip == -1 and comp != alive and not comp & ~alive
            for alive, flip, comp in calls
        )


def test_flood_is_the_component_of_the_lowest_vertex():
    # a search over vertex lists as the reference, in g and in its complement
    def component(rows, alive):
        start = (alive & -alive).bit_length() - 1
        seen, todo = {start}, [start]
        while todo:
            v = todo.pop()
            for u in range(len(rows)):
                if alive >> u & 1 and rows[v] >> u & 1 and u not in seen:
                    seen.add(u)
                    todo.append(u)
        return sum(1 << v for v in seen)

    rng = random.Random(23)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 24), rng.choice([0.1, 0.3, 0.7, 0.9]))
        alive = rng.getrandbits(g.n) | 1 << rng.randrange(g.n)
        co_rows = [g.full_mask & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
        assert _flood(g.adj, alive, 0) == component(g.adj, alive)
        assert _flood(g.adj, alive, -1) == component(co_rows, alive)


def test_extremal_graph_small_cases():
    assert extremal_graph(1) == complete_graph(1)
    assert extremal_graph(2) == complete_graph(2)
    assert count_mis(extremal_graph(6)) == 9
    assert count_mis(extremal_graph(7, Variant.TWO_EDGES)) == 12
    assert count_mis(extremal_graph(7, Variant.K4)) == 12
    assert count_mis(extremal_graph(30)) == 59049  # 3**10


def test_extremal_graph_attains_bound_by_enumeration():
    for n in range(1, 38):
        g = extremal_graph(n)
        assert g.n == n
        assert len(enumerate_mis(g)) == max_partition_product(n)


def test_extremal_graph_attains_bound_by_counting():
    for n in range(1, 121):
        assert count_mis(extremal_graph(n)) == max_partition_product(n)
        if n % 3 == 1 and n >= 4:
            assert count_mis(extremal_graph(n, Variant.K4)) == max_partition_product(n)


def test_extremal_graph_variant_validation():
    with pytest.raises(ValueError):
        extremal_graph(6, Variant.K4)  # only for n = 3i+1
    with pytest.raises(ValueError):
        extremal_graph(1, Variant.TWO_EDGES)
    with pytest.raises(ValueError):
        extremal_graph(0)


def seed_extremal_graph(n: int, variant: Variant) -> Graph:
    """The clique sizes extremal_graph used before closedforms._parts, as a
    reference: the variant check, then a size per remainder of n mod 3."""
    if not 1 <= n <= 128:
        raise ValueError(f"n must be in 1..128, got {n}")
    if variant != Variant.DEFAULT and not (n % 3 == 1 and n >= 4):
        raise ValueError(
            f"variant {variant.value!r} only applies when n = 3i+1 >= 4, got n={n}"
        )
    i, r = divmod(n, 3)
    last = {0: [], 1: [4] if variant == Variant.K4 else [2, 2], 2: [2]}[r]
    sizes = [1] if n == 1 else [3] * (i - (r == 1)) + last
    adj, off = [], 0
    for k in sizes:
        adj += [((1 << k) - 1 << off) ^ (1 << v) for v in range(off, off + k)]
        off += k
    return Graph(n, tuple(adj))


def test_extremal_graph_matches_seed_code():
    for n in range(-1, 131):
        for variant in Variant:
            try:
                expected = seed_extremal_graph(n, variant)
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                    extremal_graph(n, variant)
            else:
                assert extremal_graph(n, variant) == expected


@pytest.mark.parametrize("x", [True, 2.5, "5"])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda x: Graph(x, (0,)), "vertex count must be in 0..128"),
        (lambda x: from_edges(x, []), "vertex count must be in 0..128"),
        (complete_graph, "k must be in 0..128"),
        (cycle_graph, "cycle length must be in 3..128"),
        (extremal_graph, "n must be in 1..128"),
    ],
    ids=["Graph", "from_edges", "complete_graph", "cycle_graph", "extremal_graph"],
)
def test_sizes_take_only_non_bool_ints(make, message, x):
    # a bool passes isinstance(x, int): extremal_graph(True) would be one
    # vertex whose text header reads "p True 0", which graph_from_text refuses
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {x}$"):
        make(x)


def test_independence_helpers():
    g = cycle_graph(4)
    assert is_independent(g, {0, 2})
    assert not is_independent(g, {0, 1})
    assert is_maximal_independent(g, {0, 2})
    assert not is_maximal_independent(g, {0})


def test_induced_subgraph_and_deletion():
    c5 = cycle_graph(5)
    p4 = delete_vertices(c5, [0])
    assert p4 == from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sub = induced_subgraph(complete_graph(5), [1, 3, 4])
    assert sub == complete_graph(3)


def test_graph_text_round_trip():
    for g in [Graph(0, ()), complete_graph(1), extremal_graph(8), cycle_graph(9)]:
        assert graph_from_text(graph_to_text(g)) == g


def test_graph_text_accepts_comments():
    g = graph_from_text("c a triangle\np 3 3\ne 0 1\nc middle\ne 0 2\ne 1 2\n")
    assert g == complete_graph(3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 0 1\n", "edge before header"),
        ("p 2 1\ne 1 0\n", "u < v"),
        ("p 2 2\ne 0 1\ne 0 1\n", "duplicate edge"),
        ("p 2 2\ne 0 1\n", "declares 2 edges"),
        ("p 2 0\nq\n", "unknown record"),
        ("p 2 0\np 2 0\n", "^line 2: duplicate header$"),
        ("p 3 x\n", "^line 1: invalid literal for int"),
        ("p 2 1\ne 0 x\n", "^line 2: invalid literal for int"),
        ("", "missing"),
    ],
)
def test_graph_text_rejects_malformed(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        graph_from_text(text)
