import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest

import miscover.graphs
from conftest import all_graphs, chain_of_triangles, prism_graph, random_cubic_graph, random_graph
from miscover import (
    CountBudgetError,
    Graph,
    MisCapError,
    Variant,
    VertexSet,
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
    perrin,
)
from miscover.graphs import COUNT_MEMO_BUDGET, _bits_of, _flood, _mis_masks, _narrow_count
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
    with pytest.raises(ValueError):
        from_edges(2, [(0, 2)])
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


def test_enumerate_mis_cap_carries_partial_count():
    g = extremal_graph(12)  # 81 MISes
    with pytest.raises(MisCapError) as exc:
        enumerate_mis(g, cap=17)
    assert exc.value.partial_count == 17
    assert exc.value.cap == 17


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
            assert _mis_masks(x.adj, x.full_mask, 10**6) == expected
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
            masks = _mis_masks(g.adj, g.full_mask, 10**6)
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


def test_mis_masks_stop_at_every_cap():
    path4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    uneven = disjoint_union(
        disjoint_union(cycle_graph(5), complete_graph(1)),
        disjoint_union(path4, complete_graph(4)),
    )  # 5 * 1 * 3 * 4 = 60 MISes
    # a prism and a spider branch, and their pending vertices force often
    spider = spider_graph(random.Random(43), 2, 3, 3)
    for g in (extremal_graph(9), uneven, prism_graph(6), spider):
        full = seed_mis_masks(g.adj, g.full_mask, 10**6)
        for cap in range(len(full)):
            assert _mis_masks(g.adj, g.full_mask, cap) is None
            with pytest.raises(MisCapError) as exc:
                enumerate_mis(g, cap=cap)
            assert (exc.value.cap, exc.value.partial_count) == (cap, cap)
        for cap in (len(full), len(full) + 1):
            assert _mis_masks(g.adj, g.full_mask, cap) == full
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


def spy_on_counts(monkeypatch) -> list[int]:
    """The alive mask of each count that enumeration asks for, as it asks."""
    calls = []
    count = miscover.graphs._count_alive

    def spy(adj, alive, budget):
        calls.append(alive)
        return count(adj, alive, budget)

    monkeypatch.setattr(miscover.graphs, "_count_alive", spy)
    return calls


@pytest.mark.parametrize("fn", [enumerate_mis, cover_from_graph])
def test_connected_graph_over_the_cap_is_refused_at_the_probe(fn, monkeypatch):
    # 267 914 296 MISes, which count_mis finds in milliseconds, so the
    # listing stops at MIS_COUNT_PROBE masks (0.1 s), not at cap + 1 (15 s)
    g = chain_of_triangles(20)
    calls = spy_on_counts(monkeypatch)
    with pytest.raises(MisCapError) as exc:
        fn(g, cap=10**7)
    assert exc.value.cap == 10**7
    assert calls == [g.full_mask]
    assert count_mis(g) == 267_914_296


def test_mis_masks_probe_keeps_every_list_and_refusal(monkeypatch):
    # past a probe of 3 or 30 masks, count_mis is asked, with as many memo
    # entries, under every larger cap; a count over that budget keeps
    # listing.  The answers stay the seed recursion's either way.
    calls = spy_on_counts(monkeypatch)
    spider = spider_graph(random.Random(43), 2, 3, 3)
    graphs = [prism_graph(6), spider, chain_of_triangles(4), cycle_graph(11)]
    refused = []
    for probe in (3, 30):
        monkeypatch.setattr(miscover.graphs, "MIS_COUNT_PROBE", probe)
        for g in graphs:
            full = seed_mis_masks(g.adj, g.full_mask, 10**6)
            for cap in range(len(full) + 2):
                calls.clear()
                expected = full if cap >= len(full) else None
                assert _mis_masks(g.adj, g.full_mask, cap) == expected
                if probe < cap < len(full):
                    assert calls == [g.full_mask]
                    refused.append(miscover.graphs._count_exceeds(g.adj, g.full_mask, cap))
                else:
                    assert calls in ([], [g.full_mask]) and (cap > probe or not calls)
    assert True in refused and False in refused  # counted, and over budget


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
        assert _mis_masks(g.adj, g.full_mask, 10**6) == seed_mis_masks(
            g.adj, g.full_mask, 10**6
        )


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
    for enumerate_masks in (_mis_masks, seed_mis_masks):
        rows = CountingRows(g.adj)
        masks = enumerate_masks(rows, g.full_mask, 10**6)
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
    assert VertexSet.__slots__ == ("bits", "n")
    assert not any(hasattr(s, "__dict__") for s in sets)
    # the slots hold what one unsplit listing of the whole graph gives
    whole = _mis_masks(g.adj, g.full_mask, len(sets))
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
        ("", "missing"),
    ],
)
def test_graph_text_rejects_malformed(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        graph_from_text(text)
