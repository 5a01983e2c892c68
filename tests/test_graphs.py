import random

import pytest

import miscover.graphs
from conftest import all_graphs, prism_graph, random_graph
from miscover import (
    CountBudgetError,
    Graph,
    MisCapError,
    Variant,
    closed_neighborhood,
    complete_graph,
    count_mis,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    enumerate_mis,
    extremal_graph,
    from_edges,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    is_independent,
    is_maximal_independent,
    join,
    max_partition_product,
    perrin,
)
from miscover.oracles import brute_mis_masks


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
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
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
