"""Acceptance suite: one test and one printed pass line per criterion.

Everything is exact (tolerance zero); runtime bounds are asserted where a
criterion sets one.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import random
import time
from math import comb
from pathlib import Path

from conftest import all_graphs, random_graph, random_graph_no_isolated, seed_max_with_ones
from miscover import (
    Variant,
    complexity_table,
    count_mis,
    cover_from_graph,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    enumerate_mis,
    extremal_graph,
    graph_from_cover,
    graph_from_expression,
    join,
    max_partition_product,
    max_with_ones,
    min_separating_sets,
    minimal_expression,
    parse_expression,
    perrin,
    validate_cover,
)
from miscover.oracles import (
    _scan_all_graphs,
    brute_max_mis_count,
    brute_min_separating_sets,
    extremal_graphs_up_to_iso,
)

REFERENCE = Path(__file__).parent / "data" / "complexity_reference_1000.csv"


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_reference_table_reproduction():
    t0 = time.perf_counter()
    table = complexity_table(1000)
    elapsed = time.perf_counter() - t0
    pairs = [tuple(map(int, line.split(","))) for line in REFERENCE.read_text().split()]
    assert len(pairs) == 1000
    mismatches = [(m, c, table[m]) for m, c in pairs if table[m] != c]
    assert mismatches == []
    assert table[10] == 7 and table[107] == 16
    assert table[719] == 23 and table[1000] == 21
    assert elapsed < 1.0, f"table build took {elapsed:.3f}s"
    report(
        "complexity-reference",
        f"all 1000 values match, spot anchors hold, built in {elapsed * 1000:.0f} ms",
    )


def test_max_mis_equals_max_partition_product_to_7():
    _scan_all_graphs.cache_clear()  # time the real scans, not memoized results
    t0 = time.perf_counter()
    values = {n: brute_max_mis_count(n) for n in range(1, 8)}
    elapsed = time.perf_counter() - t0
    assert values == {n: max_partition_product(n) for n in range(1, 8)}
    assert values[7] == 12
    assert elapsed <= 600, f"scan took {elapsed:.1f}s"
    report(
        "max-mis-exhaustive",
        f"all 2**21 graphs scanned; maxima 1..7 = {list(values.values())} "
        f"in {elapsed:.2f}s",
    )


def test_extremal_graph_uniqueness():
    six = extremal_graphs_up_to_iso(6)
    seven = extremal_graphs_up_to_iso(7)
    assert len(six) == 1
    assert len(seven) == 2
    report("extremal-uniqueness", "n=6 has 1 extremal class, n=7 has exactly 2")


def test_inverse_relation():
    for n in range(1, 201):
        assert min_separating_sets(max_partition_product(n)) == n
    for m in range(1, 13):
        assert brute_min_separating_sets(m, "reduction") == min_separating_sets(m)
    for m in range(1, 5):
        assert brute_min_separating_sets(m, "direct") == min_separating_sets(m)
    report(
        "inverse-relation",
        "left inverse holds to n=200; search agrees to m=12 (direct to 4)",
    )


def test_expression_graph_construction_soundness():
    t0 = time.perf_counter()
    table = complexity_table(300)
    for m in range(1, 301):
        g = graph_from_expression(minimal_expression(m, table))
        assert g.n == table[m]
        assert count_mis(g) == m
        if m <= 60:
            assert len(enumerate_mis(g)) == m
    fig = graph_from_expression(parse_expression("(1+1)((1+1)(1+1)+1)"))
    assert fig.n == 7 and count_mis(fig) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"construction check took {elapsed:.1f}s"
    report(
        "construction-soundness",
        f"m=1..300 sound (enumeration to 60), worked example ok, {elapsed:.1f}s",
    )


def labeled_graphs_without_isolated(n):
    for g in all_graphs(n):
        if all(g.adj[v] for v in range(n)):
            yield g


def test_duality_round_trip():
    t0 = time.perf_counter()

    def check(g):
        cover = cover_from_graph(g)
        assert len(cover.sets) <= g.n
        assert validate_cover(cover).valid
        assert count_mis(graph_from_cover(cover)) >= count_mis(g)

    # exhaustive over every labeled graph on <= 5 vertices without
    # isolated vertices; the census is checked by inclusion-exclusion
    population = 0
    for n in range(2, 6):
        count = 0
        for g in labeled_graphs_without_isolated(n):
            check(g)
            count += 1
        expected = sum(
            (-1) ** j * comb(n, j) * 2 ** comb(n - j, 2) for j in range(n + 1)
        )
        assert count == expected
        population += count
    assert population == 814

    rng = random.Random(2024)
    for _ in range(10_000):
        check(random_graph_no_isolated(rng, rng.randint(6, 8)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"duality round trip took {elapsed:.1f}s"
    report(
        "duality-round-trip",
        f"814 exhaustive + 10000 sampled graphs inflate correctly, {elapsed:.1f}s",
    )


def test_cycle_counts_are_perrin():
    for j in range(3, 26):
        assert count_mis(cycle_graph(j)) == perrin(j)
    assert count_mis(cycle_graph(4)) == 2
    assert count_mis(cycle_graph(5)) == 5
    report("perrin-cycles", "cycle MIS counts equal Perrin numbers for j=3..25")


def test_largest_integer_of_each_complexity(big_table):
    assert big_table.limit >= max_partition_product(25) + 1
    largest = {}
    for m in range(1, big_table.limit + 1):
        c = big_table[m]
        if c not in largest or m > largest[c]:
            largest[c] = m
    for n in range(1, 26):
        assert largest[n] == max_partition_product(n)
    seed = seed_max_with_ones(40)
    for n in range(1, 41):
        assert max_with_ones(n) == seed[n]
    report(
        "largest-of-complexity",
        "max{m : c(m)=n} matches for n=1..25; ones-DP matches to n=40",
    )


def test_property_suites():
    rng = random.Random(9)

    for _ in range(10_000):
        g = random_graph(rng, rng.randint(0, 10))
        h = random_graph(rng, rng.randint(0, 10))
        assert count_mis(disjoint_union(g, h)) == count_mis(g) * count_mis(h)

    # the join law needs nonempty sides: the empty graph's sole MIS is the
    # empty set, which is not maximal once the other side has vertices
    for _ in range(10_000):
        g = random_graph(rng, rng.randint(1, 10))
        h = random_graph(rng, rng.randint(1, 10))
        assert count_mis(join(g, h)) == count_mis(g) + count_mis(h)

    for _ in range(10_000):
        g = random_graph(rng, rng.randint(1, 10))
        total = count_mis(g)
        for v in range(g.n):
            without_v = count_mis(delete_vertices(g, [v]))
            without_nv = count_mis(delete_vertices(g, g.adj[v] | (1 << v)))
            assert total <= without_v + without_nv

    for a in range(1, 120):
        for b in range(1, 121 - a):
            assert (
                max_partition_product(a) * max_partition_product(b)
                <= max_partition_product(a + b)
            )
    values = [max_partition_product(n) for n in range(1, 202)]
    assert all(x < y for x, y in zip(values, values[1:]))

    report(
        "property-suites",
        "product/join/branching laws hold on 10k samples each; "
        "super-multiplicativity and strict growth hold",
    )
