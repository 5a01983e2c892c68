import random

import pytest

from conftest import all_graphs, random_graph_no_isolated
from miscover import (
    CoverValidationError,
    SeparatingCover,
    complete_graph,
    count_mis,
    cover_from_graph,
    cover_from_json,
    cover_to_json,
    disjoint_union,
    extremal_graph,
    from_edges,
    graph_from_cover,
    greedy_mis_witnesses,
    is_maximal_independent,
    minimal_cover,
    min_separating_sets,
    read_cover_json,
    validate_cover,
    write_cover_json,
)
from miscover.oracles import brute_min_separating_sets


def test_construction_dedups_and_rejects_bad_sets():
    c = SeparatingCover(3, [{0, 1}, {2}, {0, 1}])
    assert c.sets == (0b011, 0b100)
    with pytest.raises(ValueError):
        SeparatingCover(2, [set()])
    with pytest.raises(ValueError):
        SeparatingCover(2, [{0, 5}])
    for bad in ([-1], [0.5], ["a"], [True]):
        with pytest.raises(ValueError, match="element"):
            SeparatingCover(2, [bad])
    for bad_size in (-1, "3", True):
        with pytest.raises(ValueError, match="ground_size"):
            SeparatingCover(bad_size, [])


def test_validate_singletons_separate():
    report = validate_cover(SeparatingCover(2, [{0}, {1}]))
    assert report.covering and report.separating and report.valid


def test_validate_one_set_cannot_separate():
    report = validate_cover(SeparatingCover(2, [{0, 1}]))
    assert report.covering and not report.separating
    assert report.unseparated == (0, 1)


def test_validate_reports_first_failing_pair():
    report = validate_cover(SeparatingCover(3, [{0, 1}, {2}]))
    assert report.covering and not report.separating
    assert report.unseparated == (0, 1)


def test_validate_reports_uncovered_element():
    report = validate_cover(SeparatingCover(3, [{0}, {2}]))
    assert not report.covering and report.uncovered == 1


def test_cover_from_triangle():
    c = cover_from_graph(complete_graph(3))
    assert c.ground_size == 3
    assert sorted(c.sets) == [0b001, 0b010, 0b100]


def test_cover_from_edge():
    c = cover_from_graph(complete_graph(2))
    assert c.ground_size == 2 and c.sets == (0b01, 0b10)


def test_cover_from_extremal_5():
    c = cover_from_graph(extremal_graph(5))
    assert c.ground_size == 6
    assert len(c.sets) <= 5
    assert validate_cover(c).valid


def test_cover_rejects_isolated_vertex():
    with pytest.raises(ValueError, match="vertex 2 is isolated"):
        cover_from_graph(from_edges(3, [(0, 1)]))
    with pytest.raises(ValueError, match="at least one vertex"):
        cover_from_graph(from_edges(0, []))
    # a lone vertex is fine: one MIS, one singleton set
    c = cover_from_graph(complete_graph(1))
    assert c.ground_size == 1 and c.sets == (1,)


def test_graph_from_singleton_cover():
    g = graph_from_cover(SeparatingCover(3, [{0}, {1}, {2}]))
    assert g == complete_graph(3)
    assert graph_from_cover(SeparatingCover(1, [{0}])) == complete_graph(1)


def test_graph_from_cover_rejects_invalid():
    with pytest.raises(CoverValidationError) as exc:
        graph_from_cover(SeparatingCover(2, [{0, 1}]))
    assert exc.value.report.unseparated == (0, 1)


def test_round_trip_k2_union_k3():
    g = disjoint_union(complete_graph(2), complete_graph(3))
    back = graph_from_cover(cover_from_graph(g))
    assert back.n == 5
    assert count_mis(back) >= 6


def test_round_trip_inflation_exhaustive_small():
    # every labeled graph on 2..4 vertices without isolated vertices
    for n in range(2, 5):
        for g in all_graphs(n):
            if any(g.adj[v] == 0 for v in range(n)):
                continue
            c = cover_from_graph(g)
            assert len(c.sets) <= g.n
            assert validate_cover(c).valid
            assert count_mis(graph_from_cover(c)) >= count_mis(g)


def test_witnesses_are_distinct_maximal_sets():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph_no_isolated(rng, rng.randint(2, 7))
        c = cover_from_graph(g)
        h = graph_from_cover(c, check=False)
        witnesses = greedy_mis_witnesses(c, h)
        assert len({w.bits for w in witnesses}) == c.ground_size
        for w in witnesses:
            assert is_maximal_independent(h, w.bits)


def test_witnesses_distinct_for_minimal_and_handmade_covers():
    for m in (1, 2, 5, 9, 10, 27, 50):
        c = minimal_cover(m)
        assert len({w.bits for w in greedy_mis_witnesses(c)}) == m
    handmade = SeparatingCover(4, [{0, 1}, {2, 3}, {0, 2}, {1, 3}])
    assert validate_cover(handmade).valid
    assert len({w.bits for w in greedy_mis_witnesses(handmade)}) == 4


def test_minimal_cover_sizes_and_validity():
    assert len(minimal_cover(1).sets) == 1
    mc = minimal_cover(10)
    assert mc.ground_size == 10 and len(mc.sets) <= 7
    assert validate_cover(mc).valid
    for m in list(range(1, 61)) + [100, 233, 1000]:
        mc = minimal_cover(m)
        assert mc.ground_size == m
        assert len(mc.sets) <= min_separating_sets(m)
        assert validate_cover(mc).valid
    with pytest.raises(ValueError):
        minimal_cover(0)


def test_minimal_cover_is_truncated_full_cover():
    # the reference builds the whole MIS cover of the extremal graph and
    # restricts it to the first m elements
    for m in list(range(1, 301)) + [1000, 10_000]:
        full = cover_from_graph(extremal_graph(min_separating_sets(m)))
        keep = (1 << m) - 1
        expected = SeparatingCover(m, [s & keep for s in full.sets if s & keep])
        assert minimal_cover(m) == expected


def test_minimal_cover_is_optimal_up_to_12():
    for m in range(1, 13):
        boundary = brute_min_separating_sets(m, mode="reduction")
        assert len(minimal_cover(m).sets) == boundary == min_separating_sets(m)
    # no 2-set cover exists on 3 elements
    assert brute_min_separating_sets(3, mode="direct") == 3


def test_cover_json_round_trip(tmp_path):
    c = cover_from_graph(extremal_graph(7))
    assert cover_from_json(cover_to_json(c)) == c
    path = tmp_path / "cover.json"
    write_cover_json(c, path)
    assert read_cover_json(path) == c


def test_cover_json_rejects_malformed():
    with pytest.raises(ValueError):
        cover_from_json('{"ground_size": 2}')
    with pytest.raises(ValueError):
        cover_from_json('[1, 2]')
