import itertools
import json
import random
import tracemalloc

import pytest

from conftest import all_graphs, random_graph_no_isolated
from miscover import (
    CoverReport,
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
    is_maximal_independent,
    minimal_cover,
    min_separating_sets,
    read_cover_json,
    validate_cover,
    write_cover_json,
)
from miscover.covers import _disjointness, _transpose
from miscover.graphs import _bits_of
from miscover.oracles import brute_min_separating_sets, greedy_mis_witnesses


def seed_validate_cover(cover: SeparatingCover):
    """The pair-by-pair validator that validate_cover replaced, as a reference."""
    m = cover.ground_size
    sets = cover.sets
    union = 0
    for s in sets:
        union |= s
    uncovered = None
    if union != (1 << m) - 1:
        missing = ~union & ((1 << m) - 1)
        uncovered = (missing & -missing).bit_length() - 1

    # element_sets[x]: bitmask over set indices containing x;
    # disjoint_with[i]: bitmask over set indices disjoint from set i.
    k = len(sets)
    element_sets = [0] * m
    for i, s in enumerate(sets):
        for x in _bits_of(s):
            element_sets[x] |= 1 << i
    disjoint_with = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and not sets[i] & sets[j]:
                disjoint_with[i] |= 1 << j

    unseparated = None
    for x in range(m):
        if unseparated:
            break
        for y in range(x + 1, m):
            for i in _bits_of(element_sets[x]):
                if disjoint_with[i] & element_sets[y]:
                    break
            else:
                unseparated = (x, y)
                break
    return CoverReport(
        covering=uncovered is None,
        separating=unseparated is None,
        uncovered=uncovered,
        unseparated=unseparated,
    )


def seed_disjointness(sets) -> list[int]:
    """The pairwise mask-AND loop of the seed code, as a reference for _disjointness."""
    adj = [0] * len(sets)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not sets[i] & sets[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def seed_cover_to_json(cover: SeparatingCover) -> str:
    """The bit-by-bit serializer that cover_to_json replaced, as a reference."""
    obj = {
        "ground_size": cover.ground_size,
        "sets": [list(_bits_of(cover.sets[i])) for i in range(len(cover.sets))],
    }
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def seed_mask(elements) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def random_cover_lists(rng: random.Random, m: int, k: int) -> list[list[int]]:
    """k random element lists on 0..m-1, some with a planted defect.

    The defect is an element dropped from every set (uncovered) or an
    element y given exactly the sets of some x < y (a duplicate signature,
    so (x, y) cannot be separated).  Empty lists are dropped; elements come
    unordered and sometimes repeated.
    """
    density = rng.choice((0.2, 0.35, 0.5))
    sets = [[x for x in range(m) if rng.random() < density] for _ in range(k)]
    defect = rng.randrange(3)
    if defect == 1:
        x = rng.randrange(m)
        sets = [[e for e in s if e != x] for s in sets]
    elif defect == 2 and m >= 2:
        x, y = sorted(rng.sample(range(m), 2))
        sets = [[e for e in s if e != y] + [y] * (x in s) for s in sets]
    for s in sets:
        rng.shuffle(s)
        if s and rng.random() < 0.1:
            s.append(s[0])
    return [s for s in sets if s]


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
    # numpy's int64 cast would accept True, 1.0 and NaN as ints; the message
    # names the first bad element in list order
    for members, bad in (
        ([1, True], "True"),
        ([0, 1.0], "1.0"),
        ([float("nan"), 0], "nan"),
        ([1, 2**63], str(2**63)),
        ([1, -(2**64)], str(-(2**64))),
        ([1, 2, 0, "a", -1], "'a'"),
        ([[0]], "[0]"),
    ):
        with pytest.raises(ValueError) as exc:
            SeparatingCover(3, [[0], members])
        assert str(exc.value) == f"set 1: element {bad} is not an integer in 0..2"
    for bad_size in (-1, "3", True, 2**63 + 1):
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
        witnesses = greedy_mis_witnesses(c)
        assert len({w.bits for w in witnesses}) == c.ground_size
        for w in witnesses:
            assert is_maximal_independent(h, w.bits)


def test_validate_cover_and_json_match_seed_code_on_random_covers():
    rng = random.Random(2024)
    outcomes = {"valid": 0, "uncovered": 0, "unseparated": 0, "wide": 0}
    for _ in range(2000):
        m = rng.randint(1, 40)
        lists = random_cover_lists(rng, m, rng.randint(1, 80))
        c = SeparatingCover(m, lists)
        assert c.sets == tuple(dict.fromkeys(map(seed_mask, lists)))
        report = validate_cover(c)
        assert report == seed_validate_cover(c)
        assert _disjointness(c.sets) == seed_disjointness(c.sets)
        text = cover_to_json(c)
        assert text == seed_cover_to_json(c)
        assert cover_from_json(text) == c
        outcomes["valid"] += report.valid
        outcomes["uncovered"] += not report.covering
        outcomes["unseparated"] += report.covering and not report.separating
        outcomes["wide"] += len(c.sets) > 64
    # each kind of report, and signatures past one 64-bit word, occur often
    assert min(outcomes.values()) >= 200, outcomes


@pytest.mark.parametrize(
    "k, width, reach, span, dense",
    [
        pytest.param(0, 5, 5, 5, False, id="0-5-5"),  # no rows
        pytest.param(5, 300, 300, 300, False, id="5-300-300"),  # one tile
        pytest.param(70_000, 20, 20, 20, False, id="70000-20-20"),  # taller than one tile
        # wider than one tile of columns
        pytest.param(4000, 12_000, 12_000, 12_000, False, id="4000-12000-12000"),
        # sparse rows far out on a wide ground set
        pytest.param(40, 2_000_000, 2_000_000, 1000, False, id="40-2000000-1000"),
        pytest.param(64, 200, 200, 200, True, id="64-200-dense"),  # one block of rows
        pytest.param(65, 200, 200, 200, True, id="65-200-dense"),  # a second block of rows
        # rows of two words, over two tiles of rows
        pytest.param(70_000, 128, 128, 8, True, id="70000-128-dense"),
        # single bits: most word columns are zero
        pytest.param(300, 50_000, 50_000, 1, True, id="300-50000-dense"),
        pytest.param(10, 5000, 100, 100, True, id="10-5000-dense"),  # width past the longest row
    ],
)
def test_transpose_matches_bitwise_reference(k, width, reach, span, dense):
    # each row lies in a window of span bits below reach: up to six bits of
    # it or, dense, random bits with a tenth of the rows empty
    rng = random.Random(k + width + span * dense)
    rows = []
    for _ in range(k):
        if dense:
            row = rng.getrandbits(span) << rng.randrange(reach - span + 1)
            rows.append(row if rng.random() < 0.9 else 0)
        else:
            base = rng.randrange(reach - span + 1)
            bits = rng.sample(range(span), rng.randint(0, min(span, 6)))
            rows.append(seed_mask(base + b for b in bits))
    expected = [0] * width
    for i, r in enumerate(rows):
        for j in _bits_of(r):
            expected[j] |= 1 << i
    assert _transpose(rows, width) == expected
    assert _transpose(expected, k) == rows


def test_member_lists_round_trip_through_masks():
    m = 10**7
    rng = random.Random(5)
    gaps = [rng.choice((1, 7, 60, 64, 65, 71, 72, 80, 600)) for _ in range(400)]
    spread = [0, *itertools.accumulate(gaps)]  # zero runs near 8 bytes
    for ground, lists in (
        (40, [[7, 3, 7, 0, 39, 3], [5, 5]]),  # unsorted, duplicated
        (m, [[0, m - 1], [m - 1], [m - 2, 5, m - 2]]),  # far members
        (70, [list(range(70))[::-1]]),  # the whole ground set
        (m, [spread, spread[::-1][1:]]),
    ):
        c = SeparatingCover(ground, lists)
        assert c.sets == tuple(map(seed_mask, lists))
        members = [c.set_members(i) for i in range(len(lists))]
        assert members == [tuple(sorted(set(s))) for s in lists]


def test_member_list_scatter_is_sized_by_bits_not_bytes():
    # two members 10**8 apart: the scatter buffer holds one bit per element,
    # about 12.5 MB here, not a byte per element (100 MB)
    tracemalloc.start()
    try:
        c = SeparatingCover(10**8 + 1, [[0, 10**8]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.sets == (1 | 1 << 10**8,)
    assert peak < 40 * 2**20


def test_sparse_cover_on_large_ground_set_matches_seed_code():
    # single-element sets far from 0: signatures, members and masks must
    # cost the sets' spans, not ground_size per set
    m = 10**6
    lists = [[m - 1 - 7 * i] for i in range(60)] + [[5, m - 2, m - 1]]
    c = SeparatingCover(m, lists)
    assert c.sets == tuple(map(seed_mask, lists))
    assert validate_cover(c) == seed_validate_cover(c)
    assert [list(c.set_members(i)) for i in range(len(c.sets))] == [sorted(x) for x in lists]
    assert cover_to_json(c) == seed_cover_to_json(c)
    # single-element sets near the end plus a covered 0, whose sep is built
    c = SeparatingCover(m, [[0]] + [[m - 1 - 3 * i] for i in range(150)])
    assert _disjointness(c.sets) == seed_disjointness(c.sets)
    assert validate_cover(c) == seed_validate_cover(c)


@pytest.mark.parametrize("m", [750, 3000, 10_000])
def test_validate_minimal_cover_and_planted_defects(m):
    # valid, then one element u dropped from every set, then y given exactly
    # the sets of some x < y.  Every other pair stays separated, so the
    # first failures are known: (0, u) (or (0, 1) for u = 0) and (x, y).
    # The seed code checks the same below 10**4, where it takes seconds.
    rng = random.Random(m)
    c = minimal_cover(m)
    u = rng.randrange(m)
    drop = SeparatingCover(m, [s & ~(1 << u) for s in c.sets if s & ~(1 << u)])
    x, y = sorted(rng.sample(range(m), 2))
    twin = SeparatingCover(m, [s & ~(1 << y) | (s >> x & 1) << y for s in c.sets])
    expected = [
        (c, CoverReport(True, True)),
        (drop, CoverReport(False, False, u, (0, u or 1))),
        (twin, CoverReport(True, False, None, (x, y))),
    ]
    for cover, report in expected:
        assert validate_cover(cover) == report
        if m < 10_000:
            assert seed_validate_cover(cover) == report


def test_validate_minimal_cover_at_1e5():
    # about 1.4 s; the pair-by-pair reference would take minutes here
    assert validate_cover(minimal_cover(10**5)).valid


def test_witnesses_distinct_for_minimal_and_handmade_covers():
    # graph_from_cover(check=True) relies on this after validating: the
    # witnesses of a valid cover are distinct, so it does not build them
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
    # restricts it to the first m elements; the closed form changes shape
    # where the extremal graph does, at 3^i, 4*3^(i-1) and 2*3^i
    boundaries = {
        b + d
        for i in range(1, 11)
        for b in (3**i, 4 * 3 ** (i - 1), 2 * 3**i)
        for d in (-1, 0, 1)
    }
    sizes = set(range(1, 301)) | {1000, 10_000} | {m for m in boundaries if m <= 10**5}
    for m in sorted(sizes):
        full = cover_from_graph(extremal_graph(min_separating_sets(m)))
        keep = (1 << m) - 1
        expected = SeparatingCover(m, [s & keep for s in full.sets if s & keep])
        got = minimal_cover(m)
        assert got == expected
        if m <= 10_000:
            assert cover_to_json(got) == seed_cover_to_json(expected)


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
