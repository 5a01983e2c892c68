import itertools
import json
import operator
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miscover
from conftest import (
    all_graphs,
    chain_of_triangles,
    prism_graph,
    random_cubic_graph,
    random_graph,
    random_graph_no_isolated,
)
from miscover import (
    DEFAULT_MIS_CAP,
    CoverReport,
    CoverValidationError,
    MisCapError,
    SeparatingCover,
    Variant,
    complete_graph,
    count_mis,
    cover_from_graph,
    cover_from_json,
    cover_to_json,
    cycle_graph,
    disjoint_union,
    enumerate_mis,
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
from miscover.covers import _columns, _disjointness, _signatures
from miscover.graphs import MAX_VERTICES, _bits_of
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


def seed_cover_from_graph(g, cap: int = DEFAULT_MIS_CAP) -> SeparatingCover:
    """The MIS cover by listing every MIS, as the seed code built it: the
    enumerated masks through _columns, which
    test_transpose_matches_bitwise_reference checks bit by bit."""
    masks = [s.bits for s in enumerate_mis(g, cap)]
    return SeparatingCover(len(masks), _columns(masks, g.n))


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


def bitwise_transpose(rows, width: int) -> list[int]:
    """Bit i of result[j] is bit j of rows[i], one bit at a time: the
    reference for _signatures and _columns."""
    out = [0] * width
    for i, r in enumerate(rows):
        for j in _bits_of(r):
            out[j] |= 1 << i
    return out


def assert_same_words(got: list[int], expected: list[int]) -> None:
    """got == expected, failing at once on lists of millions of big ints:
    the lengths, then the first index where they differ.  A bare == on
    such lists makes pytest render their whole difference, which takes
    minutes."""
    n_got, n_expected = len(got), len(expected)
    assert n_got == n_expected
    first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert first is None, f"first difference at index {first}"


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


def plant_twin(cover: SeparatingCover, x: int, y: int) -> SeparatingCover:
    """y given exactly the sets of x, so (x, y) cannot be separated; sets left empty are dropped."""
    sets = [s & ~(1 << y) | (s >> x & 1) << y for s in cover.sets]
    return SeparatingCover(cover.ground_size, [s for s in sets if s])


def plant_subset_twin(cover: SeparatingCover, x: int, y: int) -> SeparatingCover:
    """y given the sets of x but the first: (x, y) cannot be separated, and y is unsaturated."""
    first = next(i for i, s in enumerate(cover.sets) if s >> x & 1)
    sets = [s & ~(1 << y) | (s >> x & 1 and i != first) << y for i, s in enumerate(cover.sets)]
    return SeparatingCover(cover.ground_size, [s for s in sets if s])


def permuted(cover: SeparatingCover, rng: random.Random) -> SeparatingCover:
    """cover with its elements relabeled and its sets shuffled."""
    perm = rng.sample(range(cover.ground_size), cover.ground_size)
    sets = [seed_mask(perm[x] for x in _bits_of(s)) for s in cover.sets]
    rng.shuffle(sets)
    return SeparatingCover(cover.ground_size, sets)


def saturation(cover: SeparatingCover) -> list[bool]:
    """Per element x: does every set hold x or miss some set that holds x?

    That is, is the signature of x (the sets holding it) a maximal
    independent set of the disjointness graph.
    """
    adj = seed_disjointness(cover.sets)
    signature = [0] * cover.ground_size
    for i, s in enumerate(cover.sets):
        for x in _bits_of(s):
            signature[x] |= 1 << i
    flags = []
    for sig in signature:
        reach = sig
        for i in _bits_of(sig):
            reach |= adj[i]
        flags.append(sig != 0 and reach == (1 << len(cover.sets)) - 1)
    return flags


def run_cpu_capped(code: str, seconds: int) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that is killed after `seconds` of CPU."""

    def cap_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))

    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=20 * seconds, preexec_fn=cap_cpu,
    )


def test_construction_dedups_and_rejects_bad_sets():
    c = SeparatingCover(3, [{0, 1}, {2}, {0, 1}])
    assert c.sets == (0b011, 0b100)
    with pytest.raises(ValueError):
        SeparatingCover(2, [set()])
    with pytest.raises(ValueError):
        SeparatingCover(2, [{0, 5}])
    with pytest.raises(ValueError, match=r"^set with elements outside 0\.\.2 is not allowed$"):
        SeparatingCover(3, [0b1000])  # a mask, not a member list
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


def test_cover_of_graph_with_isolated_vertex():
    # an isolated vertex lies in every MIS, so its set is the whole ground
    # set; separation never needs it.  K2 + K1: sets {0}, {1} and {0, 1}
    c = cover_from_graph(from_edges(3, [(0, 1)]))
    assert c == seed_cover_from_graph(from_edges(3, [(0, 1)]))
    assert c == SeparatingCover(2, [{0}, {1}, {0, 1}])
    assert validate_cover(c).valid
    with pytest.raises(ValueError, match="at least one vertex"):
        cover_from_graph(from_edges(0, []))
    # a lone vertex: one MIS, one singleton set
    c = cover_from_graph(complete_graph(1))
    assert c.ground_size == 1 and c.sets == (1,)


def relabeled(g, order: list[int]):
    """g with vertex order[i] renamed i."""
    pos = {v: i for i, v in enumerate(order)}
    return from_edges(g.n, [(pos[u], pos[v]) for u, v in g.edges()])


def union_of(*parts):
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    return g


def factored_graphs(rng: random.Random):
    """Graphs whose MISes split into factors of every kind: cliques, and
    connected factors with many MISes ahead of later ones, so that a vertex
    of an early factor holds runs of P > 1 elements for several MISes,
    over one byte of them and over many; components that are isolated
    vertices, or that interleave their labels and so stay one factor; and
    connected cubic graphs and chains of triangles, each one factor."""
    for n in range(1, 25):
        for variant in Variant:
            if variant == Variant.DEFAULT or (n % 3 == 1 and n >= 4):
                yield extremal_graph(n, variant)
    yield union_of(prism_graph(4), complete_graph(3), cycle_graph(5))
    yield union_of(cycle_graph(12), complete_graph(2), complete_graph(3))
    yield union_of(chain_of_triangles(4), prism_graph(3), extremal_graph(5))
    yield union_of(cycle_graph(5), complete_graph(1), cycle_graph(7), complete_graph(1))
    for _ in range(60):
        sizes = [rng.randint(1, 6) for _ in range(3)]
        yield union_of(*(random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))) for n in sizes))
    # cycles of 7 and 5 and a triangle, their vertices dealt out round-robin
    g = union_of(cycle_graph(7), cycle_graph(5), complete_graph(3))
    comps = [range(0, 7), range(7, 12), range(12, 15)]
    yield relabeled(g, [c[i] for i in range(7) for c in comps if i < len(c)])
    for k in (3, 5, 8):
        yield prism_graph(k)
    for n in (8, 12, 16):
        yield random_cubic_graph(rng, n)
    yield chain_of_triangles(6)


def test_cover_from_graph_matches_seed_code():
    # the mixed-radix layout of the factors gives the cover of the listed
    # MISes exactly, and refuses a graph under the cap exactly when
    # enumerate_mis does
    rng = random.Random(23)
    for g in factored_graphs(rng):
        expected = seed_cover_from_graph(g)
        assert cover_from_graph(g) == expected
        count = expected.ground_size
        for cap in {0, count // 2, count - 1, count, count + 1}:
            try:
                enumerate_mis(g, cap)
            except MisCapError:
                with pytest.raises(MisCapError):
                    cover_from_graph(g, cap)
            else:
                assert cover_from_graph(g, cap) == expected


def test_cover_of_extremal_44_under_cpu_and_memory_limits():
    # 9 565 938 MISes, under the 10**7 cap: built from 15 clique factors in
    # about 0.2 s of CPU and 73 MiB peak RSS; listing and transposing them
    # took about 4 s and 518 MiB (2-core x86 host)
    code = (
        "import resource\n"
        "from miscover import *\n"
        "c = cover_from_graph(extremal_graph(44))\n"
        "m = c.ground_size\n"
        "first, last = c.sets[0] == (1 << m // 3) - 1, c.sets[-1] == ((1 << m) - 1) // 3 << 1\n"
        "print(m, len(c.sets), first, last, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = run_cpu_capped(code, 2)
    assert proc.returncode == 0, proc.stderr
    m, k, first, last, rss_kib = proc.stdout.split()
    assert (int(m), int(k), first, last) == (9_565_938, 44, "True", "True")
    assert int(rss_kib) < 200 * 1024


def test_graph_from_singleton_cover():
    g = graph_from_cover(SeparatingCover(3, [{0}, {1}, {2}]))
    assert g == complete_graph(3)
    assert graph_from_cover(SeparatingCover(1, [{0}])) == complete_graph(1)


def test_graph_from_cover_rejects_invalid():
    with pytest.raises(CoverValidationError) as exc:
        graph_from_cover(SeparatingCover(2, [{0, 1}]))
    assert exc.value.report.unseparated == (0, 1)
    with pytest.raises(ValueError, match="^cover has 129 sets; at most 128 supported$"):
        graph_from_cover(SeparatingCover(129, [1 << x for x in range(129)]))


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
        h = graph_from_cover(c)
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
    expected = bitwise_transpose(rows, width)
    # both directions, through _columns where the width fits a graph
    for a, b, n in ((rows, expected, width), (expected, rows, k)):
        assert_same_words(_signatures(a, n), b)
        if n <= MAX_VERTICES:
            assert_same_words(_columns(a, n), b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signatures_and_columns_match_bitwise_reference(data):
    # a row is a word of random bits at a random offset: empty rows and
    # lists, more than one block of 64 rows, sparse spans far out, and a
    # width past the longest row
    tall = data.draw(st.booleans(), label="more than one block")
    reach = data.draw(st.sampled_from([0, 50, 5000]), label="reach")
    row = st.builds(operator.lshift, st.integers(0, 2**70), st.integers(0, reach))
    rows = data.draw(st.lists(row, min_size=65 if tall else 0, max_size=200), label="masks")
    width = max(map(int.bit_length, rows), default=0) + data.draw(st.integers(0, 70))
    expected = bitwise_transpose(rows, width)
    assert_same_words(_signatures(rows, width), expected)
    if width <= MAX_VERTICES:
        assert_same_words(_columns(rows, width), expected)


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
    # single-element sets far from 0: signatures, members, masks and the
    # disjointness table must cost the sets' spans, not ground_size per set
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
    # 300 single-element sets near the end: every pair is disjoint, which the
    # pairwise ANDs of seed_disjointness take seconds to find here
    c = SeparatingCover(m, [[m - 1 - 3 * i] for i in range(300)])
    everyone = (1 << 300) - 1
    assert _disjointness(c.sets) == [everyone ^ 1 << i for i in range(300)]
    assert validate_cover(c) == CoverReport(False, False, 0, (0, 1))


@pytest.mark.parametrize("m", [2**40, 2**63])
def test_scan_is_sized_by_the_sets_not_the_ground_set(m):
    # elements past the last set's reach are uncovered, and the first of
    # them fails with every lower element; nothing is sized by m
    c = SeparatingCover(m, [[0], [1]])
    assert validate_cover(c) == CoverReport(False, False, 2, (0, 2))
    with pytest.raises(CoverValidationError) as exc:
        graph_from_cover(c)
    assert exc.value.report == CoverReport(False, False, 2, (0, 2))
    # the report is the one of the same sets on two elements past their reach
    rng = random.Random(m % 1000)
    for _ in range(200):
        lists = random_cover_lists(rng, rng.randint(1, 12), rng.randint(1, 10))
        small = SeparatingCover(max(map(max, lists), default=-1) + 3, lists)
        assert validate_cover(SeparatingCover(m, lists)) == seed_validate_cover(small)


def saturated_covers(rng: random.Random):
    """Covers whose every signature is a maximal independent set of the disjointness graph.

    Permuted minimal covers, and the MIS covers of cubic, random and
    clique-heavy graphs, whose signatures vary in size; the last has more
    than 64 sets.
    """
    for m in (2, 7, 40, 150, 300):
        yield permuted(minimal_cover(m), rng)
    for k in (4, 5, 7):
        yield permuted(cover_from_graph(prism_graph(k)), rng)
    for n in (6, 9, 12):
        yield cover_from_graph(random_graph_no_isolated(rng, n, 0.3))
    cliques = disjoint_union(complete_graph(60), complete_graph(5))
    cross = [(rng.randrange(60), 60 + rng.randrange(5)) for _ in range(4)]
    yield cover_from_graph(from_edges(65, [*cliques.edges(), *cross]))


def test_saturated_covers_and_planted_twins_match_seed_code():
    # every element saturated: the cover is valid exactly when its
    # signatures are distinct, and a twin is found without a scan
    rng = random.Random(20)
    twins = 0
    for c in saturated_covers(rng):
        m = c.ground_size
        assert all(saturation(c))
        assert validate_cover(c) == seed_validate_cover(c) == CoverReport(True, True)
        pairs = {(0, 1), (0, m - 1), (m - 2, m - 1)} | {
            tuple(sorted(rng.sample(range(m), 2))) for _ in range(12)
        }
        for x, y in sorted(pairs):
            twin = plant_twin(c, x, y)
            assert all(saturation(twin))
            report = validate_cover(twin)
            assert report == seed_validate_cover(twin) == CoverReport(True, False, None, (x, y))
            twins += 1
        # two twins: the first failure is the least element of either pair
        x, y, u, v = sorted(rng.sample(range(m), 4)) if m >= 4 else (0, 1, 0, 1)
        twin = plant_twin(plant_twin(c, u, v), x, y)
        assert validate_cover(twin) == seed_validate_cover(twin)
    assert twins >= 140


def test_partly_saturated_covers_match_seed_code():
    # a set joining two disjoint sets can leave elements of neither
    # unsaturated, and then the whole cover keeps the per-element scan; so
    # does a cover where y holds only some of the sets of x
    rng = random.Random(21)
    mixed = 0
    for c in saturated_covers(rng):
        adj = seed_disjointness(c.sets)
        pairs = [(i, j) for i in range(len(c.sets)) for j in _bits_of(adj[i]) if i < j]
        for i, j in rng.sample(pairs, len(pairs)):
            joined = SeparatingCover(c.ground_size, [*c.sets, c.sets[i] | c.sets[j]])
            if not all(saturation(joined)):
                break
        mixed += not all(saturation(joined))
        assert validate_cover(joined) == seed_validate_cover(joined)
        m = c.ground_size
        # a twin in the joined cover, and y given part of the sets of x: its
        # signature differs from that of x, yet the pair is not separated
        for x, y in {tuple(sorted(rng.sample(range(m), 2))) for _ in range(6)}:
            for twin in (plant_twin(joined, x, y), plant_subset_twin(c, x, y)):
                assert validate_cover(twin) == seed_validate_cover(twin)
            assert not all(saturation(twin))
    assert mixed >= 8


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
    twin = plant_twin(c, x, y)
    expected = [
        (c, CoverReport(True, True)),
        (drop, CoverReport(False, False, u, (0, u or 1))),
        (twin, CoverReport(True, False, None, (x, y))),
    ]
    for cover, report in expected:
        assert validate_cover(cover) == report
        if m < 10_000:
            assert seed_validate_cover(cover) == report


def test_validate_minimal_cover_at_1e6_under_cpu_limit():
    # about 0.4 s of CPU on a 2-core x86 host; the per-element scan took minutes
    code = "from miscover import *\nprint(validate_cover(minimal_cover(10**6)))\n"
    proc = run_cpu_capped(code, 3)
    assert (proc.returncode, proc.stdout) == (0, f"{CoverReport(True, True)}\n"), proc.stderr


def test_validate_dense_cover_of_3e6_elements_under_cpu_limit():
    # the MIS cover of extremal_graph(41), 3 188 646 elements on 41 sets,
    # valid and then with one twin planted: built in about 0.06 s and
    # validated in about 1.5 s and 4 s of CPU, at 0.54 GiB peak RSS, on a
    # 2-core x86 host; the per-element scan would take hours
    x, y = 1_234_567, 3_000_000
    code = (
        "from miscover import *\n"
        "c = cover_from_graph(extremal_graph(41))\n"
        "m = c.ground_size\n"
        "print(m, len(c.sets), validate_cover(c))\n"
        f"x, y = {x}, {y}\n"
        "sets = [s & ~(1 << y) | (s >> x & 1) << y for s in c.sets]\n"
        "del c\n"
        "print(validate_cover(SeparatingCover(m, sets)))\n"
    )
    proc = run_cpu_capped(code, 30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"3188646 41 {CoverReport(True, True)}",
        f"{CoverReport(True, False, None, (x, y))}",
    ]


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
    # the reference lists every MIS of the extremal graph (once per vertex
    # count) and restricts the cover to the first m elements; the layout
    # changes shape where the extremal graph does, at 3^i, 4*3^(i-1), 2*3^i
    boundaries = {
        b + d
        for i in range(1, 11)
        for b in (3**i, 4 * 3 ** (i - 1), 2 * 3**i)
        for d in (-1, 0, 1)
    }
    sizes = set(range(1, 301)) | {1000, 10_000} | {m for m in boundaries if m <= 10**5}
    covers = {}
    for m in sorted(sizes):
        n = min_separating_sets(m)
        if n not in covers:
            covers[n] = seed_cover_from_graph(extremal_graph(n))
        full = covers[n]
        keep = (1 << m) - 1
        expected = SeparatingCover(m, [s & keep for s in full.sets if s & keep])
        got = minimal_cover(m)
        assert got == expected
        if m <= 10_000:
            assert cover_to_json(got) == seed_cover_to_json(expected)


def test_minimal_cover_builds_no_graph_and_lists_nothing(monkeypatch):
    # the cliques of closedforms._parts go to the builder as its factors;
    # the test above still checks the layout against the listed MISes
    def refuse(*args, **kwargs):
        raise AssertionError("minimal_cover must not build a graph or list MISes")

    monkeypatch.setattr(miscover.covers, "_mis_factors", refuse)
    monkeypatch.setattr(miscover.graphs, "_mis_masks", refuse)
    monkeypatch.setattr(miscover.graphs, "extremal_graph", refuse)
    monkeypatch.setattr(miscover.graphs.Graph, "__post_init__", refuse)
    for m in (1, 2, 10, 10**4, 10**6):
        assert minimal_cover(m).ground_size == m


@pytest.mark.parametrize("m", [True, 2.5, "5", 0, 10**6 + 1])
def test_minimal_cover_takes_only_ints_from_one(m):
    # and only up to 10**6
    message = f"m must be an int >= 1, got {m!r}"
    if m == 10**6 + 1:
        message = "m must be <= 10**6, got 1000001"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        minimal_cover(m)


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
