import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miscover
from miscover import (
    complexity_csv,
    complexity_table,
    count_mis,
    enumerate_mis,
    graph_from_expression,
    max_partition_product,
    min_separating_sets,
    minimal_expression,
    parse_expression,
)
from miscover.complexity import MAX_TABLE_LIMIT
from miscover.oracles import brute_complexity

REFERENCE = Path(__file__).parent / "data" / "complexity_reference_1000.csv"


def reference_pairs():
    return [tuple(map(int, line.split(","))) for line in REFERENCE.read_text().split()]


def seed_scan(limit):
    """The full scan complexity_table replaced: every summand i <= m/2 by
    argmin, then every divisor up to sqrt(m) with strict <.  It assumes
    nothing about complexities, so it is the reference for c and choice."""
    c = np.zeros(limit + 1, dtype=np.int32)
    choice = np.zeros(limit + 1, dtype=np.int32)
    c[1] = 1
    for m in range(2, limit + 1):
        half = m // 2
        sums = c[1 : half + 1] + c[m - 1 : m - half - 1 : -1]
        k = int(np.argmin(sums))
        best = int(sums[k])
        pick = k + 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                cand = int(c[d] + c[m // d])
                if cand < best:
                    best = cand
                    pick = -d
            d += 1
        c[m] = best
        choice[m] = pick
    return c, choice


@pytest.fixture(scope="module")
def seed_reference():
    # the scan fills m in ascending order whatever the limit, so the table
    # for any limit <= 10**5 is a prefix of this one (about 6 s)
    return seed_scan(10**5)


def test_table_is_bit_identical_to_seed_scan(seed_reference):
    edges = {e for k in range(1, 17) for e in (2**k - 1, 2**k, 2**k + 1)}
    for limit in sorted(set(range(1, 71)) | edges | {10**4, 10**5}):
        ref_c, ref_choice = seed_scan(limit) if limit <= 70 else seed_reference
        t = complexity_table(limit)
        assert t.c.dtype == t.choice.dtype == np.int32
        assert np.array_equal(t.c, ref_c[: limit + 1]), limit
        assert np.array_equal(t.choice, ref_choice[: limit + 1]), limit


def test_table_at_max_limit_matches_exact_digests():
    # complexity_table takes only the summand 1 (module docstring); these
    # digests of c and choice at 10**7 come from a build that scanned every
    # summand the Mahler-Popken bound allows, so they guard that rule at
    # the cap.  Same form as bench/workloads.array_digest.
    t = complexity_table(MAX_TABLE_LIMIT)

    def digest(a):
        return hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()

    assert MAX_TABLE_LIMIT == 10**7
    assert digest(t.c) == "74db27cf92af3ae2877a58a8079323d15e6cb0cc50125b0ab5e69f00087cdbb9"
    assert digest(t.choice) == "d613ff61e92ebfd9f5ab3e06535a2c7ddee494e16cfd1a403ee7d316790bb8e2"


def test_bounds_from_partition_products_to_1e5():
    # c[m] >= min_separating_sets(m) for every m, and the largest m of
    # complexity n is max_partition_product(n), well past the 8 800 table
    limit = 10**5
    c = complexity_table(limit).c[1:]
    reach = [max_partition_product(n) for n in range(1, 40)]
    # s(m) = min{n : max_partition_product(n) >= m}, checked at the edges
    s = np.searchsorted(reach, np.arange(1, limit + 1)) + 1
    for r in reach[:31]:  # max_partition_product(1..31), all below limit
        assert s[r - 1] == min_separating_sets(r) and s[r] == min_separating_sets(r + 1)
    assert (s <= c).all()
    assert reach[30] < limit < reach[31]
    for n in range(1, 32):
        assert np.flatnonzero(c == n).max() + 1 == max_partition_product(n), n


def test_table_spot_values():
    t = complexity_table(1000)
    assert t[10] == 7
    assert t[719] == 23
    assert t[1000] == 21
    assert t[107] == 16


def test_table_matches_reference_values():
    t = complexity_table(1000)
    pairs = reference_pairs()
    assert len(pairs) == 1000
    assert all(t[m] == c for m, c in pairs)
    assert complexity_csv(t) == REFERENCE.read_text()


def test_table_rejects_bad_limits():
    with pytest.raises(ValueError):
        complexity_table(0)
    with pytest.raises(ValueError, match="exceeds MAX_TABLE_LIMIT = 10000000"):
        complexity_table(10**7 + 1)
    t = complexity_table(5)
    with pytest.raises(IndexError):
        t[6]
    with pytest.raises(IndexError):
        t[0]


@pytest.mark.parametrize("bad", [2.5, "5", True, -1])
def test_arguments_that_are_not_ints_are_one_value_error(bad):
    t = complexity_table(5)
    with pytest.raises(ValueError, match=f"limit must be >= 1, got {bad!r}$"):
        complexity_table(bad)
    with pytest.raises(ValueError, match=f"m must be in 1..5, got {bad!r}$"):
        minimal_expression(bad, t)
    with pytest.raises(ValueError, match=f"limit must be in 1..5, got {bad!r}$"):
        complexity_csv(t, bad)


def test_minimal_expression_examples():
    t = complexity_table(10)
    e = minimal_expression(1, t)
    assert e.value == 1 and e.ones == 1
    e = minimal_expression(10, t)
    assert e.value == 10 and e.ones == 7
    e = minimal_expression(6, t)
    assert e.value == 6 and e.ones == 5
    with pytest.raises(ValueError):
        minimal_expression(11, t)


def test_minimal_expression_sound_to_5000():
    t = complexity_table(5000)
    for m in range(1, 5001):
        e = minimal_expression(m, t)
        assert e.value == m
        assert e.ones == t[m]


def test_minimal_expression_deterministic():
    t1 = complexity_table(800)
    t2 = complexity_table(800)
    for m in (2, 10, 31, 719):
        assert minimal_expression(m, t1) == minimal_expression(m, t2)


def test_graph_from_expression_examples():
    g = graph_from_expression(parse_expression("1"))
    assert g.n == 1 and count_mis(g) == 1
    g = graph_from_expression(parse_expression("(1+1)((1+1)(1+1)+1)"))
    assert g.n == 7 and count_mis(g) == 10
    g = graph_from_expression(parse_expression("(1+1)(1+1+1)"))
    assert g.n == 5 and count_mis(g) == 6
    from miscover import complete_graph, disjoint_union

    assert g == disjoint_union(complete_graph(2), complete_graph(3))


def test_graph_from_expression_equals_joins_and_unions():
    # the graph built node by node with the public join and disjoint_union,
    # as the reference for the rows built in one pass
    from miscover import complete_graph, disjoint_union, join
    from miscover import expressions as ex

    def compose(node):
        if node.kind == ex.ONE:
            return complete_graph(1)
        left, right = compose(node.left), compose(node.right)
        return (join if node.kind == ex.SUM else disjoint_union)(left, right)

    table = complexity_table(20_000)
    for m in list(range(1, 200)) + list(range(19_900, 20_001)):
        e = minimal_expression(m, table)
        assert graph_from_expression(e) == compose(e)
    for text in ("1+1", "(1+1)(1+1+1)", "(1+1)((1+1)(1+1)+1)", "((1+1)(1+1)+1)(1+1)+1"):
        e = parse_expression(text)
        assert graph_from_expression(e) == compose(e)


def test_graph_from_expression_rejects_too_many_ones():
    t = parse_expression("+".join(["1"] * 129))
    with pytest.raises(ValueError):
        graph_from_expression(t)


def test_graph_from_expression_rejects_inconsistent_value_under_optimize():
    # the check must survive python -O, which strips assert statements
    code = (
        "from miscover import graph_from_expression\n"
        "from miscover.expressions import SUM, Expression, one\n"
        "try:\n"
        "    graph_from_expression(Expression(SUM, one(), one(), 5, 2))\n"
        "except ValueError as e:\n"
        "    print('rejected:', e)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:") and "value 5" in proc.stdout


def test_construction_sound_to_300_with_enumeration_to_60():
    t = complexity_table(300)
    for m in range(1, 301):
        g = graph_from_expression(minimal_expression(m, t))
        assert g.n == t[m]
        assert count_mis(g) == m
        if m <= 60:
            assert len(enumerate_mis(g)) == m


def test_largest_integer_of_each_complexity(big_table):
    # max{m : c(m) = n} is the maximum-product partition value
    assert big_table.limit >= max_partition_product(25) + 1
    largest = {}
    for m in range(1, big_table.limit + 1):
        largest[big_table[m]] = m
    for n in range(1, 26):
        assert largest[n] == max_partition_product(n)


def test_agrees_with_reachable_value_oracle():
    t = complexity_table(500)
    for m in range(1, 501):
        assert t[m] == brute_complexity(m), m


def test_csv_emission():
    t = complexity_table(10)
    csv = complexity_csv(t)
    lines = csv.splitlines()
    assert lines[0] == "1,1"
    assert lines[-1] == "10,7"
    assert len(lines) == 10
    assert complexity_csv(t, 3) == "1,1\n2,2\n3,3\n"
    with pytest.raises(ValueError):
        complexity_csv(t, 11)
