"""Closed forms for the quantities the rest of the library cross-checks.

All four functions take a non-bool int and return exact Python integers;
nothing here rounds or overflows, and any other argument (2.5, 7.0, True)
is a ValueError.  ``max_partition_product`` and ``min_separating_sets`` are a
left-inverse pair (``min_separating_sets(max_partition_product(n)) == n``),
which the test suite verifies against brute-force search.
``max_with_ones`` is ``max_partition_product`` under Mahler and Popken's
name for it, so the largest partition product is computed in one place.
"""

import math


def _is_index(x) -> bool:
    """A non-negative int that is not a bool (JSON true would pass as 1)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_positive(name: str, x) -> None:
    """The argument check all four closed forms share: an int >= 1, not a bool."""
    if not _is_index(x) or x < 1:
        raise ValueError(f"{name} must be an int >= 1, got {x!r}")


def _parts(n: int) -> tuple[int, list[int]]:
    """The parts of the largest product summing to n >= 1: i threes and a tail.

    The tail is [], [2, 2] or [2] for n mod 3 = 0, 1, 2 (a 3 + 1 left over
    is worth more as 2 + 2), and n = 1 is the one part 1.  This is the one
    place that splits n by its remainder: the closed forms, the extremal
    graphs' cliques and the minimal covers' factors all read it.
    """
    if n == 1:
        return 0, [1]
    i, r = divmod(n, 3)
    return {0: (i, []), 1: (i - 1, [2, 2]), 2: (i, [2])}[r]


def max_partition_product(n: int) -> int:
    """Largest product of positive integers summing to n (use 3s, then 2s).

    For n >= 2 the value is 3**i, 4 * 3**(i-1), or 2 * 3**i according to
    n = 3i, 3i+1, 3i+2; the special case is max_partition_product(1) == 1.

    There is no size cap here (the CLI has one).  The cost is one big-int
    power, about n**1.6: measured CPU time on a 2-core x86 host, Python
    3.11, is 0.4 ms at n = 10**5, 17 ms at 10**6, 0.6 s at 10**7 and 23 s
    at 10**8.
    """
    _check_positive("n", n)
    i, tail = _parts(n)
    return 3**i * math.prod(tail)


def min_separating_sets(m: int) -> int:
    """Minimum number of sets in a separating cover on m elements.

    It is min{n : max_partition_product(n) >= m}.  For the least i >= 1
    with m <= 3**i, max_partition_product(3i) = 3**i reaches m and
    max_partition_product(3i-3) = 3**(i-1) does not (for i > 1), so the
    answer is the first of 3i-2, 3i-1 and 3i whose product reaches m.  The
    tests check it against an independent three-case range form.
    """
    _check_positive("m", m)
    i, pow3 = 1, 3
    while pow3 < m:
        i, pow3 = i + 1, 3 * pow3
    return next((n for n in (3 * i - 2, 3 * i - 1) if max_partition_product(n) >= m), 3 * i)


def perrin(j: int) -> int:
    """j-th Perrin number with seeds P(1)=0, P(2)=2, P(3)=3.

    Recurrence P(j) = P(j-2) + P(j-3).  With these seeds perrin(j) counts
    the maximal independent sets of the j-cycle for every j >= 3, which is
    how the seed convention is validated (see the graph tests).

    There is no size cap here (the CLI has one).  The loop makes j big-int
    additions of up to 0.41 j bits, so the cost is quadratic: measured CPU
    time on a 2-core x86 host, Python 3.11, is 1 ms at j = 10**4, 85 ms at
    10**5, 0.6 s at 3 * 10**5 and 7.9 s at 10**6 (10**7 would take about
    13 minutes).
    """
    _check_positive("j", j)
    a, b, c = 0, 2, 3  # P(1), P(2), P(3)
    if j == 1:
        return a
    if j == 2:
        return b
    for _ in range(j - 3):
        a, b, c = b, c, a + b
    return c


def max_with_ones(n: int) -> int:
    """Largest integer expressible with exactly n ones under + and *.

    It is max_partition_product(n) (Mahler and Popken, 1953), and the
    paper's closing section derives this again from Moon-Moser: sums
    become joins and products disjoint unions, so an expression with n
    ones is an n-vertex graph with as many MISes as its value, at most
    max_partition_product(n); a product of sums of three ones (and of
    two) attains it.  The tests compare it with the direct quadratic DP
    over the splits of n.
    """
    return max_partition_product(n)
