"""Closed forms for the quantities the rest of the library cross-checks.

All four functions take a non-bool int and return exact Python integers;
nothing here rounds or overflows, and any other argument (2.5, 7.0, True)
is a ValueError.  ``max_partition_product`` and ``min_separating_sets`` are a
left-inverse pair (``min_separating_sets(max_partition_product(n)) == n``),
which the test suite verifies against brute-force search.
"""

# max_with_ones is a quadratic DP over big ints: 2 000 took 0.8 s of CPU on
# a 2-core x86 host, Python 3.11 (1 000: 0.11 s, 4 000: 6.7 s).
MAX_ONES = 2000


def _is_index(x) -> bool:
    """A non-negative int that is not a bool (JSON true would pass as 1)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_positive(name: str, x) -> None:
    """The argument check all four closed forms share: an int >= 1, not a bool."""
    if not _is_index(x) or x < 1:
        raise ValueError(f"{name} must be an int >= 1, got {x!r}")


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
    if n == 1:
        return 1
    i, r = divmod(n, 3)
    if r == 0:
        return 3**i
    if r == 1:
        return 4 * 3 ** (i - 1)
    return 2 * 3**i


def min_separating_sets(m: int) -> int:
    """Minimum number of sets in a separating cover on m elements.

    Three-case closed form: 3i when 2*3**(i-1) < m <= 3**i, then 3i+1 up to
    4*3**(i-1), then 3i+2 up to 2*3**i; with the base cases for m = 1, 2.
    Equals min{n : max_partition_product(n) >= m}, which the tests check
    independently.
    """
    _check_positive("m", m)
    if m == 1:
        return 1
    if m == 2:
        return 2
    i = 1
    pow3 = 3  # 3**i
    while True:
        prev = pow3 // 3  # 3**(i-1)
        if 2 * prev < m <= pow3:
            return 3 * i
        if pow3 < m <= 4 * prev:
            return 3 * i + 1
        if 4 * prev < m <= 2 * pow3:
            return 3 * i + 2
        pow3 *= 3
        i += 1


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

    Computed by the direct DP E(n) = max over a+b=n of max(E(a)+E(b),
    E(a)*E(b)) with E(1)=1, independent of max_partition_product; the two
    agree everywhere (tested, not assumed).  n is at most MAX_ONES.
    """
    _check_positive("n", n)
    if n > MAX_ONES:
        raise ValueError(f"n must be <= MAX_ONES = {MAX_ONES}, got {n}")
    e = [0, 1]
    for k in range(2, n + 1):
        best = 0
        for a in range(1, k // 2 + 1):
            x, y = e[a], e[k - a]
            cand = x * y if x * y > x + y else x + y
            if cand > best:
                best = cand
        e.append(best)
    return e[n]
