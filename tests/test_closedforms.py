import pytest

from conftest import seed_max_with_ones
from miscover import (
    max_partition_product,
    max_with_ones,
    min_separating_sets,
    perrin,
)
from miscover.oracles import brute_max_partition_product


def test_max_partition_product_small_values():
    assert max_partition_product(1) == 1
    assert max_partition_product(2) == 2
    assert max_partition_product(5) == 6  # brute force over partitions of 5
    assert max_partition_product(10) == 36


def test_max_partition_product_rejects_zero():
    with pytest.raises(ValueError):
        max_partition_product(0)
    with pytest.raises(ValueError):
        max_partition_product(-3)


def test_max_partition_product_three_cases():
    assert max_partition_product(9) == 3**3
    assert max_partition_product(10) == 4 * 3**2
    assert max_partition_product(11) == 2 * 3**3


def test_strictly_increasing_to_200():
    values = [max_partition_product(n) for n in range(1, 202)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_super_multiplicative():
    for a in range(1, 120):
        for b in range(1, 121 - a):
            assert (
                max_partition_product(a) * max_partition_product(b)
                <= max_partition_product(a + b)
            )


def test_cycle_strict_bound():
    # the degree-2 case of the extremal argument needs this strictly
    for j in range(6, 101):
        assert (
            2 * max_partition_product(j - 3) + max_partition_product(j - 4)
            < max_partition_product(j)
        )


def test_agrees_with_partition_search():
    for n in range(1, 41):
        assert max_partition_product(n) == brute_max_partition_product(n)


def test_min_separating_sets_small_values():
    assert min_separating_sets(1) == 1
    assert min_separating_sets(2) == 2
    assert min_separating_sets(10) == 7  # ell(6)=9 < 10 <= 12=ell(7)


def test_min_separating_sets_rejects_zero():
    with pytest.raises(ValueError):
        min_separating_sets(0)


def test_left_inverse_of_partition_product():
    for n in range(1, 201):
        assert min_separating_sets(max_partition_product(n)) == n


def test_min_separating_sets_is_min_threshold_form():
    # nondecreasing, and equal to min{n : max_partition_product(n) >= m}
    ell = [0]
    n = 0
    prev = 0
    for m in range(1, 10001):
        while ell[-1] < m:
            n += 1
            ell.append(max_partition_product(n))
        threshold = next(k for k in range(1, n + 1) if ell[k] >= m)
        s = min_separating_sets(m)
        assert s == threshold
        assert s >= prev
        prev = s


def seed_max_partition_product(n: int) -> int:
    """The three-case form that max_partition_product replaced, as a reference."""
    if n == 1:
        return 1
    i, r = divmod(n, 3)
    if r == 0:
        return 3**i
    if r == 1:
        return 4 * 3 ** (i - 1)
    return 2 * 3**i


def seed_min_separating_sets(m: int) -> int:
    """The range loop that min_separating_sets replaced, as a reference."""
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


def test_closed_forms_match_seed_code():
    # min_separating_sets is now its own threshold definition, so the test
    # above checks it against itself; these references stay independent
    for n in [*range(1, 3001), 10**4, 27_037, 10**5]:
        assert max_partition_product(n) == seed_max_partition_product(n)
    around = {b + d for k in range(200) for b in (3**k, 2 * 3**k, 4 * 3**k) for d in (-1, 0, 1)}
    for m in sorted(set(range(1, 20_001)) | around - {0}):
        assert min_separating_sets(m) == seed_min_separating_sets(m)


def test_perrin_seeds_and_values():
    assert [perrin(j) for j in range(1, 11)] == [0, 2, 3, 2, 5, 5, 7, 10, 12, 17]
    with pytest.raises(ValueError):
        perrin(0)


def test_perrin_recurrence_holds():
    vals = [perrin(j) for j in range(1, 60)]
    for j in range(3, 59):
        assert vals[j] == vals[j - 2] + vals[j - 3]


def test_max_with_ones_values():
    assert max_with_ones(1) == 1
    assert max_with_ones(7) == 12
    assert max_with_ones(12) == 81
    with pytest.raises(ValueError):
        max_with_ones(0)


def test_max_with_ones_matches_partition_product():
    # max_with_ones is max_partition_product itself, so the independent
    # side is the DP over splits of n that it replaced (0.1 s to 1 000)
    seed = seed_max_with_ones(1000)
    assert [max_with_ones(n) for n in range(1, 1001)] == seed[1:]


def test_values_are_exact_big_ints():
    # 3**(n/3) leaves 64-bit range near n = 122; everything must stay exact
    assert max_partition_product(123) == 3**41
    assert max_with_ones(123) == 3**41
    assert min_separating_sets(3**41) == 123


@pytest.mark.parametrize("f", [max_partition_product, min_separating_sets, perrin, max_with_ones])
@pytest.mark.parametrize("x", [2.5, 7.0, True])
def test_closed_forms_take_only_non_bool_ints(f, x):
    with pytest.raises(ValueError, match=r"must be an int >= 1, got"):
        f(x)


def test_max_with_ones_has_no_cap():
    # the closed form has no size cap, like max_partition_product; the
    # CLI bounds n by what prints
    for n in (2001, 27_038, 10**5):
        assert max_with_ones(n) == max_partition_product(n)
