import random

import pytest

from miscover import (
    ExpressionSyntaxError,
    add,
    format_expression,
    mul,
    one,
    parse_expression,
)


def test_parse_sum_of_products():
    e = parse_expression("(1+1+1)(1+1+1)+1")
    assert e.value == 10 and e.ones == 7


def test_parse_single_one():
    e = parse_expression("1")
    assert e.value == 1 and e.ones == 1


def test_parse_nested_product():
    e = parse_expression("(1+1)((1+1)(1+1)+1)")
    assert e.value == 10 and e.ones == 7


def test_explicit_star_and_whitespace():
    assert parse_expression("(1+1)*(1+1+1)").value == 6
    assert parse_expression("  ( 1 + 1 ) ( 1 + 1 + 1 )  ").value == 6
    assert parse_expression("(1+1)*(1+1+1)") == parse_expression("(1+1)(1+1+1)")


def test_format_examples():
    assert format_expression(one()) == "1"
    t = mul(add(one(), one()), add(one(), add(one(), one())))
    assert format_expression(t) == "(1+1)(1+1+1)"
    four = mul(add(one(), one()), add(one(), one()))
    fig = mul(add(one(), one()), add(four, one()))
    assert format_expression(fig) == "(1+1)((1+1)(1+1)+1)"


def test_cached_value_and_ones_consistency():
    e = mul(add(one(), one()), add(one(), mul(one(), one())))
    assert e.value == 2 * (1 + 1) and e.ones == 5
    assert e.left.ones + e.right.ones == e.ones


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("2", 0),
        ("1+2", 2),
        ("1+", 2),
        ("(1+1", 4),
        ("1)", 1),
        ("1+*1", 2),
        ("x", 0),
        ("()", 1),
    ],
)
def test_syntax_errors_carry_position(text, position):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression(text)
    assert exc.value.position == position


def random_tree(rng, ones):
    if ones == 1:
        return one()
    split = rng.randint(1, ones - 1)
    build = add if rng.random() < 0.5 else mul
    return build(random_tree(rng, split), random_tree(rng, ones - split))


def test_round_trip_on_random_trees():
    rng = random.Random(2024)
    for _ in range(10_000):
        t = random_tree(rng, rng.randint(1, 30))
        assert parse_expression(format_expression(t)) == t


def all_trees(n):
    if n == 1:
        yield one()
        return
    for k in range(1, n):
        for left in all_trees(k):
            for right in all_trees(n - k):
                yield add(left, right)
                yield mul(left, right)


def test_round_trip_exhaustive_small_trees():
    for n in range(1, 8):
        for t in all_trees(n):
            assert parse_expression(format_expression(t)) == t


def recursive_parse(text):
    """The recursive-descent parser parse_expression replaced: the reference
    for its trees and for the position and message of every error."""
    tokens = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch in "1+*()":
            tokens.append((ch, pos))
        elif ch.isdigit():
            raise ExpressionSyntaxError(pos, f"digit {ch!r} is not allowed, only '1'")
        else:
            raise ExpressionSyntaxError(pos, f"unexpected character {ch!r}")
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def error_pos():
        return tokens[idx][1] if idx < len(tokens) else len(text)

    def parse_expr():
        nonlocal idx
        node = parse_term()
        if peek() == "+":
            idx += 1
            return add(node, parse_expr())
        return node

    def parse_term():
        nonlocal idx
        node = parse_factor()
        nxt = peek()
        if nxt == "*":
            idx += 1
            if peek() not in ("1", "("):
                raise ExpressionSyntaxError(error_pos(), "expected '1' or '(' after '*'")
            return mul(node, parse_term())
        if nxt in ("1", "("):
            return mul(node, parse_term())
        return node

    def parse_factor():
        nonlocal idx
        tok = peek()
        if tok == "1":
            idx += 1
            return one()
        if tok == "(":
            idx += 1
            node = parse_expr()
            if peek() != ")":
                raise ExpressionSyntaxError(error_pos(), "expected ')'")
            idx += 1
            return node
        raise ExpressionSyntaxError(error_pos(), "expected '1' or '('")

    if not tokens:
        raise ExpressionSyntaxError(0, "empty expression")
    result = parse_expr()
    if idx < len(tokens):
        raise ExpressionSyntaxError(error_pos(), f"unexpected {tokens[idx][0]!r}")
    return result


def outcome(parse, text):
    try:
        return parse(text)
    except ExpressionSyntaxError as e:
        return (e.position, str(e))


def test_parser_matches_recursive_reference():
    rng = random.Random(5)
    texts = [format_expression(random_tree(rng, rng.randint(1, 20))) for _ in range(500)]
    for _ in range(20_000):
        texts.append("".join(rng.choice("11+*() ") for _ in range(rng.randint(0, 12))))
    for text in texts:
        assert outcome(parse_expression, text) == outcome(recursive_parse, text), text


def test_parser_takes_long_chains_and_deep_nesting():
    deep = "(" * 5000 + "1" + ")" * 5000
    assert parse_expression(deep) == one()
    chain = parse_expression("1" * 5000)
    assert chain.ones == 5000 and chain.value == 1
    assert chain.right.ones == 4999  # right-associated
    total = parse_expression("+".join(["1"] * 5000))
    assert total.value == 5000 and total.left == one()
    nested = parse_expression("(1+" * 3000 + "1" + ")" * 3000)
    assert nested.value == 3001
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("(" * 5000 + "1")
    assert exc.value.position == 5001


def recursive_format(e):
    """The recursive printer format_expression replaced: the reference for
    its output bytes."""
    if e.kind == "one":
        return "1"
    left, right = e.left, e.right
    if e.kind == "sum":
        ls = recursive_format(left)
        if left.kind == "sum":
            ls = f"({ls})"
        return f"{ls}+{recursive_format(right)}"
    ls = recursive_format(left)
    if left.kind != "one":
        ls = f"({ls})"
    rs = recursive_format(right)
    if right.kind == "sum":
        rs = f"({rs})"
    return ls + rs


def test_format_matches_recursive_reference():
    rng = random.Random(11)
    trees = [random_tree(rng, rng.randint(1, 40)) for _ in range(3000)]
    trees += [t for n in range(1, 7) for t in all_trees(n)]
    for t in trees:
        assert format_expression(t) == recursive_format(t)


def test_equality_and_hash_follow_the_fields():
    a = mul(add(one(), one()), add(one(), add(one(), one())))
    b = parse_expression("(1+1)(1+1+1)")
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != add(a.left, a.right)  # same children and value, other kind
    assert a != mul(a.right, a.left)  # same value and ones, other shape
    assert len({a, b, mul(a.right, a.left)}) == 2
    assert (a == "(1+1)(1+1+1)") is False


@pytest.mark.parametrize(
    "text",
    ["1" * 1500, "(1+" * 1500 + "1" + ")" * 1500],
    ids=["chain-1500", "nested-sum-1500"],
)
def test_deep_trees_format_compare_and_hash(text):
    e = parse_expression(text)
    assert e.ones == text.count("1")
    printed = format_expression(e)
    again = parse_expression(printed)
    assert again == e and hash(again) == hash(e)
    assert format_expression(again) == printed
    # regroup op(1, op(1, 1)) at the bottom as op(op(1, 1), 1): every
    # ancestor keeps its kind, value and ones, so only a full walk tells
    spine = [e]
    while spine[-1].right.kind != "one":
        spine.append(spine[-1].right)
    op = add if spine[-1].kind == "sum" else mul
    changed = op(op(one(), one()), one())
    for parent in reversed(spine[:-2]):
        changed = op(parent.left, changed)
    assert (changed.value, changed.ones) == (e.value, e.ones)
    assert changed != e and e != changed
