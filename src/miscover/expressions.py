"""Expressions built from 1s with + and *, plus a parser and printer.

Grammar (whitespace ignored):

    expr   := term ('+' expr)?
    term   := factor ('*'? term)?          juxtaposition multiplies
    factor := '1' | '(' expr ')'

Both operators parse right-associatively, products bind tighter than
sums, and juxtaposed factors such as ``(1+1)(1+1+1)`` multiply.  The
printer emits '+' and juxtaposition only; '*' is accepted on input but
never produced.  Printing then re-parsing reproduces the tree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

ONE = "one"
SUM = "sum"
PRODUCT = "product"


@dataclass(frozen=True)
class Expression:
    """Binary tree of 1-leaves with cached value and leaf count.

    Build through one()/add()/mul() so value and ones stay consistent.
    """

    kind: str
    left: "Expression | None"
    right: "Expression | None"
    value: int
    ones: int


_ONE = Expression(ONE, None, None, 1, 1)


def one() -> Expression:
    return _ONE


def add(a: Expression, b: Expression) -> Expression:
    return Expression(SUM, a, b, a.value + b.value, a.ones + b.ones)


def mul(a: Expression, b: Expression) -> Expression:
    return Expression(PRODUCT, a, b, a.value * b.value, a.ones + b.ones)


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


def parse_expression(text: str) -> Expression:
    """Parse expression text; only the digit '1' is a valid literal.

    One left-to-right pass with an explicit stack of open parentheses, so
    neither long chains nor deep nesting recurse: any input length parses
    or fails with an ExpressionSyntaxError.  Each open group collects the
    finished terms of its sum and the factors of its current product;
    closing folds both from the right, which builds the right-associated
    tree of the grammar.
    """
    tokens: list[tuple[str, int]] = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch in "1+*()":
            tokens.append((ch, pos))
        elif ch.isdigit():
            raise ExpressionSyntaxError(pos, f"digit {ch!r} is not allowed, only '1'")
        else:
            raise ExpressionSyntaxError(pos, f"unexpected character {ch!r}")
    if not tokens:
        raise ExpressionSyntaxError(0, "empty expression")

    # groups[-1] is the innermost open group: (terms, factors)
    groups: list[tuple[list[Expression], list[Expression]]] = [([], [])]
    prev = "("  # an operand is due after '(', '+', '*' and at the start

    def operand_missing(pos: int) -> ExpressionSyntaxError:
        after = " after '*'" if prev == "*" else ""
        return ExpressionSyntaxError(pos, f"expected '1' or '('{after}")

    for tok, pos in tokens:
        terms, factors = groups[-1]
        if tok == "1":
            factors.append(one())
        elif tok == "(":
            groups.append(([], []))
        elif prev in "+*(":
            raise operand_missing(pos)
        elif tok == "+":
            terms.append(_fold(mul, factors))
            factors.clear()
        elif tok == ")":
            if len(groups) == 1:
                raise ExpressionSyntaxError(pos, "unexpected ')'")
            terms.append(_fold(mul, factors))
            groups.pop()
            groups[-1][1].append(_fold(add, terms))
        prev = tok
    if prev in "+*(":
        raise operand_missing(len(text))
    if len(groups) > 1:
        raise ExpressionSyntaxError(len(text), "expected ')'")
    terms, factors = groups[0]
    terms.append(_fold(mul, factors))
    return _fold(add, terms)


def _fold(op, items: list[Expression]) -> Expression:
    """op(items[0], op(items[1], ...)): the right-associated chain."""
    node = items[-1]
    for item in reversed(items[:-1]):
        node = op(item, node)
    return node


def format_expression(e: Expression) -> str:
    """Minimal-parenthesization rendering; parse(format(e)) == e.

    Products juxtapose their operands.  Parentheses appear exactly where
    the right-associative grammar would otherwise regroup: around sums
    inside products, and around left children that repeat the parent
    operator.
    """
    if e.kind == ONE:
        return "1"
    left, right = e.left, e.right
    if e.kind == SUM:
        ls = format_expression(left)
        if left.kind == SUM:
            ls = f"({ls})"
        return f"{ls}+{format_expression(right)}"
    ls = format_expression(left)
    if left.kind != ONE:
        ls = f"({ls})"
    rs = format_expression(right)
    if right.kind == SUM:
        rs = f"({rs})"
    return ls + rs
