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


@dataclass(frozen=True, eq=False)
class Expression:
    """Binary tree of 1-leaves with cached value and leaf count.

    Build through one()/add()/mul() so value and ones stay consistent.
    Equality compares every field, as a generated dataclass ``__eq__``
    would; it and the hash walk the tree with an explicit stack, so no
    depth of tree recurses.
    """

    kind: str
    left: "Expression | None"
    right: "Expression | None"
    value: int
    ones: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a is None or b is None:
                return False
            if (a.kind, a.value, a.ones) != (b.kind, b.value, b.ones):
                return False
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        return True

    def __hash__(self) -> int:
        # the pre-order field sequence, None marking a missing child,
        # which equal trees share
        fields = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node is None:
                fields.append(None)
            else:
                fields.append((node.kind, node.value, node.ones))
                stack += (node.right, node.left)
        return hash(tuple(fields))


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

    def __reduce__(self):
        # pickle and copy rebuild an error from the arguments of __init__
        return type(self), (self.position, str(self).partition(": ")[2]), self.__dict__


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
    operator.  The tree is walked in order with an explicit stack of nodes
    and pending text, so no depth of tree recurses.
    """
    out: list[str] = []
    stack: list[Expression | str] = [e]  # popped from the end
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        left, right = item.left, item.right
        if item.kind == ONE:
            out.append("1")
        elif item.kind == SUM:
            stack += (right, "+", *_wrap(left, left.kind == SUM))
        else:
            stack += (*_wrap(right, right.kind == SUM), *_wrap(left, left.kind != ONE))
    return "".join(out)


def _wrap(node: Expression, paren: bool) -> tuple:
    """node in parentheses if paren, reversed for pushing on a stack."""
    return (")", node, "(") if paren else (node,)
