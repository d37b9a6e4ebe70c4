"""Tiny closed-form expression grammar for custom defect entries.

Grammar (precedence low to high):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | 'k' | '(' expr ')'

NUMBER is a decimal literal with an optional imaginary suffix 'i' or 'j'.
The single free variable is the momentum k; evaluation is complex.

The parser compiles an expression to a postfix program that a stack machine
evaluates, so long operator chains need no recursion.  Parentheses and
unary minus do recurse while parsing; they may nest at most ``MAX_NESTING``
deep, and deeper input is an ``ExpressionError`` like any other malformed
expression.  Division by zero during evaluation is an ``ExpressionError``
too, naming the expression and k.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

MAX_NESTING = 100  # parentheses plus unary minus; keeps parsing well inside the stack

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[ij]?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/])|$)"
)


class ExpressionError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"bad character at {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


class _Parser:
    """Recursive descent that appends postfix instructions to ``program``."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0
        self.program: list[tuple] = []

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def nested(self, rule):
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExpressionError(
                f"expression nests deeper than {MAX_NESTING} parentheses or signs"
            )
        rule()
        self.nesting -= 1

    def expr(self):
        self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            self.term()
            self.program.append((op,))

    def term(self):
        self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            self.unary()
            self.program.append((op,))

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            self.nested(self.unary)
            self.program.append(("neg",))
        else:
            self.atom()

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            if value[-1] in "ij":
                self.program.append(("const", complex(0.0, float(value[:-1]))))
            else:
                self.program.append(("const", complex(float(value))))
        elif kind == "name":
            if value != "k":
                raise ExpressionError(f"unknown name {value!r}; only 'k' is allowed")
            self.program.append(("var",))
        elif (kind, value) == ("op", "("):
            self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise ExpressionError("unbalanced parentheses")
        else:
            raise ExpressionError(f"unexpected token {value!r}")


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _run(program: list[tuple], k: complex) -> complex:
    stack: list[complex] = []
    for ins in program:
        op = ins[0]
        if op == "const":
            stack.append(ins[1])
        elif op == "var":
            stack.append(k)
        elif op == "neg":
            stack.append(-stack.pop())
        else:
            b = stack.pop()
            stack.append(_BINARY[op](stack.pop(), b))
    return stack[0]


def parse_expression(text: str) -> Callable[[float], complex]:
    """Compile a closed-form expression in k into an evaluator."""
    parser = _Parser(_tokenize(text))
    parser.expr()
    if parser.peek() != (None, None):
        raise ExpressionError(f"trailing input near {parser.peek()[1]!r}")
    program = parser.program

    def fn(k: float) -> complex:
        try:
            return _run(program, complex(k))
        except ZeroDivisionError as exc:
            raise ExpressionError(f"division by zero in {text!r} at k = {k!r}") from exc

    return fn
