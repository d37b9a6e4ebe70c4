"""Tiny closed-form expression grammar for custom defect entries.

Grammar (precedence low to high):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | 'k' | '(' expr ')'

NUMBER is a decimal literal with an optional imaginary suffix 'i' or 'j'.
The single free variable is the momentum k; evaluation is complex.

An expression compiles in one shunting-yard pass to a postfix program that
a stack machine evaluates; neither step recurses, so no input depth can
reach the interpreter's stack.  Parentheses and unary minus may still nest
at most ``MAX_NESTING`` deep: a limit on input, and deeper input is an
``ExpressionError`` like any other malformed expression.  Division by zero
during evaluation is an ``ExpressionError`` too, naming the expression and
k.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

MAX_NESTING = 100  # open parentheses plus pending unary minus; a bound on input

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[ij]?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/])|(?P<bad>.)|$)"
)
_PREC = {")": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}  # ")" pops down to its "("


class ExpressionError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ExpressionError(f"bad character at {text[m.start():]!r}")
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


def _compile(tokens: list[tuple[str, str]]) -> list[tuple]:
    """One shunting-yard pass from tokens to the postfix program ``_run``
    executes.  Operands go straight to the program; binary operators, unary
    minus ("neg") and '(' wait on the stack until an operator that binds no
    tighter, a ')' or the end of input arrives."""
    program: list[tuple] = []
    stack: list[str] = []
    operand = True  # the next token must begin an operand
    for kind, value in tokens + [(None, None)]:
        if operand and kind == "num":
            if value[-1] in "ij":
                program.append(("const", complex(0.0, float(value[:-1]))))
            else:
                program.append(("const", complex(float(value))))
            operand = False
        elif operand and kind == "name":
            if value != "k":
                raise ExpressionError(f"unknown name {value!r}; only 'k' is allowed")
            program.append(("var",))
            operand = False
        elif operand and kind == "op" and value in ("(", "-"):
            stack.append("(" if value == "(" else "neg")
            if stack.count("(") + stack.count("neg") > MAX_NESTING:
                raise ExpressionError(
                    f"expression nests deeper than {MAX_NESTING} parentheses or signs"
                )
        elif operand and kind is None:
            raise ExpressionError("unexpected end of expression")
        elif operand:
            raise ExpressionError(f"unexpected token {value!r}")
        elif kind == "op" and value != "(":  # a binary operator or ')'
            while stack and stack[-1] != "(" and _PREC[stack[-1]] >= _PREC[value]:
                program.append((stack.pop(),))
            if value != ")":
                stack.append(value)
                operand = True
            elif stack:
                stack.pop()
            else:
                raise ExpressionError("trailing input near ')'")
        elif "(" in stack:
            raise ExpressionError("unbalanced parentheses")
        elif kind:
            raise ExpressionError(f"trailing input near {value!r}")
    return program + [(op,) for op in reversed(stack)]


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
    program = _compile(_tokenize(text))

    def fn(k: float) -> complex:
        try:
            return _run(program, complex(k))
        except ZeroDivisionError as exc:
            raise ExpressionError(f"division by zero in {text!r} at k = {k!r}") from exc

    return fn
