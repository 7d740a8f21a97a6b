"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var ('^' nat)? | '(' expr ')' | '-' factor
    rational := nat ('/' nat)?

Negative coefficients are written with the unary minus, so '/' is legal
only immediately inside a rational literal; anywhere else it is an error.
All errors carry a 1-based line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .ring import IDENTIFIER, Polynomial, RingSpec


class _Token(NamedTuple):
    kind: str  # 'num', 'ident', one of '+-*/^()', or 'end'
    text: str
    line: int
    column: int


_OPERATORS = set("+-*/^()")
# ASCII digits and names only: str.isdigit and str.isalpha would also take
# characters such as '²' or '٣'.
_WORD = re.compile(rf"(?P<num>[0-9]+)|(?P<ident>{IDENTIFIER})")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        word = _WORD.match(text, i)
        if word:
            tokens.append(_Token(word.lastgroup, word.group(), line, col))
            col += word.end() - i
            i = word.end()
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: RingSpec):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse_expr(self) -> Polynomial:
        result = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            result = result + rhs if op.kind == "+" else result - rhs
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                result = result * self.parse_factor()
            elif tok.kind == "/":
                self.fail("division is only allowed inside a rational literal", tok)
            else:
                return result

    def parse_factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return -self.parse_factor()
        if tok.kind == "num":
            self.advance()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den = self.peek()
                if den.kind != "num":
                    self.fail("expected a natural number after '/'", den)
                self.advance()
                if int(den.text) == 0:
                    self.fail("zero denominator in rational literal", den)
                return Polynomial.constant(self.ring, Fraction(numerator, int(den.text)))
            return Polynomial.constant(self.ring, numerator)
        if tok.kind == "ident":
            self.advance()
            try:
                index = self.ring.index(tok.text)
            except KeyError:
                self.fail(f"unknown variable {tok.text!r}", tok)
            mono = [0] * self.ring.n
            mono[index] = 1
            if self.peek().kind == "^":
                self.advance()
                exp_tok = self.peek()
                if exp_tok.kind != "num":
                    self.fail(
                        "malformed exponent: expected a non-negative integer", exp_tok
                    )
                self.advance()
                mono[index] = int(exp_tok.text)
            return Polynomial.term(self.ring, mono, 1)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            closing = self.peek()
            if closing.kind != ")":
                self.fail("expected ')'", closing)
            self.advance()
            return inner
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse `text` as a polynomial in `ring`; raise ParseError on bad input."""
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty input", tokens[0].line, tokens[0].column)
    parser = _Parser(tokens, ring)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        if trailing.kind in ("num", "ident", "("):
            parser.fail(
                f"missing operator before {trailing.text!r}"
                " (implicit multiplication is not allowed)",
                trailing,
            )
        parser.fail(f"unexpected {trailing.text!r}", trailing)
    return result
