"""Text grammar for formulas.

    formula := implies
    implies := or ("->" implies)?            right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "Alw(" formula ")" | "Som(" formula ")"
             | "Dist(" formula "," int ")" | atom | "(" formula ")"
    atom    := ident | ident "=" (ident | int)

``Alw``, ``Som`` and ``Dist`` are reserved words.  ``ident = value`` is
variable/constant equality: the right side, a name or an integer literal
such as a risk level, must be a domain value of the left variable, even if
it also names a declared symbol.  Every other identifier must be declared in
the symbol table.

Names and integers are ASCII: a name is ``[A-Za-z_][A-Za-z0-9_]*`` and an
integer an optional ``-`` and ``[0-9]+``, as ``coverify.logic`` defines them.
Any other character is a ``ParseError`` at its line and column.

A chain of one operator, ``p & q & r & s``, parses to the balanced tree that
``conjoin`` (``disjoin`` for ``|``) builds, not a left-nested one.  A parsed
formula then equals the one built from the same operands through the API,
and a long chain stays shallow for the node methods that recurse: ``==``,
``hash``, ``repr`` and ``str``.  Chains of two or three operands nest the same
either way.

Nesting is bounded: each parenthesis, ``!``, temporal operator and ``->``
opens one level, and a formula more than ``MAX_DEPTH`` levels deep is a
``ParseError`` at the token that opens the level too many.  The bound keeps
the parser's own recursion, and the recursive walks of the formula it
returns, well inside the interpreter's default recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .logic import (
    INTEGER,
    NAME,
    Alw,
    Atom,
    Dist,
    Eq,
    FiniteVariable,
    Formula,
    Implies,
    Not,
    Proposition,
    Som,
    SymbolTable,
    conjoin,
    disjoin,
)

__all__ = ["MAX_DEPTH", "ParseError", "parse_formula"]

_RESERVED = ("Alw", "Som", "Dist")

# What still recurses once per level is the parser itself, up to five frames
# (a temporal operator's body goes through temporal, formula, or_expr,
# and_expr and unary), and ``==``, ``hash``, ``repr`` and ``str`` on the
# nodes it returns, up to three.  ``check``, ``evaluate`` and
# ``free_symbols`` keep their own stacks.  100 levels leave about half of
# the interpreter's default limit of 1,000 frames to the caller.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax or symbol error, carrying the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)


# One alternative per token kind, tried in order; a character that starts
# no token is matched, one at a time, by ERROR.
_TOKEN_RE = re.compile(
    rf"(?P<ARROW>->)|(?P<INT>{INTEGER})|(?P<IDENT>{NAME})"
    r"|(?P<NOT>!)|(?P<AND>&)|(?P<OR>\|)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<EQ>=)"
    r"|(?P<NEWLINE>\n)|(?P<BLANK>[ \t\r]+)|(?P<ERROR>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, column = match.lastgroup, match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "ERROR":
            raise ParseError(f"unexpected character {match.group()!r}", line, column)
        elif kind != "BLANK":
            tokens.append(_Token(kind, match.group(), line, column))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], symbols: SymbolTable):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols
        self.depth = 0  # levels open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise tok.error(f"expected {what}, found {shown!r}")
        return self.advance()

    def open_level(self) -> _Token:
        """Consume the token that opens a nesting level; refuse one level too many."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise tok.error(f"formula nested deeper than {MAX_DEPTH} levels")
        return tok

    # Grammar productions, lowest precedence first.

    def formula(self) -> Formula:
        left = self.or_expr()
        if self.peek().kind == "ARROW":
            self.open_level()
            node = Implies(left, self.formula())
            self.depth -= 1
            return node
        return left

    def or_expr(self) -> Formula:
        operands = [self.and_expr()]
        while self.peek().kind == "OR":
            self.advance()
            operands.append(self.and_expr())
        return disjoin(operands)

    def and_expr(self) -> Formula:
        operands = [self.unary()]
        while self.peek().kind == "AND":
            self.advance()
            operands.append(self.unary())
        return conjoin(operands)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.open_level()
            node = Not(self.unary())
            self.depth -= 1
            return node
        if tok.kind == "LPAREN":
            self.open_level()
            node = self.formula()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return node
        if tok.kind == "IDENT" and tok.text in _RESERVED:
            return self.temporal()
        if tok.kind == "IDENT":
            return self.atom()
        raise tok.error(f"expected a formula, found {tok.text or 'end of input'!r}")

    def temporal(self) -> Formula:
        op = self.open_level()
        self.expect("LPAREN", "'('")
        body = self.formula()
        self.depth -= 1
        if op.text == "Dist":
            self.expect("COMMA", "','")
            offset = self.advance()
            if offset.kind != "INT":
                raise offset.error(f"Dist offset must be an integer literal, found {offset.text!r}")
            self.expect("RPAREN", "')'")
            return Dist(body, int(offset.text))
        self.expect("RPAREN", "')'")
        return Alw(body) if op.text == "Alw" else Som(body)

    def atom(self) -> Formula:
        name_tok = self.advance()
        symbol = self._resolve(name_tok)
        nxt = self.peek()
        if nxt.kind == "EQ":
            if not isinstance(symbol, FiniteVariable):
                raise name_tok.error(f"{name_tok.text!r} is not a finite variable")
            self.advance()
            if self.peek().kind == "INT":
                rhs = self.advance()
            else:
                rhs = self.expect("IDENT", "a domain value")
            if rhs.text in symbol.domain:
                return Eq(symbol.name, rhs.text)
            raise rhs.error(f"{rhs.text!r} is not a domain value of {symbol.name!r}")
        if not isinstance(symbol, Proposition):
            raise name_tok.error(f"{name_tok.text!r} is a finite variable and needs '='")
        return Atom(symbol.name)

    def _resolve(self, tok: _Token) -> Proposition | FiniteVariable:
        symbol = self.symbols.lookup(tok.text)
        if symbol is None:
            raise tok.error(f"undeclared identifier {tok.text!r}")
        return symbol


def parse_formula(text: str, symbols: SymbolTable) -> Formula:
    """Parse text into a Formula, resolving identifiers against symbols."""
    parser = _Parser(_tokenize(text), symbols)
    node = parser.formula()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise tail.error(f"unexpected trailing input {tail.text!r}")
    return node
