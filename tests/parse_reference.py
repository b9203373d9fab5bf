"""The reference xorlab.problogic.parse_expr is compared against.

This is the parser as it was before it became one precedence-climbing
pass, kept verbatim: a recursive descent through every precedence level,
whose MAX_DEPTH refusal is a caught RecursionError plus a second walk of
the finished tree.  The RecursionError depends on the caller's stack, so
the two parsers are compared only on texts that nest at most MAX_DEPTH
parentheses; there both must return an equal tree, or raise the same
error with the same message, offset and expected set.
"""

from __future__ import annotations

import re

from xorlab.errors import ExprSyntaxError
from xorlab.problogic import (_KEYWORDS, And, BoolExpr, Const, Not, Or,
                              Var, Xor)


# loosest-binding first
_BINARY = sorted((And, Or, Xor), key=lambda node_type: node_type._PREC)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|[01()]")


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprSyntaxError(
                f"syntax error at offset {pos}: unexpected character "
                f"{text[pos]!r}", pos,
                ("identifier", "'('", "'not'", "'0'", "'1'"))
        tok = m.group()
        if tok in _KEYWORDS:
            kind = tok
        elif tok == "(":
            kind = "lparen"
        elif tok == ")":
            kind = "rparen"
        elif tok in ("0", "1"):
            kind = "const"
        else:
            kind = "name"
        tokens.append(_Token(kind, tok, pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    _ATOM_EXPECTED = ("identifier", "'('", "'not'", "'0'", "'1'")

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(
            f"syntax error at offset {tok.offset}: expected "
            f"{' or '.join(expected)}, found {found}",
            tok.offset, expected)

    def parse(self) -> BoolExpr:
        expr = self.binary(0)
        if self.peek().kind != "end":
            self.fail(("'and'", "'or'", "'xor'", "end of input"))
        return expr

    def binary(self, k: int) -> BoolExpr:
        """A left-associative chain of _BINARY[k] over operands that bind
        tighter."""
        if k == len(_BINARY):
            return self.not_expr()
        node_type = _BINARY[k]
        node = self.binary(k + 1)
        while self.peek().kind == node_type._KEYWORD:
            self.advance()
            node = node_type(node, self.binary(k + 1))
        return node

    def not_expr(self) -> BoolExpr:
        if self.peek().kind == "not":
            self.advance()
            return Not(self.not_expr())
        return self.atom()

    def atom(self) -> BoolExpr:
        tok = self.peek()
        if tok.kind == "name":
            self.advance()
            return Var(tok.text)
        if tok.kind == "const":
            self.advance()
            return Const(int(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.binary(0)
            if self.peek().kind != "rparen":
                self.fail(("')'",))
            self.advance()
            return node
        self.fail(self._ATOM_EXPECTED)


# deepest expression tree parse_expr returns: evaluating and rendering
# recurse once or twice per level, and must stay clear of Python's
# recursion limit
MAX_DEPTH = 100


def _depth(expr: BoolExpr) -> int:
    """Levels of the tree, counted without recursion."""
    depth, level = 0, [expr]
    while level:
        depth += 1
        level = [child for node in level for child in vars(node).values()
                 if isinstance(child, BoolExpr)]
    return depth


def parse_expr(text: str) -> BoolExpr:
    """Parse an expression; render() of the result re-parses identically.

    ExprSyntaxError also when the tree would be more than MAX_DEPTH
    levels deep.
    """
    parser = _Parser(text)
    try:
        expr = parser.parse()
    except RecursionError:
        expr = None
    # a tree has fewer levels than the text has tokens
    if expr is None or (len(parser.tokens) > MAX_DEPTH
                        and _depth(expr) > MAX_DEPTH):
        raise ExprSyntaxError(
            f"expression nested more than {MAX_DEPTH} levels deep", 0, ())
    return expr
