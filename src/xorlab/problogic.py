"""Boolean expressions with probabilistic semantics.

An AST over named statements with not/and/or/xor, a text parser, exact
truth-table probabilities over weighted sample spaces, empirical
frequencies, the four-axiom consistency check, and compositional
copula-based evaluation.

Grammar (precedence not > and > xor > or, binary connectives
left-associative):

    expr  := xor_e ("or" xor_e)*
    xor_e := and_e ("xor" and_e)*
    and_e := not_e ("and" not_e)*
    not_e := "not" not_e | atom
    atom  := identifier | "0" | "1" | "(" expr ")"

A fully parenthesized xor formula reads the same under any precedence, so
this ordering is purely a convention; it is documented in the CLI help.
"""

from __future__ import annotations

import operator
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .copula import (CopulaParam, UnitValue, _and_value, _or_value,
                     _unit, _xor_value)
from .errors import DomainError, ExprSyntaxError, UnboundVariableError

if TYPE_CHECKING:
    from .datasets import Dataset

__all__ = [
    "BoolExpr", "Var", "Const", "Not", "And", "Or", "Xor",
    "SampleSpace", "CompositionalityWarning",
    "parse_expr", "truth_table_prob", "truth_table_prob_exact",
    "empirical_frequencies", "check_consistency", "copula_prob",
    "ConsistencyCheck", "ConsistencyVerdict",
]


class CompositionalityWarning(UserWarning):
    """A variable occurs more than once; compositional copula evaluation
    may disagree with truth-table semantics on such expressions."""


class BoolExpr:
    """Base class for Boolean expression nodes."""

    _PREC = 0

    def variables(self) -> tuple[str, ...]:
        """Variable names in first-appearance order."""
        seen: Counter = Counter()
        self._collect(seen)
        return tuple(seen)

    def _collect(self, seen: Counter) -> None:
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def desugar_xor(self) -> "BoolExpr":
        """Rewrite every xor as (L or R) and not(L and R)."""
        raise NotImplementedError

    def _wrap(self, child: "BoolExpr", right: bool) -> str:
        # parenthesize when the child binds no tighter than this node
        # (right children also at equal precedence, to keep left
        # associativity through a render/parse round trip)
        needs = (child._PREC < self._PREC
                 or (right and child._PREC == self._PREC))
        text = child.render()
        return f"({text})" if needs else text


_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")
_KEYWORDS = ("not", "and", "or", "xor")


@dataclass(frozen=True)
class Var(BoolExpr):
    name: str
    _PREC = 5

    def __post_init__(self):
        if not _IDENT_RE.match(self.name) or self.name in _KEYWORDS:
            raise DomainError(f"invalid variable name {self.name!r}")

    def _collect(self, seen):
        seen[self.name] += 1

    def evaluate(self, assignment):
        try:
            return 1 if assignment[self.name] else 0
        except KeyError:
            raise UnboundVariableError(
                f"unbound variable {self.name!r}") from None

    def render(self):
        return self.name

    def desugar_xor(self):
        return self


@dataclass(frozen=True)
class Const(BoolExpr):
    value: int
    _PREC = 5

    def __post_init__(self):
        if self.value not in (0, 1):
            raise DomainError(f"constant must be 0 or 1, got {self.value!r}")
        object.__setattr__(self, "value", int(self.value))

    def _collect(self, seen):
        pass

    def evaluate(self, assignment):
        return self.value

    def render(self):
        return str(self.value)

    def desugar_xor(self):
        return self


@dataclass(frozen=True)
class Not(BoolExpr):
    child: BoolExpr
    _PREC = 4

    def _collect(self, seen):
        self.child._collect(seen)

    def evaluate(self, assignment):
        return 1 - self.child.evaluate(assignment)

    def render(self):
        return f"not {self._wrap(self.child, right=False)}"

    def desugar_xor(self):
        return Not(self.child.desugar_xor())


@dataclass(frozen=True)
class _Binary(BoolExpr):
    """A binary connective.  Each subclass sets its precedence, keyword,
    truth function on bits and copula extension on probabilities."""

    left: BoolExpr
    right: BoolExpr

    def _collect(self, seen):
        self.left._collect(seen)
        self.right._collect(seen)

    def evaluate(self, assignment):
        return self._truth(self.left.evaluate(assignment),
                           self.right.evaluate(assignment))

    def render(self):
        return (f"{self._wrap(self.left, right=False)} {self._KEYWORD} "
                f"{self._wrap(self.right, right=True)}")

    def desugar_xor(self):
        left = self.left.desugar_xor()
        right = self.right.desugar_xor()
        if isinstance(self, Xor):
            return And(Or(left, right), Not(And(left, right)))
        return type(self)(left, right)


class And(_Binary):
    _PREC = 3
    _KEYWORD = "and"
    _truth = staticmethod(operator.and_)
    _copula = staticmethod(_and_value)


class Xor(_Binary):
    _PREC = 2
    _KEYWORD = "xor"
    _truth = staticmethod(operator.xor)
    _copula = staticmethod(_xor_value)


class Or(_Binary):
    _PREC = 1
    _KEYWORD = "or"
    _truth = staticmethod(operator.or_)
    _copula = staticmethod(_or_value)


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


# ---------------------------------------------------------------------------
# sample spaces and probabilities

@dataclass(frozen=True)
class SampleSpace:
    """Weighted truth assignments over an ordered variable list.

    Weights are exact Fractions normalized to sum to 1, so the probability
    axioms hold exactly, not just to rounding.
    """

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        for assignment, weight in self.rows:
            if len(assignment) != len(self.variables):
                raise DomainError("assignment arity does not match variables")
            if any(b not in (0, 1) for b in assignment):
                raise DomainError("assignments must be bits")
            if weight <= 0:
                raise DomainError("weights must be positive")
        total = sum((w for _, w in self.rows), Fraction(0))
        if total != 1:
            raise DomainError(f"weights must sum to 1, got {total}")

    @classmethod
    def from_rows(cls, variables: Iterable[str],
                  rows: Iterable[tuple[Iterable[int], "Fraction | float | int"]]
                  ) -> "SampleSpace":
        """Build from (assignment, weight) pairs; weights are normalized."""
        vs = tuple(variables)
        prepared = [(tuple(int(b) for b in assignment), Fraction(weight))
                    for assignment, weight in rows]
        total = sum((w for _, w in prepared), Fraction(0))
        if total <= 0:
            raise DomainError("total weight must be positive")
        return cls(vs, tuple((a, w / total) for a, w in prepared))

    @classmethod
    def uniform(cls, variables: Iterable[str],
                assignments: Iterable[Iterable[int]]) -> "SampleSpace":
        rows = [(a, 1) for a in assignments]
        return cls.from_rows(variables, rows)

    @classmethod
    def from_dataset(cls, data: "Dataset") -> "SampleSpace":
        """All columns of a Boolean dataset become variables, weight 1/n."""
        names = data.inputs + data.targets
        rows = []
        for ins, targs in data.rows:
            bits = []
            for v in (*ins, *targs):
                if v not in (0.0, 1.0):
                    raise DomainError(f"non-Boolean entry {v!r} in dataset "
                                      f"{data.name!r}")
                bits.append(int(v))
            rows.append((tuple(bits), 1))
        return cls.from_rows(names, rows)


def truth_table_prob_exact(expr: BoolExpr, space: SampleSpace) -> Fraction:
    """Exact weight of the rows where expr is TRUE."""
    total = Fraction(0)
    for assignment, weight in space.rows:
        env = dict(zip(space.variables, assignment))
        if expr.evaluate(env):
            total += weight
    return total


def truth_table_prob(expr: BoolExpr, space: SampleSpace) -> UnitValue:
    """Probability of expr over the sample space (float of the exact sum)."""
    return UnitValue(float(truth_table_prob_exact(expr, space)))


def empirical_frequencies(data: "Dataset") -> dict[str, UnitValue]:
    """Per-column fraction of ones over a Boolean dataset."""
    space = SampleSpace.from_dataset(data)
    n = len(space.rows)
    counts = [0] * len(space.variables)
    for assignment, _ in space.rows:
        for i, bit in enumerate(assignment):
            counts[i] += bit
    return {name: UnitValue(float(Fraction(c, n)))
            for name, c in zip(space.variables, counts)}


@dataclass(frozen=True)
class ConsistencyCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ConsistencyVerdict:
    checks: tuple[ConsistencyCheck, ...]

    @property
    def consistent(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ConsistencyCheck]:
        return [c for c in self.checks if not c.ok]


_AXIOM_TOL = 1e-9


def check_consistency(px: "UnitValue | float", py: "UnitValue | float",
                      pand: "UnitValue | float",
                      por: "UnitValue | float") -> ConsistencyVerdict:
    """The four and/or bounds plus the additivity identity, each with
    tolerance 1e-9."""
    x, y = _unit(px), _unit(py)
    a, r = _unit(pand), _unit(por)
    checks = (
        ConsistencyCheck(
            "and_lower_bound", a >= -_AXIOM_TOL,
            f"0 <= Pr[and]: {a!r}"),
        ConsistencyCheck(
            "and_upper_bound", a <= min(x, y) + _AXIOM_TOL,
            f"Pr[and] {a!r} <= min(px, py) {min(x, y)!r}"),
        ConsistencyCheck(
            "or_lower_bound", r >= max(x, y) - _AXIOM_TOL,
            f"max(px, py) {max(x, y)!r} <= Pr[or] {r!r}"),
        ConsistencyCheck(
            "or_upper_bound", r <= 1.0 + _AXIOM_TOL,
            f"Pr[or] <= 1: {r!r}"),
        ConsistencyCheck(
            "additivity", abs((a + r) - (x + y)) <= _AXIOM_TOL,
            f"Pr[and] + Pr[or] = {a + r!r} vs px + py = {x + y!r}"),
    )
    return ConsistencyVerdict(checks)


def _copula_value(expr: BoolExpr, env: Mapping[str, float],
                  s: CopulaParam) -> float:
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(
                f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Not):
        return 1.0 - _copula_value(expr.child, env, s)
    return expr._copula(s, _copula_value(expr.left, env, s),
                        _copula_value(expr.right, env, s))


def copula_prob(expr: BoolExpr, assignment: Mapping[str, "UnitValue | float"],
                s: CopulaParam) -> UnitValue:
    """Compositional evaluation: Var -> assigned value, Not -> 1 - v,
    And -> A_s, Or -> R_s, Xor -> x + y - 2 A_s.

    Each connective is evaluated independently with the same s; expressions
    that repeat a variable (e.g. "x1 and not x1") may disagree with
    truth-table semantics, so a CompositionalityWarning is emitted for them.
    """
    counts = Counter()
    expr._collect(counts)
    repeated = sorted(name for name, c in counts.items() if c > 1)
    if repeated:
        warnings.warn(
            f"variable(s) {', '.join(repeated)} occur more than once; "
            f"compositional copula evaluation may disagree with "
            f"truth-table semantics", CompositionalityWarning, stacklevel=2)
    env = {name: _unit(v) for name, v in assignment.items()}
    # connectives keep values inside [0,1] up to rounding; UnitValue
    # absorbs the few-ulp dust
    return UnitValue(_copula_value(expr, env, s))

