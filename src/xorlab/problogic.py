"""Boolean expressions with probabilistic semantics.

An AST over named statements with not/and/or/xor, a text parser, exact
truth-table probabilities over weighted sample spaces, empirical
frequencies, the four-axiom consistency check, and compositional
copula-based evaluation.  copula_prob reads s from its CopulaParam once
and asks the root for its _value; each node computes its value from its
children's, left before right: a Var its assigned value, a Const its bit,
Not 1 - v, and And, Or and Xor A_s, R_s and F_s of their operands.

Grammar (precedence not > and > xor > or, binary connectives
left-associative):

    expr  := xor_e ("or" xor_e)*
    xor_e := and_e ("xor" and_e)*
    and_e := not_e ("and" not_e)*
    not_e := "not" not_e | atom
    atom  := identifier | "0" | "1" | "(" expr ")"

A fully parenthesized xor formula reads the same under any precedence, so
this ordering is purely a convention; it is documented in the CLI help.
The tokenizer is one regular-expression scan; it skips what
str.isspace() accepts and refuses the first character no token starts.

parse_expr refuses (ExprSyntaxError) a tree more than MAX_DEPTH = 100
levels deep and a text that nests more than MAX_DEPTH parentheses.  It
recurses only into parentheses, two frames each, so its verdict is the
same for every caller that leaves it 2 * MAX_DEPTH frames below Python's
recursion limit.
"""

from __future__ import annotations

import operator
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .copula import CopulaParam, _frank_raw, _or_value, _unit, _xor_value
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

    def _value(self, env: Mapping[str, float], s: float) -> float:
        """Probability under the copula semantics, with Frank parameter s."""
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


_IDENT = r"[A-Za-z_]\w*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
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
        return 1 if self._value(assignment, None) else 0

    def _value(self, env, s):
        try:
            return env[self.name]
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

    def _value(self, env, s):
        return float(self.value)

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

    def _value(self, env, s):
        return 1.0 - self.child._value(env, s)

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

    def _value(self, env, s):
        return self._copula(s, self.left._value(env, s),
                            self.right._value(env, s))

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
    _copula = staticmethod(_frank_raw)


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


# ---------------------------------------------------------------------------
# parser

# whitespace, then a token (group 1) or the character refused (group 2)
_TOKEN_RE = re.compile(rf"\s*(?:({_IDENT}|[01()])|(\S))")
_TOKEN_KIND = {"(": "lparen", ")": "rparen", "0": "const", "1": "const",
               **{keyword: keyword for keyword in _KEYWORDS}}
_ATOM_EXPECTED = ("identifier", "'('", "'not'", "'0'", "'1'")
_CONNECTIVES = {node_type._KEYWORD: node_type for node_type in (And, Xor, Or)}

# deepest expression tree parse_expr returns, and the most parentheses it
# nests: evaluating and rendering recurse once or twice per tree level, and
# parsing twice per open parenthesis, all well clear of Python's recursion
# limit
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, then ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok, bad = m.groups()
        if bad:
            pos = m.start(2)
            raise ExprSyntaxError(
                f"syntax error at offset {pos}: unexpected character "
                f"{bad!r}", pos, _ATOM_EXPECTED)
        tokens.append((_TOKEN_KIND.get(tok, "name"), tok, m.start(1)))
    tokens.append(("end", "", len(text)))
    return tokens


def _too_deep() -> ExprSyntaxError:
    return ExprSyntaxError(
        f"expression nested more than {MAX_DEPTH} levels deep", 0, ())


class _Parser:
    """Precedence climbing over the tokens of one text."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.parens = 0         # parentheses open before self.pos

    def fail(self, expected: tuple[str, ...]):
        kind, text, offset = self.tokens[self.pos]
        found = "end of input" if kind == "end" else repr(text)
        raise ExprSyntaxError(
            f"syntax error at offset {offset}: expected "
            f"{' or '.join(expected)}, found {found}", offset, expected)

    def expr(self) -> tuple[BoolExpr, int]:
        """The longest expression from here, and the number of levels of
        its tree."""
        pending = []    # (left operand, its levels, connective) in order
        while True:
            node, depth = self.operand()
            node_type = _CONNECTIVES.get(self.tokens[self.pos][0])
            prec = node_type._PREC if node_type else 0
            # a pending connective that binds at least as tightly takes
            # node as its right operand first: chains are left-associative
            while pending and pending[-1][2]._PREC >= prec:
                left, left_levels, pending_type = pending.pop()
                node = pending_type(left, node)
                depth = max(left_levels, depth) + 1
            if node_type is None:
                return node, depth
            pending.append((node, depth, node_type))
            self.pos += 1

    def operand(self) -> tuple[BoolExpr, int]:
        """Any number of nots, then an atom, and the number of levels of
        its tree."""
        tokens = self.tokens
        start = self.pos
        while tokens[self.pos][0] == "not":
            self.pos += 1
        nots = self.pos - start
        kind, text, _ = tokens[self.pos]
        if kind == "name":
            node, depth = Var(text), 1
        elif kind == "const":
            node, depth = Const(int(text)), 1
        elif kind == "lparen":
            if self.parens == MAX_DEPTH:
                raise _too_deep()
            self.parens += 1
            self.pos += 1
            node, depth = self.expr()
            if tokens[self.pos][0] != "rparen":
                self.fail(("')'",))
            self.parens -= 1
        else:
            self.fail(_ATOM_EXPECTED)
        self.pos += 1
        for _ in range(nots):
            node = Not(node)
        return node, depth + nots


def parse_expr(text: str) -> BoolExpr:
    """Parse an expression; render() of the result re-parses identically.

    ExprSyntaxError also when the text nests more than MAX_DEPTH
    parentheses, or the tree would be more than MAX_DEPTH levels deep.
    """
    parser = _Parser(text)
    expr, depth = parser.expr()
    if parser.tokens[parser.pos][0] != "end":
        parser.fail(("'and'", "'or'", "'xor'", "end of input"))
    if depth > MAX_DEPTH:
        raise _too_deep()
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


def truth_table_prob(expr: BoolExpr, space: SampleSpace) -> float:
    """Probability of expr over the sample space (float of the exact sum)."""
    return _unit(truth_table_prob_exact(expr, space))


def empirical_frequencies(data: "Dataset") -> dict[str, float]:
    """Per-column fraction of ones over a Boolean dataset."""
    space = SampleSpace.from_dataset(data)
    n = len(space.rows)
    counts = [0] * len(space.variables)
    for assignment, _ in space.rows:
        for i, bit in enumerate(assignment):
            counts[i] += bit
    return {name: _unit(Fraction(c, n))
            for name, c in zip(space.variables, counts)}


@dataclass(frozen=True)
class ConsistencyCheck:
    name: str
    ok: bool


@dataclass(frozen=True)
class ConsistencyVerdict:
    checks: tuple[ConsistencyCheck, ...]

    @property
    def consistent(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ConsistencyCheck]:
        return [c for c in self.checks if not c.ok]


_AXIOM_TOL = 1e-9


def check_consistency(px: float, py: float, pand: float,
                      por: float) -> ConsistencyVerdict:
    """The four and/or bounds plus the additivity identity, each with
    tolerance 1e-9."""
    x, y = _unit(px), _unit(py)
    a, r = _unit(pand), _unit(por)
    checks = (
        ConsistencyCheck("and_lower_bound", a >= -_AXIOM_TOL),
        ConsistencyCheck("and_upper_bound", a <= min(x, y) + _AXIOM_TOL),
        ConsistencyCheck("or_lower_bound", r >= max(x, y) - _AXIOM_TOL),
        ConsistencyCheck("or_upper_bound", r <= 1.0 + _AXIOM_TOL),
        ConsistencyCheck("additivity",
                         abs((a + r) - (x + y)) <= _AXIOM_TOL),
    )
    return ConsistencyVerdict(checks)


def copula_prob(expr: BoolExpr, assignment: Mapping[str, float],
                s: CopulaParam) -> float:
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
    # connectives keep values inside [0,1] up to rounding; _unit clamps
    # the few-ulp dust
    return _unit(expr._value(env, s.s))

