"""Expression parser, sample spaces, axiom checks, and the compositional
copula semantics."""

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorlab.copula import CopulaParam, _and_value, _unit, frank_and, xor_f
from xorlab.datasets import builtin
from xorlab.errors import (DomainError, ExprSyntaxError,
                           UnboundVariableError)
from xorlab.problogic import (And, CompositionalityWarning, Const, Not, Or,
                              SampleSpace, Var, Xor, check_consistency,
                              copula_prob, empirical_frequencies, parse_expr,
                              truth_table_prob, truth_table_prob_exact)


# -- parsing ---------------------------------------------------------------

def test_parse_precedence():
    """not binds tightest, then and, xor, or."""
    e = parse_expr("a or b xor c and not d")
    assert e == Or(Var("a"), Xor(Var("b"), And(Var("c"), Not(Var("d")))))


def test_parse_left_associativity():
    assert parse_expr("a and b and c") == And(And(Var("a"), Var("b")),
                                              Var("c"))
    assert parse_expr("a xor b xor c") == Xor(Xor(Var("a"), Var("b")),
                                              Var("c"))


def test_parse_parentheses_and_constants():
    e = parse_expr("(a or 1) and not 0")
    assert e == And(Or(Var("a"), Const(1)), Not(Const(0)))


def test_render_parse_round_trip():
    for text in ("x1 xor x2",
                 "a and (b or c)",
                 "not (a xor b) or c and d",
                 "(a or b) and (a or c) xor not d"):
        e = parse_expr(text)
        assert parse_expr(e.render()) == e


def test_parse_errors_carry_offset_and_expectations():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("a and")
    assert exc.value.offset == 5
    assert "identifier" in exc.value.expected
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("a $ b")
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse_expr("(a or b")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")


def test_variables_in_first_appearance_order():
    assert parse_expr("x2 and x1 or x2 xor x3").variables() \
        == ("x2", "x1", "x3")


def test_evaluate_and_unbound():
    e = parse_expr("x1 xor x2")
    assert e.evaluate({"x1": 1, "x2": 0}) == 1
    assert e.evaluate({"x1": 1, "x2": 1}) == 0
    with pytest.raises(UnboundVariableError):
        e.evaluate({"x1": 1})


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_desugar_xor_preserves_semantics(a, b, c):
    e = parse_expr("a xor (b xor not c)")
    d = e.desugar_xor()
    assert "xor" not in d.render()
    env = {"a": a, "b": b, "c": c}
    assert d.evaluate(env) == e.evaluate(env)


# -- sample spaces ---------------------------------------------------------

def test_uniform_space_xor_probability():
    space = SampleSpace.uniform(
        ("x1", "x2"), [(0, 0), (0, 1), (1, 0), (1, 1)])
    e = parse_expr("x1 xor x2")
    assert truth_table_prob_exact(e, space) == Fraction(1, 2)
    assert float(truth_table_prob(e, space)) == 0.5


def test_space_weights_validation():
    with pytest.raises(DomainError):
        SampleSpace(("a",), (((0,), Fraction(1, 2)),))  # does not sum to 1
    with pytest.raises(DomainError):
        SampleSpace.from_rows(("a",), [((0, 1), 1)])    # arity mismatch
    with pytest.raises(DomainError):
        SampleSpace.from_rows(("a",), [((2,), 1)])      # not a bit
    with pytest.raises(DomainError, match="weights must be positive"):
        SampleSpace(("a",), (((0,), Fraction(0)), ((1,), Fraction(1))))
    with pytest.raises(DomainError, match="total weight must be positive"):
        SampleSpace.from_rows(("a",), [((0,), 0), ((1,), 0)])


def test_names_and_constants_are_checked():
    with pytest.raises(DomainError, match="invalid variable name 'and'"):
        Var("and")
    with pytest.raises(DomainError, match="constant must be 0 or 1, got 2"):
        Const(2)


def test_from_rows_normalizes():
    space = SampleSpace.from_rows(("a",), [((0,), 3), ((1,), 1)])
    assert truth_table_prob_exact(Var("a"), space) == Fraction(1, 4)


def test_from_dataset_requires_boolean_entries():
    with pytest.raises(DomainError):
        SampleSpace.from_dataset(builtin("analog"))


def test_empirical_frequencies_sample_tables():
    f1 = empirical_frequencies(builtin("fig2_1"))
    assert {k: float(v) for k, v in f1.items()} == {
        "x1": 0.5, "x2": 0.5, "and": 0.3, "or": 0.7, "xor": 0.4}
    f4 = empirical_frequencies(builtin("fig2_4"))
    assert {k: float(v) for k, v in f4.items()} == {
        "x1": 0.4, "x2": 0.7, "and": 0.1, "or": 1.0, "xor": 0.9}


def test_frequencies_satisfy_connective_identities():
    """On any 0/1 table: and + or = x1 + x2 and xor = x1 + x2 - 2 and."""
    for name in ("fig2_1", "fig2_4"):
        fr = {k: float(v)
              for k, v in empirical_frequencies(builtin(name)).items()}
        assert fr["and"] + fr["or"] == pytest.approx(
            fr["x1"] + fr["x2"], abs=1e-12)
        assert fr["xor"] == pytest.approx(
            fr["x1"] + fr["x2"] - 2 * fr["and"], abs=1e-12)


# -- consistency -----------------------------------------------------------

def test_check_consistency_accepts_valid_triples():
    v = check_consistency(0.5, 0.5, 0.3, 0.7)
    assert v.consistent
    assert v.failures() == []
    assert len(v.checks) == 5


def test_nan_probabilities_are_domain_errors():
    with pytest.raises(DomainError):
        copula_prob(parse_expr("a and b"), {"a": math.nan, "b": 0.5},
                    CopulaParam.finite(2.0))
    with pytest.raises(DomainError):
        check_consistency(0.5, 0.5, math.nan, 0.7)


def test_check_consistency_names_the_broken_axiom():
    v = check_consistency(0.5, 0.5, 0.6, 0.4)
    assert not v.consistent
    names = {c.name for c in v.failures()}
    assert "and_upper_bound" in names
    # or below max(px, py) breaks monotonicity
    v2 = check_consistency(0.5, 0.5, 0.2, 0.4)
    assert any(c.name == "or_lower_bound" for c in v2.failures())
    # additivity violation
    v3 = check_consistency(0.5, 0.5, 0.25, 0.8)
    assert any(c.name == "additivity" for c in v3.failures())


# -- compositional copula semantics ----------------------------------------

def test_copula_prob_connectives():
    p = CopulaParam.finite(2.0)
    a = float(frank_and(p, 0.3, 0.8))
    assert float(copula_prob(parse_expr("x and y"),
                             {"x": 0.3, "y": 0.8}, p)) \
        == pytest.approx(a, abs=1e-15)
    assert float(copula_prob(parse_expr("x or y"),
                             {"x": 0.3, "y": 0.8}, p)) \
        == pytest.approx(0.3 + 0.8 - a, abs=1e-15)
    assert float(copula_prob(parse_expr("x xor y"),
                             {"x": 0.3, "y": 0.8}, p)) \
        == pytest.approx(float(xor_f(p, 0.3, 0.8)), abs=1e-15)
    assert float(copula_prob(parse_expr("not x"), {"x": 0.3}, p)) == 0.7
    assert float(copula_prob(parse_expr("1 and x"), {"x": 0.3}, p)) \
        == pytest.approx(0.3, abs=1e-12)


def test_copula_prob_boolean_corners_match_truth_tables():
    e = parse_expr("x xor y")
    p = CopulaParam.finite(0.7)
    for x in (0.0, 1.0):
        for y in (0.0, 1.0):
            want = float(int(x) ^ int(y))
            assert float(copula_prob(e, {"x": x, "y": y}, p)) \
                == pytest.approx(want, abs=1e-12)


def test_copula_prob_warns_on_repeated_variables():
    p = CopulaParam.one()
    with pytest.warns(CompositionalityWarning):
        v = copula_prob(parse_expr("x and not x"), {"x": 0.5}, p)
    # independence treats the two occurrences as distinct events
    assert float(v) == pytest.approx(0.25, abs=1e-12)


def test_copula_prob_unbound_variable():
    with pytest.raises(UnboundVariableError):
        copula_prob(parse_expr("x and y"), {"x": 0.5}, CopulaParam.one())


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.05, 20.0))
@settings(max_examples=150, deadline=None)
def test_copula_prob_xor_formula_identity(x, y, s):
    """The parsed xor formula evaluates to x + y - 2 A_s exactly."""
    p = CopulaParam.finite(s)
    got = float(copula_prob(parse_expr("x1 xor x2"),
                            {"x1": x, "x2": y}, p))
    want = x + y - 2.0 * float(frank_and(p, x, y))
    assert got == pytest.approx(max(0.0, min(1.0, want)), abs=1e-9)


# -- random expression trees -----------------------------------------------

_NAMES = ("a", "b", "c", "d")
_LEAVES = st.one_of(st.sampled_from(_NAMES).map(Var),
                    st.sampled_from((0, 1)).map(Const))


def _trees(depth):
    """Expressions over a-d, 0/1, not and the binary connectives, at most
    depth connectives deep."""
    if depth == 0:
        return _LEAVES
    sub = _trees(depth - 1)
    return st.one_of(_LEAVES, sub.map(Not),
                     st.builds(lambda op, l, r: op(l, r),
                               st.sampled_from((And, Or, Xor)), sub, sub))


TREES = _trees(4)

# the Zero, One and Infinity variants and finite s log-uniform over
# [e^-40, e^40], both dispatch thresholds included
PARAMS = st.one_of(
    st.sampled_from((CopulaParam.zero(), CopulaParam.one(),
                     CopulaParam.infinity())),
    st.floats(-40.0, 40.0).map(lambda k: CopulaParam.finite(math.exp(k))))


@given(TREES)
@settings(max_examples=300, deadline=None)
def test_random_tree_render_parse_round_trip(e):
    assert parse_expr(e.render()) == e


@given(TREES, TREES)
@settings(max_examples=100, deadline=None)
def test_binary_connectives_stay_distinct(l, r):
    nodes = [And(l, r), Or(l, r), Xor(l, r)]
    for m, n in itertools.combinations(nodes, 2):
        assert m != n
    assert len({repr(n) for n in nodes}) == 3


_REF_TRUTH = {And: lambda l, r: l and r, Or: lambda l, r: l or r,
              Xor: lambda l, r: l != r}


def _ref_evaluate(expr, env):
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 1 - _ref_evaluate(expr.child, env)
    return int(bool(_REF_TRUTH[type(expr)](_ref_evaluate(expr.left, env),
                                           _ref_evaluate(expr.right, env))))


@given(TREES)
@settings(max_examples=200, deadline=None)
def test_random_tree_desugar_xor_keeps_truth_table(e):
    d = e.desugar_xor()
    assert "xor" not in d.render()
    for bits in itertools.product((0, 1), repeat=len(_NAMES)):
        env = dict(zip(_NAMES, bits))
        assert e.evaluate(env) == _ref_evaluate(e, env)
        assert d.evaluate(env) == e.evaluate(env)


def _ref_copula_value(expr, env, s):
    """The evaluator as written when And, Or and Xor were separate
    classes, with R_s and F_s spelled out here."""
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(
                f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Not):
        return 1.0 - _ref_copula_value(expr.child, env, s)
    left = _ref_copula_value(expr.left, env, s)
    right = _ref_copula_value(expr.right, env, s)
    if isinstance(expr, And):
        return _and_value(s, left, right)
    if isinstance(expr, Or):
        return left + right - _and_value(s, left, right)
    if isinstance(expr, Xor):
        return left + right - 2.0 * _and_value(s, left, right)
    raise TypeError(f"unknown node {expr!r}")


def _ref_count_vars(expr, counts):
    if isinstance(expr, Var):
        counts[expr.name] += 1
    elif isinstance(expr, Not):
        _ref_count_vars(expr.child, counts)
    elif isinstance(expr, (And, Or, Xor)):
        _ref_count_vars(expr.left, counts)
        _ref_count_vars(expr.right, counts)


def _ref_copula_prob(expr, assignment, s):
    counts = Counter()
    _ref_count_vars(expr, counts)
    repeated = sorted(name for name, c in counts.items() if c > 1)
    if repeated:
        warnings.warn(
            f"variable(s) {', '.join(repeated)} occur more than once; "
            f"compositional copula evaluation may disagree with "
            f"truth-table semantics", CompositionalityWarning, stacklevel=2)
    env = {name: _unit(v) for name, v in assignment.items()}
    return _unit(_ref_copula_value(expr, env, s))


def _prob_outcome(fn, expr, assignment, s):
    """repr of the value or of the error, and every warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(fn(expr, assignment, s))
        except DomainError as err:
            out = f"{type(err).__name__}: {err}"
    return out, [(w.category, str(w.message)) for w in caught]


@given(TREES, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       PARAMS)
@settings(max_examples=400, deadline=None)
def test_random_tree_copula_prob_matches_reference(e, values, s):
    assignment = dict(zip(_NAMES, values))
    assert _prob_outcome(copula_prob, e, assignment, s) \
        == _prob_outcome(_ref_copula_prob, e, assignment, s)
