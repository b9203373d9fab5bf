"""parse_expr against the recursive-descent parser it replaced, and the
depth rule.

parse_reference.py holds the parser as it was before it became one
precedence-climbing pass.  On every text that nests at most MAX_DEPTH
parentheses, both must return repr-equal trees, or raise an error of the
same type with the same message, offset and expected set.  The texts are
drawn token soups, rendered random trees (some with a character cut
out), and nesting ladders of 0 to MAX_DEPTH parentheses.  Above
MAX_DEPTH parentheses the reference accepted or refused a text depending
on the caller's stack; parse_expr refuses it, wherever it is called.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_reference
from test_problogic import TREES
from xorlab.errors import ExprSyntaxError
from xorlab.problogic import (MAX_DEPTH, And, BoolExpr, Const, Not, Or, Var,
                              Xor, parse_expr)

_TOO_DEEP = f"expression nested more than {MAX_DEPTH} levels deep"

# tokens, near-tokens and characters the tokenizer refuses; the
# whitespace pieces hold parse_expr's \s to the reference's
# str.isspace(), and the non-ASCII letters and digits exercise \w
_PIECES = ("(", ")", "not", "and", "or", "xor", "a", "b", "x1", "_", "0",
           "1", "01", "2", "$", "é", "\t", " ", "\ud800", "\n", "\x0b",
           "\x1c", "\x85", "\u00a0", "\u2003", "\u200b", "\u0663",
           "x\u0663", "a\u00e9", "\u00b2")


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as err:        # compared, not swallowed
        return (type(err).__name__, str(err), getattr(err, "offset", None),
                getattr(err, "expected", None))


def _parens(text):
    """The most parentheses text holds open at once."""
    depth = most = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        most = max(most, depth)
    return most


def _check(text):
    assert _parens(text) <= MAX_DEPTH, text
    assert _outcome(parse_expr, text) == \
        _outcome(parse_reference.parse_expr, text), text


def _soup(rng):
    return "".join(rng.choice(_PIECES) + rng.choice(("", " ", " "))
                   for _ in range(rng.randint(0, 24)))


def _tree(rng, size):
    """A random tree with size leaves over a-c, 0 and 1."""
    if size == 1:
        node = (Var(rng.choice("abc")) if rng.random() < 0.8
                else Const(rng.randint(0, 1)))
    else:
        cut = rng.randint(1, size - 1)
        node = rng.choice((And, Or, Xor))(_tree(rng, cut),
                                          _tree(rng, size - cut))
    return Not(node) if rng.random() < 0.25 else node


def _ladders(n):
    """Texts that nest n parentheses, valid and broken."""
    opened, closed = "(" * n, ")" * n
    return (
        opened + "a" + closed,
        opened + closed,
        opened + "a" + ")" * max(n - 1, 0),
        opened + "a" + closed + ")",
        "not (" * n + "a" + closed,
        "(not " * n + "a" + closed,
        "(a and " * n + "b" + closed,
        "(a or b xor c and " * n + "d" + closed,
        "a or b xor c and not (" * n + "d" + closed,
        opened + "a or" + closed,
        opened + "a" + closed + " b",
        opened + "a" + closed + " and " + opened + "b" + closed,
        opened + "a $" + closed,
        "not " * (2 * n) + "a",
        " and ".join("a" * (n + 1)),
        " or ".join(["(a xor b)"] * (n + 1)),
        "(" * (n // 2) + "not " * n + "a" + ")" * (n // 2),
        "not (" * n + ")" * n,
    )


def corpus(seed=21, soups=20_000, trees=5_000):
    """The seeded texts: token soups, rendered random trees, each tree
    also with one character cut out, then the nesting ladders 0 to
    MAX_DEPTH."""
    rng = random.Random(seed)
    for _ in range(soups):
        yield _soup(rng)
    for _ in range(trees):
        text = _tree(rng, rng.randint(1, 12)).render()
        yield text
        cut = rng.randrange(len(text))
        yield text[:cut] + text[cut + 1:]
    for n in range(MAX_DEPTH + 1):
        yield from _ladders(n)


def test_seeded_corpus_matches_reference():
    for text in corpus():
        _check(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=30).map(" ".join),
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.text(alphabet="()abnotrx01 $", max_size=30),
    TREES.map(lambda e: e.render())))
def test_drawn_texts_match_reference(text):
    _check(text)


def _levels(expr):
    children = [c for c in vars(expr).values() if isinstance(c, BoolExpr)]
    return 1 + max(map(_levels, children), default=0)


def _deep_tree(levels):
    """A tree of the given number of levels whose rendering needs
    parentheses: each level is a not, or a connective that holds the
    rest on its right."""
    node = Var("a")
    for k in range(levels - 1):
        node = (Not(node) if k % 2 else
                (And, Xor, Or)[k // 2 % 3](Var("b"), node))
    return node


def _refused(text):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text)
    assert (str(exc.value), exc.value.offset, exc.value.expected) \
        == (_TOO_DEEP, 0, ())


def test_deepest_tree_round_trips_and_one_more_level_is_refused():
    tree = _deep_tree(MAX_DEPTH)
    assert _levels(tree) == MAX_DEPTH
    assert "(" in tree.render()
    assert parse_expr(tree.render()) == tree
    deeper = _deep_tree(MAX_DEPTH + 1)
    assert _levels(deeper) == MAX_DEPTH + 1
    _refused(deeper.render())


def _frames_deep(frames, call):
    return call() if frames == 0 else _frames_deep(frames - 1, call)


def test_redundant_parentheses_parse_whatever_the_callers_stack():
    text = "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH
    assert parse_expr(text) == Var("a")
    assert _frames_deep(600, lambda: parse_expr(text)) == Var("a")


def test_connectives_in_parentheses_use_no_more_stack():
    # three levels per parenthesis, so the tree is too deep
    text = "(a or b xor c and " * MAX_DEPTH + "d" + ")" * MAX_DEPTH
    _refused(text)
    _frames_deep(600, lambda: _refused(text))


@pytest.mark.parametrize("n", range(MAX_DEPTH + 1, 166))
def test_more_parentheses_than_max_depth_are_refused(n):
    _refused("(" * n + "a" + ")" * n)
