import functools
import random

import pytest
from hypothesis import example, given

import helpers
from lapspec.expr import (
    AST,
    Builder,
    Complement,
    Complete,
    Join,
    LiteralOverflowError,
    ParseError,
    Repeat,
    Union,
    edge_count,
    fold,
    order,
    parse,
    render,
)
from lapspec.realize import realize
from lapspec.spectrum import spectrum_of

K1 = Complete(1)
OMEGA1_R2 = "(2K1 + (K1 * 3K1)) * (2K1 + (K1 * 3K1))"


class TestParse:
    def test_atomic(self):
        assert parse("K1") == Complete(1)
        assert parse("K17") == Complete(17)

    def test_omega1_r2_shape(self):
        half = Union(Repeat(2, K1), Join(K1, Repeat(3, K1)))
        assert parse(OMEGA1_R2) == Join(half, half)

    def test_repetition_binds_tighter_than_join(self):
        assert parse("3K1 * K1") == Join(Repeat(3, K1), K1)

    def test_join_binds_tighter_than_union(self):
        assert parse("2K1 + K1 * 3K1") == Union(Repeat(2, K1), Join(K1, Repeat(3, K1)))

    def test_binary_operators_are_left_associative(self):
        assert parse("K1 + K2 + K3") == Union(Union(K1, Complete(2)), Complete(3))
        assert parse("K1 * K2 * K3") == Join(Join(K1, Complete(2)), Complete(3))

    def test_whitespace_is_insignificant(self):
        assert parse("2K2*2K2") == parse(" 2 K2  *  2K2 ")

    def test_complement_forms(self):
        assert parse("~K3") == Complement(Complete(3))
        assert parse("2~K3") == Repeat(2, Complement(Complete(3)))
        assert parse("~(2K1)") == Complement(Repeat(2, K1))
        assert parse("~~K2") == Complement(Complement(Complete(2)))

    def test_repeat_of_parenthesized_expression(self):
        assert parse("2(K1 + K2)") == Repeat(2, Union(K1, Complete(2)))
        assert parse("2(3K1)") == Repeat(2, Repeat(3, K1))

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("", 0),
            ("K", 1),
            ("K1 +", 4),
            ("(K1", 3),
            ("K1)", 2),
            ("3", 1),
            ("~3K1", 1),
            ("K1 & K2", 3),
            ("()", 1),
        ],
    )
    def test_syntax_errors_carry_positions(self, text, pos):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.pos == pos

    def test_zero_literal_rejected(self):
        with pytest.raises(ParseError):
            parse("K0")
        with pytest.raises(ParseError):
            parse("0K1")

    def test_literal_overflow(self):
        with pytest.raises(LiteralOverflowError):
            parse(f"K{10**10}")

    @pytest.mark.parametrize(
        "text, error, pos",
        [
            ("K\u00b2", ParseError, 1),
            ("K1\u00b2", ParseError, 2),
            ("\u00b2K1", ParseError, 0),
            ("K" + "1" * 5000, LiteralOverflowError, 1),
            ("2K1 + " + "9" * 4301 + "K1", LiteralOverflowError, 6),
            ("K1 007", ParseError, 3),
            ("K1 \u0663", ParseError, 3),
            ("(K1 007", ParseError, 4),
        ],
        ids=[
            "K-superscript", "K1-superscript", "superscript-K1", "5000-digits", "4301-digits",
            "leading-zeros", "arabic-indic-digit", "leading-zeros-in-group",
        ],
    )
    def test_bad_literals_are_parse_errors(self, text, error, pos):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert type(excinfo.value) is error
        assert excinfo.value.pos == pos

    @pytest.mark.parametrize(
        "text, message",
        [
            ("K1 007", "expected end of input, found '007' (at offset 3)"),
            ("K1 \u0663", "expected end of input, found '\u0663' (at offset 3)"),
            ("(K1 007", "expected ')', found '007' (at offset 4)"),
            ("2 03K1", "expected 'K', '~', '(' or an integer, found '03' (at offset 2)"),
            ("K1 12 + K1", "expected end of input, found '12' (at offset 3)"),
        ],
    )
    def test_a_misplaced_literal_is_quoted_as_written(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert str(excinfo.value) == message

    def test_literals_in_any_decimal_script_and_with_leading_zeros(self):
        assert parse("K\u0663") == Complete(3)
        assert parse("K" + "0" * 5000 + "1") == K1
        assert parse(f"K{10**9:020}") == Complete(10**9)


class TestRender:
    def test_complete(self):
        assert render(Complete(4)) == "K4"

    def test_union_parenthesized(self):
        assert render(Union(Complete(2), Complete(1))) == "(K2 + K1)"

    def test_complement_of_atom(self):
        assert render(Complement(Complete(3))) == "~K3"

    def test_nested_repeat_needs_parentheses(self):
        e = Repeat(2, Repeat(3, K1))
        assert render(e) == "2(3K1)"
        assert parse(render(e)) == e

    def test_long_chain_renders_in_linear_time(self):
        # A walk that copied each child's text into its parent's took over a second here.
        e = functools.reduce(Join, [K1] * 10**5)
        text = render(e)
        assert text.startswith("(" * 99_999 + "K1 * K1)")
        assert text.endswith(" * K1)" * 99_999)
        assert len(text) == 2 + 7 * 99_999

    def test_complement_of_repeat_needs_parentheses(self):
        e = Complement(Repeat(2, K1))
        assert render(e) == "~(2K1)"
        assert parse(render(e)) == e


def test_roundtrip_for_1000_seeded_expressions():
    rng = random.Random(1729)
    for _ in range(1000):
        e = helpers.random_expr(rng, 6)
        assert parse(render(e)) == e


@given(helpers.expr_strategy())
def test_roundtrip_property(e):
    assert parse(render(e)) == e


@given(helpers.text_strategy())
@example("K" + "7" * 4301)
def test_any_text_parses_and_reads_back_or_is_a_parse_error(text):
    try:
        e = parse(text)
    except ParseError as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert parse(render(e)) == e


def recorder() -> tuple[Builder, list[tuple]]:
    """A builder that logs each call as ``(name, *args)``; the value of the k-th call is k."""
    calls = []

    def record(name):
        def make(*args):
            calls.append((name, *args))
            return len(calls)

        return make

    return Builder(*map(record, Builder._fields)), calls


class TestBuilder:
    def test_default_builder_makes_the_tree(self):
        assert AST == Builder(Complete, Union, Join, Repeat, Complement)
        assert parse(OMEGA1_R2, AST) == parse(OMEGA1_R2)

    def test_constructors_are_called_in_post_order(self):
        builder, calls = recorder()
        assert parse("K1 + 2~(K2 * K3)", builder) == 7
        assert calls == [
            ("complete", 1),
            ("complete", 2),
            ("complete", 3),
            ("join", 2, 3),
            ("complement", 4),
            ("repeat", 2, 5),
            ("union", 1, 6),
        ]


class TestCounts:
    def test_order_of_omega1_member(self):
        assert order(parse("(1K1 + (K1 * 2K1)) * (1K1 + (K1 * 2K1))")) == 8
        assert order(parse(OMEGA1_R2)) == 12

    def test_order_basics(self):
        assert order(Repeat(5, Complete(2))) == 10
        assert order(Complement(Complete(7))) == 7

    def test_edge_count_complete(self):
        assert edge_count(Complete(4)) == 6

    def test_edge_count_of_join(self):
        # 2 + 2 edges inside the matchings plus the full 4x4 cross.
        assert edge_count(parse("2K2 * 2K2")) == 20

    def test_edge_count_complement(self):
        assert edge_count(parse("~K3")) == 0
        assert edge_count(Complement(parse("2K2"))) == 6 - 2

    @given(helpers.expr_strategy())
    def test_complement_edge_identity(self, e):
        n = order(e)
        assert edge_count(Complement(e)) == n * (n - 1) // 2 - edge_count(e)


class TestDepth:
    def test_parentheses_nest_to_any_depth(self):
        assert parse("(" * 200 + "K1" + ")" * 200) == K1
        assert parse("K2 + " + "(" * 201 + "K1" + ")" * 201) == Union(Complete(2), K1)
        with pytest.raises(ParseError) as excinfo:
            parse("K2 + " + "(" * 1000 + "K1" + ")" * 999)
        assert str(excinfo.value) == f"expected ')', found end of input (at offset {5 + 1000 + 2 + 999})"

    def test_complement_chain_has_no_limit(self):
        e = parse("~" * 5000 + "K2")
        for _ in range(5000):
            assert isinstance(e, Complement)
            e = e.inner
        assert e == Complete(2)

    def test_deep_trees_count_and_render(self):
        n = 5000
        e = parse(" * ".join(["K1"] * n))
        assert order(e) == n
        assert edge_count(e) == n * (n - 1) // 2
        assert render(e) == "(" * (n - 1) + "K1" + " * K1)" * (n - 1)
        assert edge_count(parse(" + ".join(["K2"] * n))) == n


class TestDeepInputs:
    """Deep trees through every entry point: each text denotes the graph of ``same``."""

    CASES = {
        "union chain": (" + ".join(["K1"] * 1200), "1200K1"),
        "complement chain": ("~" * 3001 + "K2", "2K1"),
        "right-nested unions": ("K1 + (" * 3000 + "K1" + ")" * 3000, "3001K1"),
        "deep parentheses": ("(" * 10**5 + "2K1 * K1" + ")" * 10**5, "2K1 * K1"),
    }

    @pytest.mark.parametrize("text, same", CASES.values(), ids=CASES.keys())
    def test_walks(self, text, same):
        e = parse(text)
        assert parse(render(e)) == e
        assert e == parse(text) and hash(e) == hash(parse(text))
        assert repr(e) == repr(parse(render(e)))
        s = spectrum_of(e)
        assert s == spectrum_of(parse(same))
        assert order(e) == s.n == order(parse(same))
        assert 2 * edge_count(e) == s.trace() == 2 * edge_count(parse(same))

    @pytest.mark.parametrize("case", ["union chain", "complement chain"])
    def test_realize(self, case):
        e = parse(self.CASES[case][0])
        assert realize(e).edge_count() == edge_count(e)


class TestFold:
    def test_post_order_left_to_right(self):
        builder, calls = recorder()
        assert fold(parse("K1 + ~K2 * 2K3"), builder) == 7
        assert calls == [
            ("complete", 1),
            ("complete", 2),
            ("complement", 2),
            ("complete", 3),
            ("repeat", 2, 4),
            ("join", 3, 5),
            ("union", 1, 6),
        ]

    def test_makes_the_calls_parse_makes_on_1000_seeded_trees(self):
        rng = random.Random(4099)
        for _ in range(1000):
            e = helpers.random_expr(rng, 6)
            (folding, folded), (parsing, parsed) = recorder(), recorder()
            assert fold(e, folding) == parse(render(e), parsing)
            assert folded == parsed

    @given(helpers.source_strategy() | helpers.text_strategy())
    def test_makes_the_calls_parse_makes_on_any_text(self, text):
        parsing, parsed = recorder()
        try:
            parse(text, parsing)
        except ParseError:
            return
        folding, folded = recorder()
        fold(parse(text), folding)
        assert folded == parsed

    @pytest.mark.parametrize("walk", [render, order, edge_count, spectrum_of, realize])
    def test_non_expressions_raise_type_error(self, walk):
        with pytest.raises(TypeError, match="not a GraphExpr"):
            walk(Union(K1, "K1"))
        with pytest.raises(TypeError, match="not a GraphExpr"):
            walk(None)


class TestValueSemantics:
    """``==``, ``hash()`` and ``repr()`` look at the whole tree, at any depth."""

    def test_equal_trees_are_equal_and_hash_alike(self):
        a, b = parse(OMEGA1_R2), parse(OMEGA1_R2)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "other",
        ["(2K1 + (K1 * 3K1)) * (2K1 + (K1 * 4K1))", "(2K1 + (K1 * 3K1)) + (2K1 + (K1 * 3K1))", "(2K1 + (K1 * 3K1))"],
    )
    def test_different_trees_are_unequal(self, other):
        assert parse(OMEGA1_R2) != parse(other)

    def test_other_classes_are_unequal(self):
        assert Union(K1, K1) != Join(K1, K1)
        assert Complete(1) != 1
        assert Complement(K1) != Repeat(1, K1)
        # A scalar in a child's place is a different tree, not the same fields in another order.
        assert Union(K1, 2) != Union(2, K1)

    def test_repr_reads_as_a_constructor_call(self):
        assert repr(parse("2(K1 + ~K2) * K3")) == (
            "Join(left=Repeat(m=2, inner=Union(left=Complete(n=1), right=Complement(inner=Complete(n=2)))), "
            "right=Complete(n=3))"
        )

    @given(helpers.expr_strategy())
    def test_repr_evaluates_back_to_an_equal_tree(self, e):
        names = {"Complete": Complete, "Union": Union, "Join": Join, "Repeat": Repeat, "Complement": Complement}
        assert eval(repr(e), names) == e

    @pytest.mark.parametrize("op", ["*", "+"])
    def test_long_chains_compare_hash_and_print(self, op):
        text = f" {op} ".join(["K1"] * 2000)
        e = parse(text)
        assert e == parse(text)
        assert e != parse(text + f" {op} K1")
        assert e != parse(text[: -len("K1")] + "K2")
        assert hash(e) == hash(parse(text))
        assert {e: 1}[parse(text)] == 1
        name = "Join" if op == "*" else "Union"
        assert repr(e) == f"{name}(left=" * 1999 + "Complete(n=1)" + ", right=Complete(n=1))" * 1999

    def test_repr_of_a_long_chain(self):
        # A walk that copied each child's text into its parent's took about a minute here.
        e = functools.reduce(Join, [K1] * 10**5)
        assert repr(e) == "Join(left=" * 99_999 + "Complete(n=1)" + ", right=Complete(n=1))" * 99_999
