import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given

import helpers
from lapspec.expr import Complement, Join, ParseError, Repeat, Union, edge_count, order, parse, render
from lapspec.families import family_specs, source
from lapspec.spectrum import Spectrum, multiplicity_of_zero, spectrum_of, spectrum_of_complete, spectrum_of_text


def spec(n, *pairs):
    return Spectrum.from_pairs(n, pairs)


class TestSpectrumType:
    def test_merges_and_sorts(self):
        s = Spectrum.from_pairs(4, [(2, 1), (0, 1), (2, 1), (4, 1)])
        assert s.entries == ((Fraction(0), 1), (Fraction(2), 2), (Fraction(4), 1))

    def test_drops_zero_multiplicities(self):
        s = Spectrum.from_pairs(2, [(0, 1), (1, 0), (2, 1)])
        assert s.multiplicity(1) == 0

    def test_total_multiplicity_must_match_order(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs(3, [(0, 1), (2, 1)])

    def test_zero_must_be_present(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs(2, [(1, 1), (2, 1)])

    def test_eigenvalues_bounded_by_order(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs(2, [(0, 1), (3, 1)])

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs(1, [(0, 2), (0, -1)])

    def test_trace(self):
        assert spec(4, (0, 1), (2, 2), (4, 1)).trace() == 8

    def test_integral_values_are_ints(self):
        s = Spectrum.from_pairs(4, [(Fraction(0), 1), (Fraction(4, 2), 2), (4.0, 1)])
        assert [type(v) for v, _ in s.entries] == [int, int, int]
        assert type(Spectrum.from_pairs(2, [(0, 1), (Fraction(2), 1)]).trace()) is int

    @pytest.mark.parametrize(
        "eigs, message",
        [
            ([[0, 1, 1.5], [2, 1, 1.5]], "multiplicities must be integers, not 1.5"),
            ([[0, 1, 1], [2, 0, 2]], "not a spectrum object: Fraction(2, 0)"),
            ([[0, 1, 1], [2.0, 1, 2]], "not a spectrum object: both arguments should be Rational instances"),
        ],
        ids=["float-multiplicity", "zero-denominator", "float-numerator"],
    )
    def test_json_with_a_non_integer_is_a_value_error(self, eigs, message):
        with pytest.raises(ValueError) as excinfo:
            Spectrum.from_json_obj({"n": 3, "eigs": eigs})
        assert str(excinfo.value) == message

    def test_float_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="multiplicities must be integers, not 1.5"):
            Spectrum(3, ((0, 1.5), (2, 1.5)))

    def test_numpy_int_multiplicities_accepted(self):
        s = Spectrum.from_pairs(3, [(0, np.int64(1)), (3, np.int32(2))])
        assert s == spec(3, (0, 1), (3, 2))
        assert s.expanded() == [0, 3, 3]
        assert [type(mult) for _, mult in s.entries] == [int, int]
        assert Spectrum.from_json_obj(json.loads(json.dumps(s.to_json_obj()))) == s

    def test_json_roundtrip(self):
        s = spec(4, (0, 1), (Fraction(5, 2), 2), (4, 1))
        obj = s.to_json_obj()
        assert obj == {"n": 4, "eigs": [[0, 1, 1], [5, 2, 2], [4, 1, 1]]}
        assert Spectrum.from_json_obj(obj) == s


class TestBaseCases:
    def test_single_vertex(self):
        assert spectrum_of_complete(1) == spec(1, (0, 1))

    def test_complete(self):
        assert spectrum_of_complete(4) == spec(4, (0, 1), (4, 3))

    def test_smallest_join_is_an_edge(self):
        assert spectrum_of(parse("K1 * K1")) == spec(2, (0, 1), (2, 1))


class TestUnion:
    def test_two_isolated_vertices(self):
        assert spectrum_of(parse("K1 + K1")) == spec(2, (0, 2))

    def test_two_edges(self):
        assert spectrum_of(parse("K2 + K2")) == spec(4, (0, 2), (2, 2))

    def test_star_plus_isolated_vertex(self):
        assert spectrum_of(parse("K1 * 2K1")) == spec(3, (0, 1), (1, 1), (3, 1))
        assert spectrum_of(parse("(K1 * 2K1) + K1")) == spec(4, (0, 2), (1, 1), (3, 1))


class TestComplement:
    def test_complement_of_complete(self):
        assert spectrum_of(parse("~K3")) == spec(3, (0, 3))

    def test_complement_of_empty(self):
        assert spectrum_of(parse("~(3K1)")) == spec(3, (0, 1), (3, 2))

    def test_complement_of_edge_plus_two_vertices_is_diamond(self):
        s = spectrum_of(parse("K2 + 2K1"))
        assert s == spec(4, (0, 3), (2, 1))
        assert spectrum_of(parse("~(K2 + 2K1)")) == spec(4, (0, 1), (2, 1), (4, 2))

    @given(helpers.expr_strategy())
    def test_involution(self, e):
        assert spectrum_of(Complement(Complement(e))) == spectrum_of(e)


class TestJoin:
    def test_edge(self):
        assert spectrum_of(parse("K1 * K1")) == spec(2, (0, 1), (2, 1))

    def test_matching_with_itself(self):
        assert spectrum_of(parse("2K2")) == spec(4, (0, 2), (2, 2))
        assert spectrum_of(parse("2K2 * 2K2")) == spec(8, (0, 1), (4, 2), (6, 4), (8, 1))

    def test_matching_with_star(self):
        assert spectrum_of(parse("K1 * 3K1")) == spec(4, (0, 1), (1, 2), (4, 1))
        joined = spectrum_of(parse("2K2 * (K1 * 3K1)"))
        assert joined == spec(8, (0, 1), (4, 1), (5, 2), (6, 2), (8, 2))

    @given(helpers.expr_strategy(max_leaves=4), helpers.expr_strategy(max_leaves=4))
    def test_commutative(self, e1, e2):
        assert spectrum_of(Join(e1, e2)) == spectrum_of(Join(e2, e1))


class TestSpectrumOf:
    def test_omega1_member(self):
        s = spectrum_of(parse("(1K1 + (K1 * 2K1)) * (1K1 + (K1 * 2K1))"))
        assert s == spec(8, (0, 1), (4, 2), (5, 2), (7, 2), (8, 1))

    def test_omega2_member(self):
        assert spectrum_of(parse("2K2 * 2K2")) == spec(8, (0, 1), (4, 2), (6, 4), (8, 1))

    def test_repeat_is_iterated_union(self):
        inner = parse("K2 + K1")
        direct = spectrum_of(Repeat(4, inner))
        folded = spectrum_of(Union(Union(Union(inner, inner), inner), inner))
        assert direct == folded

    @given(helpers.expr_strategy())
    def test_trace_identity(self, e):
        assert spectrum_of(e).trace() == 2 * edge_count(e)

    @given(helpers.expr_strategy())
    def test_cardinality_and_bound(self, e):
        s = spectrum_of(e)
        assert s.n == order(e)
        assert sum(m for _, m in s.entries) == s.n
        assert s.entries[-1][0] <= s.n
        assert s.entries[0][0] == 0
        assert all(type(value) is int for value, _ in s.entries)


class TestSharedNodes:
    """Composition reuses each child's dict in place; a node object that occurs
    several times in a tree must still count once per occurrence."""

    @staticmethod
    def trees(x):
        doubled = Union(x, x)
        return [
            doubled,
            Join(x, Repeat(3, x)),
            Complement(x),
            Join(doubled, Complement(doubled)),
            Union(Repeat(2, Join(x, x)), Complement(Union(x, Complement(x)))),
        ]

    @given(helpers.expr_strategy(max_leaves=4))
    def test_equals_the_spectrum_of_fresh_nodes(self, x):
        for tree in self.trees(x):
            assert spectrum_of(tree) == spectrum_of(parse(render(tree)))

    @given(helpers.expr_strategy(max_leaves=4))
    def test_repeated_calls_agree(self, x):
        for tree in self.trees(x):
            assert spectrum_of(tree) == spectrum_of(tree)
        assert spectrum_of(x) == spectrum_of(parse(render(x)))


class TestSpectrumOfText:
    """Composing while parsing gives what composing the parsed tree gives."""

    @staticmethod
    def outcome(compute, text):
        try:
            return compute(text)
        except ParseError as exc:
            return type(exc), str(exc), exc.pos

    @given(helpers.text_strategy())
    @example("K" + "7" * 4301)
    @example("2~(K3 * ~2K1) + 3K2")
    def test_agrees_with_the_tree_on_any_text(self, text):
        assert self.outcome(spectrum_of_text, text) == self.outcome(lambda t: spectrum_of(parse(t)), text)

    def test_agrees_on_1000_seeded_expressions(self):
        rng = random.Random(2718)
        for _ in range(1000):
            e = helpers.random_expr(rng, 6)
            assert spectrum_of_text(render(e)) == spectrum_of(e)

    def test_agrees_on_every_family_member(self):
        for r in range(1, 21):
            for spec in family_specs(r):
                text = source(spec)
                assert spectrum_of_text(text) == spectrum_of(parse(text)), spec

    def test_deep_text(self):
        text = "~" * 3000 + "(" * 10**4 + " + ".join(["K2"] * 2000) + ")" * 10**4
        assert spectrum_of_text(text) == spectrum_of(parse(text)) == spectrum_of(parse("2000K2"))


class TestZeroMultiplicity:
    def test_connected(self):
        assert multiplicity_of_zero(spectrum_of_complete(4)) == 1

    def test_isolated_vertices(self):
        assert multiplicity_of_zero(spectrum_of(parse("3K1"))) == 3

    def test_two_components(self):
        s = spectrum_of(parse("1K1 + (K1 * 2K1)"))
        assert multiplicity_of_zero(s) == 2
