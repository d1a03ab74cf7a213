"""Spec-file parsing, pretty-printing, and their round-trip law."""

import pytest

from cspmon.conformance import GenConfig, gen_terms
from cspmon.errors import ParseError, UndeclaredEventError
from cspmon.syntax import parse_spec, parse_term, print_term
from cspmon.terms import (
    Choice,
    Event,
    EventVar,
    FAIL,
    FullAlphabet,
    Literal,
    Parallel,
    Prefix,
    STOP,
    SetDifference,
    prefix_depth,
)
from conftest import format_spec

X = EventVar("x")


class TestParseSpec:
    def test_minimal(self):
        spec = parse_spec("alphabet {a} process STOP")
        assert spec.alphabet == {"a"}
        assert spec.root == STOP

    def test_prefix_binds_tighter_than_choice(self):
        spec = parse_spec("alphabet {a,b} process ?x:{a,b} -> STOP [] ?x:{a} -> FAIL")
        assert spec.root == Choice(
            Prefix(X, Literal((Event("a"), Event("b"))), STOP),
            Prefix(X, Literal((Event("a"),)), FAIL),
        )

    def test_parallel_with_sync_set(self):
        spec = parse_spec("alphabet {a} process FAIL |[{a}]| STOP")
        assert spec.root == Parallel(FAIL, Literal((Event("a"),)), STOP)

    def test_sigma_and_set_operators(self):
        spec = parse_spec("alphabet {a,b} process ?x:Sigma \\ {a} -> STOP")
        assert spec.root == Prefix(
            X, SetDifference(FullAlphabet(), Literal((Event("a"),))), STOP
        )

    def test_comments_and_whitespace(self):
        text = """
        alphabet {a, b}   -- two events
        process
          ?x:{a} ->       -- prefix
          STOP
        """
        assert parse_spec(text).root == Prefix(X, Literal((Event("a"),)), STOP)

    def test_bound_variable_in_set(self):
        spec = parse_spec("alphabet {a,b} process ?x:{a,b} -> ?y:{x} -> STOP")
        body = spec.root.body
        assert body.events == Literal((X,))

    def test_long_chain_of_distinct_binders(self):
        # Each binder's set names the previous binder, so every name stays
        # bound to the end of the chain; parsing is linear in its length.
        n = 20_000
        binders = " ".join(f"?x{i}:{{x{i - 1}}} ->" for i in range(1, n))
        spec = parse_spec(f"alphabet {{a}} process ?x0:{{a}} -> {binders} STOP")
        assert prefix_depth(spec.root) == n
        last = spec.root
        while last.body != STOP:
            last = last.body
        assert last.var == EventVar(f"x{n - 1}")
        assert last.events == Literal((EventVar(f"x{n - 2}"),))

    def test_shadowed_name_stays_bound_after_inner_atom(self):
        spec = parse_spec("alphabet {a} process ?x:{a} -> ((?x:{x} -> STOP) [] ?y:{x} -> STOP)")
        assert spec.root.body.right.events == Literal((X,))


class TestParseErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("alphabet {a} process STOP ]]")
        assert exc.value.line == 1
        assert exc.value.column == 27

    def test_undeclared_event(self):
        with pytest.raises(UndeclaredEventError) as exc:
            parse_spec("alphabet {a} process ?x:{b} -> STOP")
        assert exc.value.name == "b"

    def test_unknown_identifier_outside_scope(self):
        # y is not declared and not bound by the enclosing binder.
        with pytest.raises(UndeclaredEventError):
            parse_spec("alphabet {a} process ?x:{a} -> ?z:{y} -> STOP")

    def test_name_goes_out_of_scope_after_parenthesis(self):
        with pytest.raises(UndeclaredEventError) as exc:
            parse_spec("alphabet {a} process (?x:{a} -> STOP) [] ?y:{x} -> STOP")
        assert exc.value.name == "x"

    def test_binder_may_not_shadow_alphabet(self):
        with pytest.raises(ParseError):
            parse_spec("alphabet {a} process ?a:{a} -> STOP")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_spec("")


class TestPrintTerm:
    def test_leaves(self):
        assert print_term(STOP) == "STOP"
        assert print_term(FAIL) == "FAIL"

    def test_flat_choice(self):
        assert print_term(Choice(STOP, FAIL)) == "STOP [] FAIL"

    def test_parenthesization_forced_by_precedence(self):
        term = Parallel(Choice(STOP, STOP), Literal(()), FAIL)
        assert print_term(term) == "(STOP [] STOP) |[{}]| FAIL"

    def test_right_nested_choice_keeps_shape(self):
        term = Choice(STOP, Choice(FAIL, STOP))
        assert print_term(term) == "STOP [] (FAIL [] STOP)"

    def test_prefix_body_parenthesized_when_composite(self):
        term = Prefix(X, Literal((Event("a"),)), Parallel(STOP, Literal(()), FAIL))
        assert print_term(term) == "?x:{a} -> (STOP |[{}]| FAIL)"


class TestRoundTrip:
    def test_examples(self, ab):
        for text in (
            "STOP",
            "FAIL [] STOP",
            "?x:{a,b} -> STOP [] ?x:{a} -> FAIL",
            "(STOP [] STOP) |[{}]| FAIL",
            "?x:Sigma \\ {a} -> ?y:{x} n {a,b} -> STOP",
            "STOP |[{a}]| ?x:{a} -> STOP |[{b}]| FAIL",
        ):
            term = parse_term(text, ab)
            assert parse_term(print_term(term), ab) == term

    def test_random_corpus(self, abc):
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=61), 1000):
            assert parse_term(print_term(term), abc) == term

    def test_deep_chain(self, ab):
        term = STOP
        for _ in range(10_000):
            term = Prefix(X, Literal((Event("a"),)), term)
        assert parse_term(print_term(term), ab) is term

    def test_format_spec_roundtrip(self):
        spec = parse_spec("alphabet {a,b} process ?x:{a} -> STOP")
        assert parse_spec(format_spec(spec)) == spec
