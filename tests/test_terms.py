"""Term-level operations: interning, substitution, set evaluation, classification."""

import copy
import dataclasses
import pickle

import pytest

from cspmon.conformance import GenConfig, gen_terms
from cspmon.errors import UnboundVariableError
from cspmon.terms import (
    Choice,
    Event,
    EventVar,
    FAIL,
    Fail,
    FullAlphabet,
    Literal,
    Parallel,
    Prefix,
    STOP,
    SetDifference,
    SetIntersection,
    SetUnion,
    Stop,
    eval_event_set,
    free_vars,
    is_closed,
    is_doomed,
    literal,
    prefix_depth,
    substitute,
    term_size,
)
from conftest import (
    doomed_by_grammar,
    free_vars_by_walk,
    prefix_depth_by_walk,
    term_size_by_walk,
)

A, B = Event("a"), Event("b")
X, Y, Z = EventVar("x"), EventVar("y"), EventVar("z")

# One node of every constructor.
EVERY_CONSTRUCTOR = [
    A,
    X,
    Literal((A, X)),
    FullAlphabet(),
    SetUnion(literal("a"), FullAlphabet()),
    SetIntersection(literal("a"), FullAlphabet()),
    SetDifference(literal("a"), FullAlphabet()),
    STOP,
    FAIL,
    Prefix(X, literal("a"), STOP),
    Choice(STOP, FAIL),
    Parallel(STOP, literal("b"), FAIL),
]

DEEP = 10_000


def _deep_chain():
    # ?x:{a} -> ... -> STOP, DEEP binders.
    term = STOP
    for _ in range(DEEP):
        term = Prefix(X, literal("a"), term)
    return term


def _wide_parallel():
    # FAIL |[{a}]| ?x:{a} -> STOP |[{a}]| ..., DEEP operators, left-nested.
    term = FAIL
    for _ in range(DEEP):
        term = Parallel(term, literal("a"), Prefix(X, literal("a"), STOP))
    return term


@pytest.fixture(scope="module")
def corpus_nodes():
    """``(terms, sets)``: every subterm and set expression of 1,000 generated
    terms, the open bodies under binders included."""
    terms, sets = set(), set()
    stack = list(gen_terms(GenConfig(max_size=12, alphabet=frozenset("abc"), seed=11), 1000))
    while stack:
        node = stack.pop()
        (terms if isinstance(node, (Stop, Fail, Prefix, Choice, Parallel)) else sets).add(node)
        for field in ("events", "body", "left", "sync", "right"):
            if hasattr(node, field):
                stack.append(getattr(node, field))
    return terms, sets


class TestInterning:
    def test_equal_structure_is_the_same_object(self):
        assert Prefix(X, literal("a"), STOP) is Prefix(X, literal("a"), STOP)
        assert Stop() is STOP and Fail() is FAIL
        assert Prefix(X, literal("a"), STOP) != Prefix(Y, literal("a"), STOP)

    @pytest.mark.parametrize("node", EVERY_CONSTRUCTOR, ids=lambda n: type(n).__name__)
    def test_hash_is_the_hash_of_the_fields(self, node):
        # A frozen dataclass's hash: set iteration order under a fixed
        # PYTHONHASHSEED does not depend on interning.
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        assert hash(node) == hash(fields)

    @pytest.mark.parametrize("node", EVERY_CONSTRUCTOR, ids=lambda n: type(n).__name__)
    def test_copies_return_the_interned_node(self, node):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node

    def test_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Choice(STOP, FAIL).left = FAIL

    def test_wrong_arity_raises(self):
        with pytest.raises(TypeError):
            Prefix(X, literal("a"))

    def test_deep_chain_hashes_without_recursion(self):
        term = STOP
        for _ in range(3000):
            term = Prefix(X, literal("a"), term)
        assert {term: 1}[term] == 1
        assert hash(term) == hash((X, literal("a"), term.body))

    @pytest.mark.parametrize(
        "build, doomed, depth, size",
        [(_deep_chain, False, DEEP, DEEP + 1), (_wide_parallel, True, DEEP, 3 * DEEP + 1)],
        ids=["deep", "wide"],
    )
    def test_facts_of_large_terms_without_recursion(self, build, doomed, depth, size):
        term = build()
        assert is_doomed(term) is doomed
        assert prefix_depth(term) == depth
        assert term_size(term) == size
        assert free_vars(term) == frozenset() and is_closed(term)
        assert not is_closed(Prefix(Y, Literal((Z,)), term))


class TestSubstitute:
    def test_replaces_in_literal(self):
        term = Prefix(Y, Literal((X,)), STOP)
        assert substitute(A, X, term) == Prefix(Y, Literal((A,)), STOP)

    def test_no_occurrence(self):
        assert substitute(A, X, STOP) == STOP

    def test_shadowing(self):
        # The outer set is still in the enclosing scope; the body's x is
        # rebound by the inner binder and must stay.
        term = Prefix(X, Literal((X,)), Prefix(Z, Literal((X,)), STOP))
        expected = Prefix(X, Literal((A,)), Prefix(Z, Literal((X,)), STOP))
        assert substitute(A, X, term) == expected

    def test_substitutes_parallel_sync_set(self):
        term = Parallel(STOP, Literal((X,)), STOP)
        assert substitute(A, X, term) == Parallel(STOP, Literal((A,)), STOP)

    def test_closed_deep_chain_is_returned_as_is(self):
        # x is the chain's own binder; y occurs nowhere in it.
        chain = _deep_chain()
        assert substitute(A, X, chain) is chain
        assert substitute(A, Y, chain) is chain

    def test_binder_run_stops_at_a_rebinding_binder(self):
        # ?y:{x} -> ?x:{x} -> ?z:{x} -> STOP: the inner x binder's set is in
        # the enclosing scope, its body is not.
        inner = Prefix(Z, Literal((X,)), STOP)
        term = Prefix(Y, Literal((X,)), Prefix(X, Literal((X,)), inner))
        expected = Prefix(Y, Literal((A,)), Prefix(X, Literal((A,)), inner))
        assert substitute(A, X, term) == expected

    def test_variable_free_under_a_long_binder_run(self):
        def chain(param):
            term = Prefix(Z, Literal((param,)), STOP)
            for _ in range(3000):
                term = Prefix(Y, literal("a"), term)
            return term

        assert substitute(A, X, chain(X)) is chain(A)

    def test_size_preserved_on_random_terms(self, abc):
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=7), 200):
            for var in (X, Y):
                assert term_size(substitute(A, var, term)) == term_size(term)


class TestEvalEventSet:
    def test_literal_with_variable(self, abc):
        filled = substitute(B, X, Prefix(Y, Literal((A, X)), STOP)).events
        assert eval_event_set(filled, abc) == {"a", "b"}

    def test_complement(self, ab):
        got = eval_event_set(SetDifference(FullAlphabet(), Literal((A,))), ab)
        assert got == {"b"}

    def test_intersection(self, ab):
        sync = SetIntersection(Literal((X,)), Literal((A,)))
        filled = substitute(A, X, Parallel(STOP, sync, STOP)).sync
        assert eval_event_set(filled, ab) == {"a"}

    def test_unbound_variable_raises(self, ab):
        with pytest.raises(UnboundVariableError) as exc:
            eval_event_set(Literal((X,)), ab)
        assert "x" in str(exc.value)

    def test_result_within_alphabet_on_random_terms(self, abc):
        # Monotonicity is not claimed; containment in the alphabet is.
        for term in gen_terms(GenConfig(max_size=8, alphabet=abc, seed=3), 200):
            stack = [term]
            while stack:
                t = stack.pop()
                for attr in ("events", "sync"):
                    expr = getattr(t, attr, None)
                    if expr is not None and not _has_vars(expr):
                        assert eval_event_set(expr, abc) <= abc
                for attr in ("body", "left", "right"):
                    child = getattr(t, attr, None)
                    if child is not None:
                        stack.append(child)


def _has_vars(expr):
    return bool(free_vars(expr))


class TestIsDoomed:
    def test_fail_is_doomed(self):
        assert is_doomed(FAIL)

    def test_stop_is_viable(self):
        assert not is_doomed(STOP)

    def test_parallel_with_failing_side(self):
        assert is_doomed(Parallel(FAIL, Literal(()), STOP))

    def test_choice_needs_both_sides_doomed(self):
        assert not is_doomed(Choice(FAIL, STOP))
        assert is_doomed(Choice(FAIL, FAIL))

    def test_agrees_with_grammar_oracle(self, corpus_nodes):
        terms = corpus_nodes[0]
        assert any(is_closed(t) for t in terms) and not all(is_closed(t) for t in terms)
        for term in terms:
            assert is_doomed(term) == doomed_by_grammar(term), term


class TestTermSize:
    def test_leaves(self):
        assert term_size(STOP) == 1
        assert term_size(FAIL) == 1

    def test_prefix(self):
        assert term_size(Prefix(X, literal("a"), STOP)) == 2

    def test_parallel_with_choice(self):
        # 1 (parallel) + 1 (FAIL) + 3 (choice of two leaves)
        term = Parallel(FAIL, literal("a"), Choice(STOP, STOP))
        assert term_size(term) == 5

    @pytest.mark.parametrize(
        "reader, oracle",
        [(term_size, term_size_by_walk), (prefix_depth, prefix_depth_by_walk)],
        ids=["term_size", "prefix_depth"],
    )
    def test_every_subterm_agrees_with_walk_oracle(self, reader, oracle, corpus_nodes):
        for term in corpus_nodes[0]:
            assert reader(term) == oracle(term), term


class TestFreeVars:
    def test_generated_terms_are_closed(self, abc):
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=5), 300):
            assert not free_vars(term)

    def test_open_term(self):
        assert free_vars(Prefix(Y, Literal((X,)), STOP)) == {X}

    @pytest.mark.parametrize("kind", [0, 1], ids=["term", "set"])
    def test_every_node_agrees_with_walk_oracle(self, kind, corpus_nodes):
        nodes = corpus_nodes[kind]
        assert any(free_vars(n) for n in nodes)
        for node in nodes:
            assert free_vars(node) == free_vars_by_walk(node), node
            if kind == 0:
                assert is_closed(node) == (not free_vars_by_walk(node))
