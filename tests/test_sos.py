"""Transition engine: successor enumeration, tau closure, visible runs."""

import pytest

from cspmon import sos
from cspmon.conformance import GenConfig, gen_terms
from cspmon.errors import OpenTermError
from cspmon.sos import (
    TAU,
    Transition,
    internal_successors,
    run,
    tau_closure,
    visible_successors,
)
from cspmon.terms import (
    Choice,
    EventVar,
    FAIL,
    Literal,
    Parallel,
    Prefix,
    STOP,
    is_doomed,
    literal,
    term_size,
)

X, Y = EventVar("x"), EventVar("y")
EMPTY = Literal(())
# Both viability side conditions of the parallel rules dropped.
NO_VIABILITY = (("if not right_doomed:", "if True:"), ("if not left_doomed:", "if True:"))


def actions_and_targets(transitions):
    return {(t.action, t.target) for t in transitions}


class TestInternalSuccessors:
    def test_prefix_branches_over_its_set(self, ab):
        term = Prefix(X, literal("a", "b"), STOP)
        assert actions_and_targets(internal_successors(term, ab)) == {
            ("a", STOP),
            ("b", STOP),
        }

    def test_fail_blocks_sibling_and_propagates(self, ab):
        # The prefix operand may not act: its sibling is doomed.
        term = Parallel(FAIL, EMPTY, Prefix(X, literal("a"), STOP))
        assert actions_and_targets(internal_successors(term, ab)) == {(TAU, FAIL)}

    def test_stop_and_fail_are_stuck(self, ab):
        assert internal_successors(STOP, ab) == frozenset()
        assert internal_successors(FAIL, ab) == frozenset()

    def test_choice_with_bare_fail_branch(self, ab):
        # FAIL alone has no step and the double-FAIL rule does not apply, so
        # only the viable branch contributes.
        term = Choice(FAIL, Prefix(X, literal("a"), STOP))
        assert actions_and_targets(internal_successors(term, ab)) == {("a", STOP)}

    def test_double_fail_choice(self, ab):
        assert actions_and_targets(internal_successors(Choice(FAIL, FAIL), ab)) == {
            (TAU, FAIL)
        }

    def test_synchronization_requires_both_sides(self, ab):
        term = Parallel(
            Prefix(X, literal("a"), STOP),
            literal("a"),
            Prefix(Y, literal("a", "b"), STOP),
        )
        got = actions_and_targets(internal_successors(term, ab))
        assert got == {
            ("a", Parallel(STOP, literal("a"), STOP)),
            ("b", Parallel(Prefix(X, literal("a"), STOP), literal("a"), STOP)),
        }

    def test_open_term_rejected(self, ab):
        with pytest.raises(OpenTermError):
            internal_successors(Prefix(Y, Literal((X,)), STOP), ab)

    def test_enumeration_is_deterministic(self, abc):
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=31), 100):
            assert internal_successors(term, abc) == frozenset(
                Transition(t.source, t.action, t.target)
                for t in internal_successors(term, abc)
            )


class TestTauClosure:
    def test_reflexive(self, ab):
        assert tau_closure(STOP, ab) == {STOP}

    def test_fail_propagation(self, ab):
        term = Parallel(FAIL, EMPTY, STOP)
        assert tau_closure(term, ab) == {term, FAIL}

    def test_includes_intermediates(self, ab):
        inner = Parallel(FAIL, EMPTY, STOP)
        term = Choice(inner, FAIL)
        assert tau_closure(term, ab) == {term, Choice(FAIL, FAIL), FAIL}


class TestVisibleSuccessors:
    def test_prefix_fires(self, ab):
        term = Prefix(X, literal("a"), STOP)
        assert visible_successors(term, "a", ab) == {STOP}
        assert visible_successors(term, "b", ab) == frozenset()

    def test_both_choice_branches_fire(self, ab):
        term = Choice(
            Prefix(X, literal("a"), STOP), Prefix(X, literal("a"), FAIL)
        )
        assert visible_successors(term, "a", ab) == {STOP, FAIL}


class TestRun:
    def test_empty_trace_is_tau_closure(self, ab):
        assert run(STOP, (), ab) == {STOP}

    def test_prefix_into_fail(self, ab):
        assert run(Prefix(X, literal("a", "b"), FAIL), ("a",), ab) == {FAIL}

    def test_stop_emits_nothing(self, ab):
        assert run(Prefix(X, literal("a"), STOP), ("a", "b"), ab) == frozenset()


class TestInvariants:
    def test_tau_strictly_shrinks(self, abc):
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=41), 500):
            for state in tau_closure(term, abc):
                for t in internal_successors(state, abc):
                    if t.action is TAU:
                        assert term_size(t.target) < term_size(t.source)

    def test_doomed_stability_and_progress(self, abc):
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=42), 500):
            if not is_doomed(term):
                continue
            seen = set()
            stack = [term]
            while stack:
                state = stack.pop()
                if state in seen:
                    continue
                seen.add(state)
                succs = internal_successors(state, abc)
                if state != FAIL:
                    assert succs, f"doomed non-FAIL term is stuck: {state}"
                for t in succs:
                    assert t.action is TAU
                    assert is_doomed(t.target)
                    stack.append(t.target)

    def test_viability_blocking_vs_mutant(self, abc, source_mutant):
        # With the side-condition removed, a viable component next to a
        # doomed sibling regains visible steps; the stock engine must not
        # show any of those.
        terms = list(gen_terms(GenConfig(max_size=12, alphabet=abc, seed=43), 500))
        stock = [internal_successors(term, abc) for term in terms]
        with source_mutant(sos, "_successors", *NO_VIABILITY):
            loose = [internal_successors(term, abc) for term in terms]
        found_difference = False
        for term, tight, wide in zip(terms, stock, loose):
            assert tight <= wide
            if any(t.action is not TAU for t in wide - tight):
                found_difference = True
            if is_doomed(term):
                assert all(t.action is TAU for t in tight)
        assert found_difference


class TestSourceMutant:
    @pytest.mark.parametrize(
        "anchor, count", [("if never_there:", 0), ("for t in left_steps:", 2)]
    )
    def test_anchor_must_occur_exactly_once(self, source_mutant, anchor, count):
        with pytest.raises(ValueError, match=f"occurs {count} times"):
            with source_mutant(sos, "_successors", (anchor, "if True:")):
                pass
        assert sos._successors.__code__.co_filename == sos.__file__

    def test_no_cache_leak_past_the_block(self, ab, source_mutant):
        term = Parallel(FAIL, EMPTY, Prefix(X, literal("a"), STOP))
        assert actions_and_targets(internal_successors(term, ab)) == {(TAU, FAIL)}
        with source_mutant(sos, "_successors", *NO_VIABILITY):
            inside = actions_and_targets(internal_successors(term, ab))
        assert ("a", Parallel(FAIL, EMPTY, STOP)) in inside
        assert actions_and_targets(internal_successors(term, ab)) == {(TAU, FAIL)}
