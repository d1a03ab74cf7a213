"""Transition engine: successor enumeration, tau closure, visible runs."""

import random

import pytest

from cspmon import sos, traces
from cspmon.conformance import GenConfig, gen_terms, run_suite
from cspmon.errors import OpenTermError
from cspmon.sos import (
    TAU,
    internal_successors,
    reachable_transitions,
    run,
    tau_closure,
    visible_successors,
)
from cspmon.terms import (
    Choice,
    EventVar,
    FAIL,
    FullAlphabet,
    Literal,
    Parallel,
    Prefix,
    STOP,
    SetDifference,
    is_doomed,
    term_size,
)
from conftest import interleave_spec, literal

X, Y = EventVar("x"), EventVar("y")
EMPTY = Literal(())
# Both viability side conditions of the parallel rules dropped.
NO_VIABILITY = (("if not right_doomed:", "if True:"), ("if not left_doomed:", "if True:"))


class TestInternalSuccessors:
    def test_prefix_branches_over_its_set(self, ab):
        term = Prefix(X, literal("a", "b"), STOP)
        assert internal_successors(term, ab) == {
            ("a", STOP),
            ("b", STOP),
        }

    def test_fail_blocks_sibling_and_propagates(self, ab):
        # The prefix operand may not act: its sibling is doomed.
        term = Parallel(FAIL, EMPTY, Prefix(X, literal("a"), STOP))
        assert internal_successors(term, ab) == {(TAU, FAIL)}

    def test_stop_and_fail_are_stuck(self, ab):
        assert internal_successors(STOP, ab) == frozenset()
        assert internal_successors(FAIL, ab) == frozenset()

    def test_choice_with_bare_fail_branch(self, ab):
        # FAIL alone has no step and the double-FAIL rule does not apply, so
        # only the viable branch contributes.
        term = Choice(FAIL, Prefix(X, literal("a"), STOP))
        assert internal_successors(term, ab) == {("a", STOP)}

    def test_double_fail_choice(self, ab):
        assert internal_successors(Choice(FAIL, FAIL), ab) == {(TAU, FAIL)}

    def test_synchronization_requires_both_sides(self, ab):
        term = Parallel(
            Prefix(X, literal("a"), STOP),
            literal("a"),
            Prefix(Y, literal("a", "b"), STOP),
        )
        assert internal_successors(term, ab) == {
            ("a", Parallel(STOP, literal("a"), STOP)),
            ("b", Parallel(Prefix(X, literal("a"), STOP), literal("a"), STOP)),
        }

    def test_a_sync_chain_lists_each_target_once(self, ab):
        # Both branches of every component step to STOP on ``a``.  Were the
        # target listed twice, the sync rule would build 2**12 copies of it.
        component = Choice(Prefix(X, literal("a"), STOP), Prefix(Y, literal("a"), STOP))
        term = component
        for _ in range(11):
            term = Parallel(term, literal("a"), component)
        assert len(sos.engine(ab).internal_successors(term, "a")) == 1

    def test_open_term_rejected(self, ab):
        with pytest.raises(OpenTermError):
            internal_successors(Prefix(Y, Literal((X,)), STOP), ab)

    def test_deep_open_term_names_its_free_variables(self, ab):
        # Naming the term itself would recurse once per node.
        term = Choice(Prefix(X, Literal((Y,)), STOP), Prefix(Y, Literal((X,)), STOP))
        for _ in range(2_000):
            term = Choice(term, STOP)
        with pytest.raises(OpenTermError, match=r"free variables: x, y$"):
            internal_successors(term, ab)


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

    def test_no_step_on_an_event_outside_the_alphabet(self, ab):
        # Sigma, and a literal naming the event, range over the alphabet only.
        for events in (FullAlphabet(), SetDifference(FullAlphabet(), literal("a")), literal("z")):
            term = Prefix(X, events, STOP)
            assert visible_successors(term, "z", ab) == frozenset()
            assert run(term, ("z",), ab) == frozenset()


class TestRun:
    def test_empty_trace_is_tau_closure(self, ab):
        assert run(STOP, (), ab) == {STOP}

    def test_prefix_into_fail(self, ab):
        assert run(Prefix(X, literal("a", "b"), FAIL), ("a",), ab) == {FAIL}

    def test_stop_emits_nothing(self, ab):
        assert run(Prefix(X, literal("a"), STOP), ("a", "b"), ab) == frozenset()

    def test_run_unions_visible_successors(self, ab):
        left = Prefix(X, literal("a"), STOP)
        right = Prefix(X, literal("a", "b"), FAIL)
        term = Choice(left, right)
        for event in ("a", "b"):
            expected = visible_successors(left, event, ab) | visible_successors(right, event, ab)
            assert run(term, (event,), ab) == visible_successors(term, event, ab) == expected
        assert run(term, ("a",), ab) == {STOP, FAIL}
        assert run(term, ("b",), ab) == {FAIL}
        assert run(term, ("b", "a"), ab) == frozenset()


class TestTermMemos:
    def test_every_memo_is_bounded(self, monkeypatch):
        # Event names no other test uses, so that the engine is new and
        # built under the patched size.  The two process-wide memos were
        # built at import, under their own bound.
        stock = sos.engine(frozenset({"stock_a"})).internal_successors.cache_info()
        assert stock.maxsize == sos.TERM_MEMO_SIZE
        monkeypatch.setattr(sos, "TERM_MEMO_SIZE", 64)
        alphabet = frozenset({"bound_a", "bound_b", "bound_c"})
        held = sos.engine(alphabet)
        terms = list(gen_terms(GenConfig(max_size=8, alphabet=alphabet, seed=45), 300))
        reports = run_suite(terms, alphabet)
        assert reports and all(report.passed for report in reports)
        info = held.internal_successors.cache_info()
        assert info.maxsize == 64 and 0 < info.currsize <= 64
        for memo in (sos.tau_closure, sos.visible_successors):
            info = memo.cache_info()
            assert info.maxsize == sos.CLOSURE_MEMO_SIZE, memo
            assert 0 < info.currsize <= sos.CLOSURE_MEMO_SIZE, memo


class TestClosureMemoEviction:
    """Both closure memos filled past their bound: whatever they evicted and
    built again, a warm result is the one a cold memo gives."""

    @staticmethod
    def _misses():
        return [memo.cache_info().misses for memo in (tau_closure, visible_successors)]

    def _assert_evicted(self, before):
        for was, now in zip(before, self._misses()):
            assert now - was > sos.CLOSURE_MEMO_SIZE

    @staticmethod
    def _cold(compute):
        tau_closure.cache_clear()
        visible_successors.cache_clear()
        return compute()

    def test_generated_pairs(self, abc):
        pairs = [
            (term, event)
            for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=46), 1500)
            for event in sorted(abc)
        ]
        random.Random(46).shuffle(pairs)
        before = self._misses()
        warm = [(tau_closure(t, abc), visible_successors(t, e, abc)) for t, e in pairs]
        self._assert_evicted(before)
        for (term, event), got in zip(pairs, warm):
            cold = self._cold(lambda: (tau_closure(term, abc), visible_successors(term, event, abc)))
            assert cold == got, (term, event)

    def test_run(self):
        spec = interleave_spec("a", "b", 4, 4)
        trace = tuple("abababababab")
        before = self._misses()
        warm = [run(spec.root, trace[:n], spec.alphabet) for n in range(len(trace) + 1)]
        self._assert_evicted(before)
        for n, got in enumerate(warm):
            assert self._cold(lambda: run(spec.root, trace[:n], spec.alphabet)) == got, n


class TestInvariants:
    def test_tau_strictly_shrinks(self, abc):
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=41), 500):
            for state in tau_closure(term, abc):
                for action, target in internal_successors(state, abc):
                    if action is TAU:
                        assert term_size(target) < term_size(state)

    def test_tau_step_preserves_doomedness(self, abc):
        # So the tau closure of a viable term is entirely viable, which the
        # monitor relies on to keep only viable residuals.
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=44), 500):
            for source, action, target in reachable_transitions(term, abc):
                if action is TAU:
                    assert is_doomed(source) == is_doomed(target), (source, target)

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
                for action, target in succs:
                    assert action is TAU
                    assert is_doomed(target)
                    stack.append(target)

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
            if any(action is not TAU for action, _ in wide - tight):
                found_difference = True
            if is_doomed(term):
                assert all(action is TAU for action, _ in tight)
        assert found_difference


class TestSourceMutant:
    @pytest.mark.parametrize(
        "anchor, count", [("if never_there:", 0), ("if tau and left is FAIL", 2)]
    )
    def test_anchor_must_occur_exactly_once(self, source_mutant, anchor, count):
        with pytest.raises(ValueError, match=f"occurs {count} times"):
            with source_mutant(sos, "_successors", (anchor, "if True:")):
                pass
        assert sos._successors.__code__.co_filename == sos.__file__

    def test_no_cache_leak_past_the_block(self, ab, source_mutant):
        term = Parallel(FAIL, EMPTY, Prefix(X, literal("a"), STOP))
        assert internal_successors(term, ab) == {(TAU, FAIL)}
        with source_mutant(sos, "_successors", *NO_VIABILITY):
            inside = internal_successors(term, ab)
        assert ("a", Parallel(FAIL, EMPTY, STOP)) in inside
        assert internal_successors(term, ab) == {(TAU, FAIL)}

    def test_semantics_memo_does_not_serve_stock_results(self, ab, source_mutant):
        # The stock operator lets the empty operand empty the result; the
        # mutant does not.  The block must see the mutant's set, not the
        # memoized stock one, and the stock set again after it.
        term = Parallel(STOP, EMPTY, FAIL)
        assert traces.semantics(term, 1, ab).traces == frozenset()
        with source_mutant(traces, "_parcomp", ("if not s1 or not s2:", "if False:")):
            inside = traces.semantics(term, 1, ab).traces
        assert inside
        assert traces.semantics(term, 1, ab).traces == frozenset()
