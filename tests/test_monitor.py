"""Online monitor: verdicts must track membership in the trace set."""

import random

import pytest

from cspmon import monitor
from cspmon.conformance import GenConfig, gen_terms
from cspmon.errors import OutOfAlphabetError, ResidualOverflowError
from cspmon.monitor import Verdict, feed, feed_all, init_monitor, verdict_of
from cspmon.sos import run, tau_closure
from cspmon.syntax import parse_term
from cspmon.terms import (
    EventVar,
    FAIL,
    Literal,
    Parallel,
    Prefix,
    STOP,
    is_doomed,
    prefix_depth,
)
from cspmon.traces import semantics

X = EventVar("x")


class TestInitMonitor:
    def test_stop_is_running(self, ab):
        state = init_monitor(STOP, ab)
        assert verdict_of(state) is Verdict.RUNNING
        assert state.residuals == {STOP}

    def test_fail_starts_failed(self, ab):
        assert verdict_of(init_monitor(FAIL, ab)) is Verdict.FAILED

    def test_doomed_parallel_starts_failed(self, ab):
        term = Parallel(FAIL, Literal(()), STOP)
        assert verdict_of(init_monitor(term, ab)) is Verdict.FAILED


class TestFeed:
    def test_prefix_then_stop(self, ab):
        term = parse_term("?x:{a,b} -> STOP", ab)
        state = feed(init_monitor(term, ab), "a")
        assert verdict_of(state) is Verdict.RUNNING
        assert state.residuals == {STOP}

    def test_prefix_into_fail(self, ab):
        term = parse_term("?x:{a,b} -> FAIL", ab)
        state = feed(init_monitor(term, ab), "a")
        assert verdict_of(state) is Verdict.FAILED

    def test_viable_branch_survives(self, ab):
        term = parse_term("?x:{a} -> ?y:{b} -> STOP [] ?x:{a} -> FAIL", ab)
        state = feed_all(init_monitor(term, ab), ("a", "b"))
        assert verdict_of(state) is Verdict.RUNNING

    def test_stop_rejects_any_event(self, ab):
        assert verdict_of(feed(init_monitor(STOP, ab), "a")) is Verdict.FAILED

    def test_failed_is_absorbing(self, ab):
        state = feed(init_monitor(STOP, ab), "a")
        for e in ("a", "b", "a"):
            state = feed(state, e)
            assert verdict_of(state) is Verdict.FAILED
        assert state.consumed == ("a", "a", "b", "a")

    def test_consumed_of_two_branches_from_one_state(self, ab):
        term = parse_term("?x:{a,b} -> ?y:{a,b} -> STOP", ab)
        state = feed(init_monitor(term, ab), "a")
        via_a, via_b = feed(state, "a"), feed(state, "b")
        assert state.consumed == ("a",)
        assert via_a.consumed == ("a", "a")
        assert via_b.consumed == ("a", "b")
        assert init_monitor(term, ab).consumed == ()

    def test_long_stream_after_failure(self, ab):
        state = feed_all(init_monitor(STOP, ab), ["a", "b"] * 50_000)
        assert verdict_of(state) is Verdict.FAILED
        assert len(state.consumed) == 100_000
        assert state.consumed[-3:] == ("b", "a", "b")
        assert "trail" not in repr(state)

    def test_out_of_alphabet_raises(self, ab):
        with pytest.raises(OutOfAlphabetError):
            feed(init_monitor(STOP, ab), "zz")

    def test_strict_mode_fails_instead(self, ab):
        state = init_monitor(STOP, ab, strict=True)
        assert verdict_of(feed(state, "zz")) is Verdict.FAILED

    def test_residual_cap_overflow(self, ab, monkeypatch):
        term = parse_term(
            "?x:{a} -> STOP [] ?x:{a} -> FAIL [] ?x:{a} -> ?y:{b} -> STOP", ab
        )
        monkeypatch.setattr(monitor, "RESIDUAL_CAP", 1)
        state = init_monitor(term, ab)
        with pytest.raises(ResidualOverflowError):
            feed(state, "a")


class TestVerdictCorrectness:
    def test_matches_trace_set_membership(self, abc):
        rng = random.Random(77)
        events = sorted(abc)
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=51), 300):
            k = max(prefix_depth(term), 1)
            sem = semantics(term, k, abc).traces
            candidates = [tuple(rng.choice(events) for _ in range(rng.randint(0, k)))]
            candidates += list(sem)[:5]
            for trace in candidates:
                state = feed_all(init_monitor(term, abc), trace)
                expected = trace in sem
                assert (verdict_of(state) is Verdict.RUNNING) == expected, (
                    f"term={term} trace={trace}"
                )

    def test_residuals_replay_through_run(self, abc):
        # Every surviving viable residual must be reachable by the consumed
        # trace in the transition engine.
        for term in gen_terms(GenConfig(max_size=9, alphabet=abc, seed=52), 100):
            state = init_monitor(term, abc)
            for e in ("a", "b"):
                state = feed(state, e)
                if verdict_of(state) is Verdict.FAILED:
                    break
                reachable = run(term, state.consumed, abc)
                for r in state.residuals:
                    assert r in reachable

    def test_state_is_its_viable_residuals(self, abc):
        rng = random.Random(78)
        events = sorted(abc)
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=53), 200):
            states = [init_monitor(term, abc)]
            for _ in range(rng.randint(1, 5)):
                states.append(feed(states[-1], rng.choice(events)))
            for state in states:
                assert (verdict_of(state) is Verdict.RUNNING) == bool(state.residuals)
                for r in state.residuals:
                    assert not is_doomed(r)
                    assert tau_closure(r, abc) <= state.residuals
