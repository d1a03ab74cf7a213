"""Online monitor: verdicts must track membership in the trace set."""

import gc
import random
import tracemalloc
import weakref

import pytest

from cspmon import sos
from cspmon.conformance import GenConfig, gen_terms
from cspmon.errors import OutOfAlphabetError, ResidualOverflowError
from cspmon.monitor import Verdict, feed, feed_all, init_monitor, verdict_of
from cspmon.sos import STEP_MEMO_SIZE, _key, ac_classes, advance, engine, run, tau_closure
from cspmon.syntax import parse_spec, parse_term
from cspmon.terms import (
    Choice,
    EventVar,
    FAIL,
    FullAlphabet,
    Literal,
    Parallel,
    Prefix,
    STOP,
    is_closed,
    is_doomed,
    literal,
    prefix_depth,
)
from cspmon.traces import semantics

X = EventVar("x")
SYNCS = (Literal(()), literal("a"), FullAlphabet())


def _subterms(term):
    yield term
    if isinstance(term, Prefix):
        yield from _subterms(term.body)
    elif isinstance(term, (Choice, Parallel)):
        yield from _subterms(term.left)
        yield from _subterms(term.right)


def _run_operands(term, kind, sync=None):
    """The operands of the run of ``kind`` nodes (on ``sync``) at ``term``."""
    if isinstance(term, kind) and (sync is None or term.sync is sync):
        return _run_operands(term.left, kind, sync) + _run_operands(term.right, kind, sync)
    return [term]


def _reassociate(rng, operands, join):
    """A random binary tree over ``operands``, in their order."""
    if len(operands) == 1:
        return operands[0]
    cut = rng.randint(1, len(operands) - 1)
    return join(_reassociate(rng, operands[:cut], join), _reassociate(rng, operands[cut:], join))


class TestInitMonitor:
    def test_stop_is_running(self, ab):
        state = init_monitor(STOP, ab)
        assert verdict_of(state) is Verdict.RUNNING
        assert state.residuals == {STOP}
        assert state.alphabet == ab and state.engine is engine(ab)

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

    def test_long_stream_after_failure_runs_in_bounded_memory(self, ab):
        failed = feed(init_monitor(STOP, ab), "a")
        events = ["a", "b"] * 50_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = feed_all(failed, events)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000
        assert state is failed
        assert all(feed(failed, e) is failed for e in ("a", "b"))

    def test_out_of_alphabet_raises(self, ab):
        with pytest.raises(OutOfAlphabetError):
            feed(init_monitor(STOP, ab), "zz")

    def test_residual_cap_overflow(self, ab, monkeypatch):
        term = parse_term(
            "?x:{a} -> STOP [] ?x:{a} -> FAIL [] ?x:{a} -> ?y:{b} -> STOP", ab
        )
        monkeypatch.setattr(sos, "RESIDUAL_CAP", 1)
        state = init_monitor(term, ab)
        state.engine.step.cache_clear()
        for _ in range(2):  # the over-cap step raises again, never memoized
            with pytest.raises(ResidualOverflowError):
                feed(state, "a")
        assert state.engine.step.cache_info().currsize == 0


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
        # Every surviving viable residual must be reachable by the fed trace
        # in the transition engine.
        for term in gen_terms(GenConfig(max_size=9, alphabet=abc, seed=52), 100):
            state = init_monitor(term, abc)
            fed = []
            for e in ("a", "b"):
                state = feed(state, e)
                fed.append(e)
                if verdict_of(state) is Verdict.FAILED:
                    break
                reachable = run(term, tuple(fed), abc)
                for r in state.residuals:
                    assert r in reachable

    # On ``a``, the tau successor ``FAIL [] ?y:{b} -> STOP`` of one residual
    # may be absent: its class is held by ``?y:{b} -> STOP [] FAIL``.
    TAU_SUCCESSOR_IN_ANOTHER_FORM = (
        "?x:{a} -> ((FAIL |[{}]| STOP) [] ?y:{b} -> STOP) "
        "[] ?x:{a} -> (?y:{b} -> STOP [] FAIL)"
    )

    def test_state_is_its_viable_residuals(self, abc):
        rng = random.Random(78)
        events = sorted(abc)
        cases = [(parse_term(self.TAU_SUCCESSOR_IN_ANOTHER_FORM, abc), ["a"])]
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=53), 200):
            cases.append((term, [rng.choice(events) for _ in range(rng.randint(1, 5))]))
        for term, trace in cases:
            states = [init_monitor(term, abc)]
            for event in trace:
                states.append(feed(states[-1], event))
            for state in states:
                assert (verdict_of(state) is Verdict.RUNNING) == bool(state.residuals)
                classes = {_key(s) for s in state.residuals}
                for r in state.residuals:
                    assert not is_doomed(r)
                    assert {_key(t) for t in tau_closure(r, abc)} <= classes


class TestACClasses:
    def test_ac_laws_keep_the_class(self, abc):
        rng = random.Random(79)
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=54), 1_000):
            for sub in _subterms(term):
                if not is_closed(sub):
                    continue
                if isinstance(sub, Choice):
                    operands = _run_operands(sub, Choice)
                    operands.append(rng.choice(operands))
                    join = Choice
                elif isinstance(sub, Parallel):
                    operands = _run_operands(sub, Parallel, sub.sync)
                    join = lambda left, right, sync=sub.sync: Parallel(left, sync, right)
                else:
                    continue
                rng.shuffle(operands)
                variant = _reassociate(rng, operands, join)
                k = prefix_depth(sub) + 1
                assert _key(variant) == _key(sub), f"{sub} vs {variant}"
                assert is_doomed(variant) == is_doomed(sub)
                assert semantics(variant, k, abc) == semantics(sub, k, abc), f"{sub} vs {variant}"

    def test_equal_keys_mean_equal_traces(self, abc):
        # Next to each closed parallel, the terms a key that forgot its sync
        # or an inner node's, or that counted operands as a set, would merge
        # with it or with each other.
        classes = {}
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=55), 1_000):
            for sub in _subterms(term):
                if not is_closed(sub):
                    continue
                pool = [sub]
                if isinstance(sub, Parallel):
                    pool.append(Parallel(sub, sub.sync, sub.right))
                    for sync in SYNCS:
                        pool.append(Parallel(sub.left, sync, sub.right))
                        pool.append(Parallel(Parallel(sub.left, sync, sub.right), sub.sync, sub.left))
                for member in pool:
                    classes.setdefault(_key(member), set()).add(member)
        merged = 0
        for members in classes.values():
            k = max(prefix_depth(m) for m in members) + 1
            first, *rest = members
            for other in rest:
                merged += 1
                assert is_doomed(other) == is_doomed(first)
                assert semantics(other, k, abc) == semantics(first, k, abc), f"{first} vs {other}"
        assert merged > 0


class TestColdStep:
    # ``[]`` is idempotent only up to traces once a side has tau-stepped: on
    # ``a`` the step may keep fewer residuals than ac_classes(advance(...)),
    # depending on which AC-equal target comes first, but never other traces.
    X = "((FAIL |[{}]| STOP) [] ?y:{b} -> STOP)"
    IDEMPOTENT_UP_TO_TRACES = (
        f"?x:{{a}} -> (({X} [] {X}) [] ?z:{{b}} -> STOP) [] ?x:{{a}} -> ({X} [] ?z:{{b}} -> STOP)"
    )

    def test_agrees_with_the_closed_advance(self, abc):
        rng = random.Random(81)
        events = sorted(abc)
        held = engine(abc)
        cases = [(parse_term(self.IDEMPOTENT_UP_TO_TRACES, abc), ["a", "b"])]
        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=20240), 1_000):
            cases.append((term, [rng.choice(events) for _ in range(rng.randint(1, 5))]))

        def traces(residuals, k):
            out = set()
            for r in residuals:
                out |= semantics(r, k, abc).traces
            return out

        steps = 0
        for term, trace in cases:
            k = prefix_depth(term)
            residuals = init_monitor(term, abc).residuals
            for event in trace:
                if not residuals:
                    break
                reached = held.step(residuals, event)
                expected = ac_classes(advance(residuals, event, abc))
                assert bool(reached) == bool(expected), f"term={term} event={event}"
                assert traces(reached, k) == traces(expected, k), f"term={term} event={event}"
                residuals = reached
                steps += 1
        assert steps > 900


class TestStepMemo:
    def test_warm_and_cold_agree(self, abc):
        rng = random.Random(80)
        events = sorted(abc)
        cases = [
            (term, [rng.choice(events) for _ in range(rng.randint(1, 5))])
            for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=56), 200)
        ]

        def outcomes():
            out = []
            for term, trace in cases:
                state = feed_all(init_monitor(term, abc), trace)
                out.append((verdict_of(state), {_key(r) for r in state.residuals}))
            return out

        cold = outcomes()
        assert outcomes() == cold  # warm
        engine(abc).step.cache_clear()
        assert outcomes() == cold

    def test_memo_is_bounded(self, ab):
        assert engine(ab).step.cache_info().maxsize == STEP_MEMO_SIZE

    def test_warm_feed_takes_no_cold_step(self, ab, monkeypatch):
        state = init_monitor(parse_term("?x:{a,b} -> ?y:{b} -> STOP", ab), ab)
        feed(state, "a")

        def unreachable(*args):
            raise AssertionError("a cold step taken on a warm step memo")

        # A cold step calls ac_classes at least once.
        monkeypatch.setattr(sos, "ac_classes", unreachable)
        hits = state.engine.step.cache_info().hits
        assert verdict_of(feed(state, "a")) is Verdict.RUNNING
        assert state.engine.step.cache_info().hits == hits + 1

    def test_source_mutant_reaches_a_warm_memo(self, ab, source_mutant):
        state = init_monitor(parse_term("?x:{a} -> STOP", ab), ab)
        assert verdict_of(feed(state, "a")) is Verdict.RUNNING
        prefix_steps = "out.append((e, substitute(Event(e), term.var, term.body)))"
        with source_mutant(sos, "_successors", (prefix_steps, "pass")):
            assert verdict_of(feed(state, "a")) is Verdict.FAILED
        assert verdict_of(feed(state, "a")) is Verdict.RUNNING


class TestEngineLifetime:
    def test_dropped_states_free_their_engine(self):
        # Another alphabet's engine, held throughout, becomes the one engine()
        # keeps alive, so that the spec's engine is held by its states alone.
        other = engine(frozenset({"lifetime_other"}))
        gc.collect()
        before = sos.internal_successors.cache_info().currsize
        depth = STEP_MEMO_SIZE + 100
        chain = "STOP"
        for _ in range(depth):
            chain = f"?x:{{lifetime_a}} -> {chain}"
        spec = parse_spec("alphabet {lifetime_a} process " + chain)
        state = feed_all(init_monitor(spec.root, spec.alphabet), ["lifetime_a"] * depth)
        assert verdict_of(state) is Verdict.RUNNING
        assert sos.internal_successors.cache_info().currsize > before
        # A step memo entry per event, but only the most recent ones kept.
        assert state.engine.step.cache_info().currsize == STEP_MEMO_SIZE
        freed = weakref.ref(state.engine)
        del state
        assert engine(other.alphabet) is other
        gc.collect()
        assert freed() is None
        assert sos.internal_successors.cache_info().currsize == before

    def test_statistics_outlive_the_engine(self):
        misses = sos.tau_closure.cache_info().misses
        init_monitor(parse_term("?x:{lifetime_b} -> STOP", frozenset({"lifetime_b"})),
                     frozenset({"lifetime_b"}))
        engine(frozenset({"lifetime_other"}))
        gc.collect()
        assert sos.tau_closure.cache_info().misses == misses + 1


def _interleave_spec(a, b, chains, depth):
    """As perfbench's ``interleave_spec`` builds it."""
    chain = "STOP"
    for _ in range(depth):
        chain = f"(?x:{{{a},{b}}} -> {chain} [] ?x:{{{b}}} -> FAIL)"
    return parse_spec(f"alphabet {{{a},{b}}} process " + " |[{}]| ".join([chain] * chains))


class TestStateExplosion:
    def test_six_chain_interleaving_stays_small(self):
        spec = _interleave_spec("a", "b", 6, 5)
        state = init_monitor(spec.root, spec.alphabet)
        sizes = [len(state.residuals)]
        for i in range(30):
            state = feed(state, "ab"[i % 2])
            sizes.append(len(state.residuals))
        assert verdict_of(state) is Verdict.RUNNING
        assert verdict_of(feed(state, "a")) is Verdict.FAILED
        assert max(sizes) <= 40

    def test_cold_steps_close_no_doomed_target(self, monkeypatch):
        # The engine binds _tau_closure when it is built: patched first, and
        # with event names no other test uses, so that the engine is new.
        closed = []
        stock = sos._tau_closure

        def recording(eng, term):
            closed.append(term)
            return stock(eng, term)

        monkeypatch.setattr(sos, "_tau_closure", recording)
        misses = sos.tau_closure.cache_info().misses
        spec = _interleave_spec("explode_a", "explode_b", 6, 5)
        events = [("explode_a", "explode_b")[i % 2] for i in range(32)]
        # RUNNING for chains * depth events, FAILED from the next one on.
        expected = [Verdict.RUNNING] * 30 + [Verdict.FAILED] * 2
        state = init_monitor(spec.root, spec.alphabet)
        for event, want in zip(events, expected):
            state = feed(state, event)
            assert verdict_of(state) is want
        grown = sos.tau_closure.cache_info().misses - misses
        assert len(closed) == grown > 0
        assert not any(is_doomed(term) for term in closed)
        assert grown <= 500
