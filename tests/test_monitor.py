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
from cspmon.sos import _key, ac_classes, engine, run, visible_successors
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


def _traces(terms, k, alphabet):
    """The union of the terms' trace sets up to length ``k``."""
    out = set()
    for term in terms:
        out |= semantics(term, k, alphabet).traces
    return out


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
        assert failed._next == {}

    def test_out_of_alphabet_raises(self, ab):
        with pytest.raises(OutOfAlphabetError):
            feed(init_monitor(STOP, ab), "zz")

    def test_residual_cap_overflow(self, ab, monkeypatch):
        term = parse_term(
            "?x:{a} -> STOP [] ?x:{a} -> FAIL [] ?x:{a} -> ?y:{b} -> STOP", ab
        )
        monkeypatch.setattr(sos, "RESIDUAL_CAP", 1)
        state = init_monitor(term, ab)
        sos._flush(state.engine)
        table = dict(state.engine.states)
        for _ in range(2):  # the over-cap step raises again, never stored
            with pytest.raises(ResidualOverflowError):
                feed(state, "a")
        assert state._next == {}
        assert state.engine.states == table


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

    # On ``a``, ``run`` also reaches ``FAIL [] ?y:{b} -> STOP``, a tau
    # successor of one target, which the monitor does not keep: a state is
    # not tau-closed, only trace-equal to the states ``run`` reaches.
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
            k = prefix_depth(term)
            state = init_monitor(term, abc)
            for i in range(len(trace) + 1):
                if i:
                    state = feed(state, trace[i - 1])
                assert (verdict_of(state) is Verdict.RUNNING) == bool(state.residuals)
                assert not any(is_doomed(r) for r in state.residuals)
                reached = run(term, tuple(trace[:i]), abc)
                held = _traces(state.residuals, k, abc)
                assert held == _traces(reached, k, abc), f"term={term} trace={trace[:i]}"


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
    # ``a`` the step may keep fewer residuals than the AC classes of the
    # residuals' tau-closed visible successors, depending on which AC-equal
    # target comes first, but never other traces.
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

        steps = 0
        for term, trace in cases:
            k = prefix_depth(term)
            residuals = init_monitor(term, abc).residuals
            for event in trace:
                if not residuals:
                    break
                reached = sos._step(held, residuals, event)
                expected = ac_classes(
                    frozenset().union(*[visible_successors(r, event, abc) for r in residuals])
                )
                assert bool(reached) == bool(expected), f"term={term} event={event}"
                same = _traces(reached, k, abc) == _traces(expected, k, abc)
                assert same, f"term={term} event={event}"
                residuals = reached
                steps += 1
        assert steps > 900


def _edges(state):
    """The number of edges stored in the DFA reachable from ``state``."""
    seen = {state}
    stack = [state]
    count = 0
    while stack:
        node = stack.pop()
        count += len(node._next)
        for target in node._next.values():
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return count


def _sessions_spec(names, sync, rounds):
    """As perfbench's ``sessions_spec`` builds it."""
    comps = []
    for e in names:
        body = "STOP"
        for _ in range(rounds):
            body = f"?x:{{{e}}} -> ?y:{{{sync}}} -> {body}"
        comps.append(f"({body})")
    alphabet = ",".join(names + [sync])
    return parse_spec(f"alphabet {{{alphabet}}} process " + f" |[{{{sync}}}]| ".join(comps))


class TestStepMemo:
    def test_warm_and_cold_agree(self, abc):
        rng = random.Random(80)
        events = sorted(abc)
        cases = [
            (term, [rng.choice(events) for _ in range(rng.randint(1, 5))])
            for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=56), 200)
        ]
        # Held, so that the edges fed from them stay for the warm pass.
        starts = [init_monitor(term, abc) for term, _ in cases]

        def outcomes():
            out = []
            for start, (_, trace) in zip(starts, cases):
                state = feed_all(start, trace)
                out.append((verdict_of(state), {_key(r) for r in state.residuals}))
            return out

        cold = outcomes()
        assert sum(map(_edges, starts)) > 0
        assert outcomes() == cold  # warm
        sos._flush(engine(abc))
        assert all(start._next == {} for start in starts)
        assert outcomes() == cold

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(sos, "EDGE_CAP", 8)
        chain = "STOP"
        for _ in range(30):
            chain = f"?x:{{bounded_a}} -> {chain}"
        spec = parse_spec("alphabet {bounded_a} process " + chain)
        start = init_monitor(spec.root, spec.alphabet)
        state = start
        for _ in range(30):
            state = feed(state, "bounded_a")
            assert _edges(start) <= 8 and 0 <= start.engine.room <= 8
        assert verdict_of(state) is Verdict.RUNNING
        assert verdict_of(feed(state, "bounded_a")) is Verdict.FAILED

    def test_warm_feed_takes_no_cold_step(self, ab, monkeypatch):
        state = init_monitor(parse_term("?x:{a,b} -> ?y:{b} -> STOP", ab), ab)
        first = feed_all(state, ["a", "b"])

        def unreachable(*args):
            raise AssertionError("a cold step taken on a warm edge")

        monkeypatch.setattr(sos, "_step", unreachable)
        assert feed_all(state, ["a", "b"]) is first
        assert verdict_of(first) is Verdict.RUNNING
        assert state._next["a"]._next["b"] is first

    def test_no_edge_for_an_event_outside_the_alphabet_or_from_failed(self, ab):
        state = init_monitor(parse_term("?x:{a} -> STOP", ab), ab)
        failed = feed(state, "b")
        for held in (state, failed):
            for _ in range(2):
                with pytest.raises(OutOfAlphabetError):
                    feed(held, "zz")
        assert feed(failed, "a") is failed
        assert list(state._next) == ["b"]
        assert failed._next == {}

    def test_source_mutant_reaches_a_warm_memo(self, ab, source_mutant):
        state = init_monitor(parse_term("?x:{a} -> STOP", ab), ab)
        assert verdict_of(feed(state, "a")) is Verdict.RUNNING
        prefix_steps = "out.append((e, substitute(Event(e), term.var, term.body)))"
        with source_mutant(sos, "_successors", (prefix_steps, "pass")):
            assert verdict_of(feed(state, "a")) is Verdict.FAILED
        assert verdict_of(feed(state, "a")) is Verdict.RUNNING


class TestEdgeCap:
    def _verdicts(self, monkeypatch, cap, tag):
        """Verdicts of a 6x5 interleave session and of 12 interleaved
        sessions on a sessions-shaped spec, on a fresh engine under ``cap``.

        Every flush is checked to leave only live states in the table.
        """
        monkeypatch.setattr(sos, "EDGE_CAP", cap)
        stock = sos._flush
        flushes = []

        def checked(eng):
            stock(eng)
            flushes.append(eng)
            assert all(ref() is not None for ref in eng.states.values())

        monkeypatch.setattr(sos, "_flush", checked)
        out = []
        a, b = f"cap{tag}_a", f"cap{tag}_b"
        spec = _interleave_spec(a, b, 6, 5)
        state = init_monitor(spec.root, spec.alphabet)
        for i in range(32):
            state = feed(state, (a, b)[i % 2])
            out.append(verdict_of(state))
        names = [f"cap{tag}_e{i}" for i in range(3)]
        sync = f"cap{tag}_s"
        spec = _sessions_spec(names, sync, 4)
        rng = random.Random(82)
        sessions = [init_monitor(spec.root, spec.alphabet) for _ in range(12)]
        for _ in range(20):
            for i, session in enumerate(sessions):
                sessions[i] = feed(session, rng.choice(names + [sync] * 2))
                out.append(verdict_of(sessions[i]))
        return out, len(flushes)

    def test_a_small_cap_gives_the_same_verdicts(self, monkeypatch):
        default, _ = self._verdicts(monkeypatch, sos.EDGE_CAP, "default")
        small, flushes = self._verdicts(monkeypatch, 8, "small")
        assert small == default
        assert Verdict.RUNNING in default and Verdict.FAILED in default
        assert flushes >= 2


class TestEngineLifetime:
    def test_dropped_states_free_their_engine(self):
        # Another alphabet's engine, held throughout, becomes the one engine()
        # keeps alive, so that the spec's engine is held by its states alone.
        other = engine(frozenset({"lifetime_other"}))
        gc.collect()
        before = sos.internal_successors.cache_info().currsize
        depth = 200
        chain = "STOP"
        for _ in range(depth):
            chain = f"?x:{{lifetime_a}} -> {chain}"
        spec = parse_spec("alphabet {lifetime_a} process " + chain)
        start = init_monitor(spec.root, spec.alphabet)
        state = feed_all(start, ["lifetime_a"] * depth)
        assert verdict_of(state) is Verdict.RUNNING
        assert sos.internal_successors.cache_info().currsize > before
        # A state per event, each reached by an edge of the one before it.
        assert len(state.engine.states) == depth + 1
        assert _edges(start) == depth
        freed = weakref.ref(state.engine)
        del state, start
        assert engine(other.alphabet) is other
        gc.collect()
        assert freed() is None
        assert sos.internal_successors.cache_info().currsize == before

    def test_engine_is_in_no_reference_cycle(self):
        other = engine(frozenset({"cycle_other"}))
        spec = _interleave_spec("cycle_a", "cycle_b", 3, 3)
        gc.collect()
        gc.disable()
        try:
            start = init_monitor(spec.root, spec.alphabet)
            state = feed_all(start, ["cycle_a", "cycle_b"] * 5)
            assert verdict_of(state) is Verdict.FAILED
            freed = weakref.ref(state.engine)
            assert engine(other.alphabet) is other
            del state, start
            assert freed() is None
        finally:
            gc.enable()

    def test_statistics_outlive_the_engine(self):
        alphabet = frozenset({"lifetime_b"})
        misses = sos.internal_successors.cache_info().misses
        state = init_monitor(parse_term("?x:{lifetime_b} -> STOP", alphabet), alphabet)
        assert verdict_of(feed(state, "lifetime_b")) is Verdict.RUNNING
        freed = weakref.ref(state.engine)
        del state
        engine(frozenset({"lifetime_other"}))
        gc.collect()
        assert freed() is None
        assert sos.internal_successors.cache_info().misses == misses + 1


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
        # A monitor step takes no tau step, so the monitor closes nothing.
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
        assert closed == []
        assert sos.tau_closure.cache_info().misses == misses
