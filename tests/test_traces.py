"""Denotational trace-set operations and the semantic map."""

import random

from cspmon.conformance import GenConfig, gen_terms
from cspmon.syntax import parse_term
from cspmon.terms import FAIL, STOP, EventVar, Prefix, prefix_depth
from cspmon.traces import (
    EPSILON,
    SEMANTICS_MEMO_SIZE,
    TraceSet,
    canonical_traces,
    derive,
    format_trace,
    parcomp,
    parse_trace,
    prepend_adjoin,
    semantics,
)
from conftest import gen_prefix_closed, literal, parcomp_bruteforce, prefix_closure


def ts(*traces):
    return TraceSet(frozenset(tuple(t) for t in traces))


class TestPrependAdjoin:
    def test_empty_still_adjoins_epsilon(self):
        assert prepend_adjoin("a", ts()).traces == {EPSILON}

    def test_singleton(self):
        assert prepend_adjoin("a", ts("")).traces == {(), ("a",)}

    def test_two_traces(self):
        got = prepend_adjoin("a", ts((), ("b",)))
        assert got.traces == {(), ("a",), ("a", "b")}


class TestDerive:
    def test_strips_leading_event(self):
        assert derive(ts((), ("a",), ("a", "b")), "a").traces == {(), ("b",)}

    def test_no_match(self):
        assert derive(ts((), ("b",)), "a").traces == frozenset()

    def test_empty(self):
        assert derive(ts(), "a").traces == frozenset()


class TestParcomp:
    def test_empty_operand_wins(self, ab):
        got = parcomp(ts(), frozenset("a"), ts(()), ab, 2)
        assert got.traces == frozenset()

    def test_synchronized_event(self):
        # Hand expansion: the synchronized branch is a(T1(a) || T2(a)) with
        # both derivatives {eps}, and a({eps} || {eps}) = {eps, a}.
        t1 = ts((), ("a",))
        got = parcomp(t1, frozenset("a"), t1, frozenset("a"), 2)
        assert got.traces == {(), ("a",)}

    def test_full_interleaving(self, ab):
        got = parcomp(ts((), ("a",)), frozenset(), ts((), ("b",)), ab, 3)
        assert got.traces == {(), ("a",), ("b",), ("a", "b"), ("b", "a")}

    def test_against_bruteforce_merge_oracle(self, ab):
        rng = random.Random(99)
        for _ in range(300):
            t1 = gen_prefix_closed(rng, ab, 3)
            t2 = gen_prefix_closed(rng, ab, 3)
            sync = frozenset(e for e in ab if rng.random() < 0.5)
            got = parcomp(t1, sync, t2, ab, 3)
            want = parcomp_bruteforce(t1.traces, sync, t2.traces, 3)
            assert got.traces == want


class TestSemantics:
    def test_stop(self, abc):
        assert semantics(STOP, 3, abc).traces == {()}

    def test_fail(self, abc):
        assert semantics(FAIL, 3, abc).traces == frozenset()

    def test_prefix_into_fail(self, ab):
        # {eps} union a(empty) union b(empty) = {eps}: prepending onto the
        # empty set only adjoins epsilon.
        term = Prefix(EventVar("x"), literal("a", "b"), FAIL)
        assert semantics(term, 3, ab).traces == {()}

    def test_choice_union(self, ab):
        term = parse_term("?x:{a,b} -> STOP [] ?x:{a} -> FAIL", ab)
        assert semantics(term, 3, ab).traces == {(), ("a",), ("b",)}

    def test_prefix_closed(self, abc):
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=21), 300):
            got = semantics(term, prefix_depth(term), abc).traces
            assert got == prefix_closure(got)

    def test_depth_monotone(self, abc):
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=22), 200):
            n = prefix_depth(term)
            for k in range(n + 1):
                small = semantics(term, k, abc).traces
                big = semantics(term, k + 1, abc).traces
                assert small == {t for t in big if len(t) <= k}
            # prefix_depth bounds every trace: a deeper evaluation adds none.
            assert semantics(term, n + 2, abc).traces == semantics(term, n, abc).traces

    def test_empty_iff_empty_at_depth_zero(self, abc):
        from cspmon.terms import is_doomed

        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=23), 300):
            empty0 = semantics(term, 0, abc).is_empty()
            assert empty0 == is_doomed(term)
            for k in (1, 3):
                assert semantics(term, k, abc).is_empty() == empty0


class TestSemanticsMemo:
    def test_warm_and_cold_results_agree(self, abc):
        calls = [
            (term, k)
            for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=24), 200)
            for k in range(prefix_depth(term) + 2)
        ]
        random.Random(24).shuffle(calls)
        warm = [semantics(term, k, abc).traces for term, k in calls]
        for (term, k), got in zip(calls, warm):
            semantics.cache_clear()
            assert semantics(term, k, abc).traces == got

    def test_memo_is_bounded(self, ab):
        for k in range(SEMANTICS_MEMO_SIZE + 100):
            semantics(STOP, k, ab)
        info = semantics.cache_info()
        assert info.maxsize == SEMANTICS_MEMO_SIZE
        assert info.currsize <= SEMANTICS_MEMO_SIZE


class TestDistributivity:
    def test_binary_union_distributes(self, ab):
        rng = random.Random(5)
        for _ in range(200):
            t1 = gen_prefix_closed(rng, ab, 3)
            t1p = gen_prefix_closed(rng, ab, 3)
            t2 = gen_prefix_closed(rng, ab, 3)
            sync = frozenset(e for e in ab if rng.random() < 0.5)
            lhs = parcomp(t1.union(t1p), sync, t2, ab, 3)
            rhs = parcomp(t1, sync, t2, ab, 3).union(parcomp(t1p, sync, t2, ab, 3))
            assert lhs.traces == rhs.traces


def _approx(iters, s1, s2, sync, alphabet, budget, seed_full):
    """Kleene-style approximation of the parallel operator from a seed.

    Iteration 0 returns the seed (empty or the full prefix-closed set up to
    the budget); each further iteration applies the defining equations once.
    Traces of length < iters are pinned regardless of the seed.
    """
    if iters == 0:
        if not seed_full:
            return frozenset()
        full = {()}
        frontier = [()]
        while frontier:
            t = frontier.pop()
            if len(t) < budget:
                for e in alphabet:
                    full.add(t + (e,))
                    frontier.append(t + (e,))
        return frozenset(full)
    if not s1 or not s2:
        return frozenset()
    if budget <= 0:
        return frozenset({()})
    out = {()}
    for e in alphabet:
        d1 = frozenset(t[1:] for t in s1 if t and t[0] == e)
        d2 = frozenset(t[1:] for t in s2 if t and t[0] == e)
        if e in sync:
            subs = [_approx(iters - 1, d1, d2, sync, alphabet, budget - 1, seed_full)]
        else:
            subs = [
                _approx(iters - 1, d1, s2, sync, alphabet, budget - 1, seed_full),
                _approx(iters - 1, s1, d2, sync, alphabet, budget - 1, seed_full),
            ]
        for sub in subs:
            out |= {(e,) + t for t in sub if len(t) + 1 <= budget}
    return frozenset(out)


class TestFixpointUniqueness:
    def test_least_and_greatest_seeds_agree(self, ab):
        # Iterating the defining equations from the empty seed and from the
        # full seed converges to the same operator at bounded depth, which
        # also matches the direct recursion.
        rng = random.Random(17)
        for _ in range(40):
            t1 = gen_prefix_closed(rng, ab, 3)
            t2 = gen_prefix_closed(rng, ab, 3)
            sync = frozenset(e for e in ab if rng.random() < 0.5)
            k = 3
            least = _approx(k + 1, t1.traces, t2.traces, sync, ab, k, seed_full=False)
            greatest = _approx(k + 1, t1.traces, t2.traces, sync, ab, k, seed_full=True)
            direct = parcomp(t1, sync, t2, ab, k).traces
            assert least == greatest == direct


class TestSerialization:
    def test_format_and_parse_roundtrip(self):
        assert format_trace(()) == ""
        assert format_trace(("a", "b")) == "a.b"
        assert parse_trace("a.b") == ("a", "b")
        assert parse_trace("") == ()

    def test_canonical_order(self):
        got = canonical_traces(ts((), ("b",), ("a",), ("a", "b")))
        assert got == [(), ("a",), ("b",), ("a", "b")]
