"""Generator reproducibility and the individual conformance checks."""

import collections
import hashlib
import random

from cspmon.conformance import (
    GenConfig,
    check_continuity_instance,
    check_correspondence,
    check_derivative_decomposition,
    check_doomed_normalization,
    check_doomed_iff_empty,
    gen_prefix_closed,
    gen_term,
    gen_terms,
    minimize_counterexample,
    operational_traces,
    run_suite,
)
from cspmon.syntax import parse_term, print_term
from cspmon.terms import FAIL, STOP, Choice, Fail, Parallel, Prefix, Stop, term_size
from cspmon.traces import TraceSet


class TestGenTerm:
    def test_size_one_is_a_leaf(self, abc):
        term = gen_term(GenConfig(max_size=1, alphabet=abc, seed=0))
        assert isinstance(term, (Stop, Fail))

    def test_golden_seed_is_stable(self, abc):
        term = gen_term(GenConfig(max_size=7, alphabet=abc, seed=42))
        assert print_term(term) == "STOP |[Sigma \\ {a,a,a} \\ {c}]| (FAIL |[{}]| FAIL)"

    def test_golden_corpus_digest_is_stable(self, abc):
        # Pins the generator's random draws: any change to the order or
        # number of draws changes the corpus.
        digest = hashlib.sha256()
        for term in gen_terms(GenConfig(12, abc, seed=0), 200):
            digest.update(print_term(term).encode() + b"\n")
        assert digest.hexdigest() == (
            "854b5f5084597dbf987bf9d57811d2353817c1e998f676ca80783d01a2f10cb1"
        )

    def test_respects_size_budget(self, abc):
        for size in (1, 4, 12):
            for term in gen_terms(GenConfig(max_size=size, alphabet=abc, seed=1), 100):
                assert term_size(term) <= size

    def test_every_constructor_appears(self, abc):
        counts = collections.Counter()

        def walk(t):
            counts[type(t).__name__] += 1
            for attr in ("body", "left", "right"):
                child = getattr(t, attr, None)
                if child is not None:
                    walk(child)

        for term in gen_terms(GenConfig(max_size=12, alphabet=abc, seed=0), 10_000):
            walk(term)
        assert set(counts) == {"Stop", "Fail", "Prefix", "Choice", "Parallel"}

    def test_bound_variables_get_used(self, abc):
        texts = [
            print_term(t)
            for t in gen_terms(GenConfig(max_size=8, alphabet=abc, seed=2), 500)
        ]
        assert any("{x}" in s or "x," in s or ",x" in s for s in texts)


class TestChecks:
    def test_correspondence_on_fail(self, ab):
        assert check_correspondence(FAIL, 2, ab).passed
        assert operational_traces(FAIL, 2, ab) == frozenset()

    def test_correspondence_on_simple_prefix(self, ab):
        term = parse_term("?x:{a} -> STOP", ab)
        assert operational_traces(term, 2, ab) == {(), ("a",)}
        assert check_correspondence(term, 2, ab).passed

    def test_correspondence_synchronized_doom(self, ab):
        # After the synchronized a the composition is doomed, so a is not a
        # valid trace on either side.
        term = parse_term("?x:{a} -> STOP |[{a}]| ?x:{a} -> FAIL", ab)
        assert operational_traces(term, 2, ab) == {()}
        assert check_correspondence(term, 2, ab).passed

    def test_doomed_normalization_examples(self, ab):
        assert check_doomed_normalization(FAIL, ab).passed
        assert check_doomed_normalization(parse_term("FAIL |[{}]| STOP", ab), ab).passed
        assert check_doomed_normalization(Choice(FAIL, FAIL), ab).passed

    def test_derivative_decomposition_examples(self, ab):
        assert check_derivative_decomposition(STOP, "a", 2, ab).passed
        term = parse_term("?x:{a,b} -> STOP", ab)
        assert check_derivative_decomposition(term, "a", 2, ab).passed
        term = parse_term("?x:{a} -> STOP [] ?x:{a} -> FAIL", ab)
        assert check_derivative_decomposition(term, "a", 2, ab).passed

    def test_emptiness_examples(self, ab):
        assert check_doomed_iff_empty(FAIL, 2, ab).passed
        assert check_doomed_iff_empty(STOP, 2, ab).passed
        assert check_doomed_iff_empty(parse_term("FAIL |[{}]| STOP", ab), 2, ab).passed

    def test_continuity_instances(self, ab):
        rng = random.Random(3)
        empty = TraceSet(frozenset(), 3)
        some = gen_prefix_closed(rng, ab, 3)
        assert check_continuity_instance(empty, some, frozenset(), some, ab).passed
        assert check_continuity_instance(some, some, frozenset("a"), some, ab).passed
        for _ in range(100):
            t1 = gen_prefix_closed(rng, ab, 3)
            t1p = gen_prefix_closed(rng, ab, 3)
            t2 = gen_prefix_closed(rng, ab, 3)
            assert check_continuity_instance(t1, t1p, frozenset("b"), t2, ab).passed

    def test_run_suite_reports_one_line_per_property(self, ab):
        reports = run_suite([STOP, FAIL], ab, base_seed=9)
        lines = [r.line() for r in reports]
        assert all(l.startswith("PASS") for l in lines)
        # correspondence, doomed, emptiness, and one decomposition per event
        assert len(lines) == 2 * (3 + len(ab))


class TestMinimization:
    def test_shrinks_to_smallest_failing_term(self, ab):
        # A fake predicate: "fails" whenever the term contains FAIL.
        def has_fail(t):
            if isinstance(t, Fail):
                return True
            return any(
                has_fail(getattr(t, a))
                for a in ("body", "left", "right")
                if getattr(t, a, None) is not None
            )

        big = parse_term("?x:{a} -> (STOP [] (FAIL |[{a}]| ?y:{b} -> STOP))", ab)
        assert minimize_counterexample(big, has_fail) == FAIL
