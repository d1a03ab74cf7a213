"""Generator reproducibility and the individual conformance checks."""

import collections
import hashlib
import inspect
import random

import pytest

from cspmon import sos
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
        assert check_correspondence(FAIL, ab).passed
        assert operational_traces(FAIL, ab) == frozenset()

    def test_correspondence_on_simple_prefix(self, ab):
        term = parse_term("?x:{a} -> STOP", ab)
        assert operational_traces(term, ab) == {(), ("a",)}
        assert check_correspondence(term, ab).passed

    def test_correspondence_synchronized_doom(self, ab):
        # After the synchronized a the composition is doomed, so a is not a
        # valid trace on either side.
        term = parse_term("?x:{a} -> STOP |[{a}]| ?x:{a} -> FAIL", ab)
        assert operational_traces(term, ab) == {()}
        assert check_correspondence(term, ab).passed

    def test_doomed_normalization_examples(self, ab):
        assert check_doomed_normalization(FAIL, ab).passed
        assert check_doomed_normalization(parse_term("FAIL |[{}]| STOP", ab), ab).passed
        assert check_doomed_normalization(Choice(FAIL, FAIL), ab).passed

    def test_derivative_decomposition_examples(self, ab):
        assert check_derivative_decomposition(STOP, "a", ab).passed
        term = parse_term("?x:{a,b} -> STOP", ab)
        assert check_derivative_decomposition(term, "a", ab).passed
        term = parse_term("?x:{a} -> STOP [] ?x:{a} -> FAIL", ab)
        assert check_derivative_decomposition(term, "a", ab).passed

    def test_emptiness_examples(self, ab):
        assert check_doomed_iff_empty(FAIL, ab).passed
        assert check_doomed_iff_empty(STOP, ab).passed
        assert check_doomed_iff_empty(parse_term("FAIL |[{}]| STOP", ab), ab).passed

    def test_continuity_instances(self, ab):
        rng = random.Random(3)
        empty = TraceSet(frozenset())
        some = gen_prefix_closed(rng, ab, 3)
        assert check_continuity_instance(empty, some, frozenset(), some, ab).passed
        assert check_continuity_instance(some, some, frozenset("a"), some, ab).passed
        for _ in range(100):
            t1 = gen_prefix_closed(rng, ab, 3)
            t1p = gen_prefix_closed(rng, ab, 3)
            t2 = gen_prefix_closed(rng, ab, 3)
            assert check_continuity_instance(t1, t1p, frozenset("b"), t2, ab).passed

    def test_terminates_on_an_engine_that_loops(self, ab, source_mutant):
        # A prefix that steps to itself emits a forever; the walk stops at
        # the term's prefix depth, so the check still ends, and FAILs.
        loop = (
            "out.append((e, substitute(Event(e), term.var, term.body)))",
            "out.append((e, term))",
        )
        term = parse_term("?x:{a} -> ?y:{b} -> STOP", ab)
        with source_mutant(sos, "_successors", loop):
            assert operational_traces(term, ab) == {(), ("a",), ("a", "a")}
            report = check_correspondence(term, ab)
        assert not report.passed
        assert report.counterexample == "?x:{a} -> FAIL"

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


# Every rule of the step function, ``sos._successors``, as the line that adds
# it; a rule that a bare line would not name once carries its guard.
STEP_RULES = {
    "prefix": "out.append((e, substitute(Event(e), term.var, term.body)))",
    "choice-left": "out.append((a, Choice(t, term.right) if a is TAU else t))",
    "choice-right": "out.append((a, Choice(term.left, t) if a is TAU else t))",
    "choice-both-fail": (
        "if term.left is FAIL and term.right is FAIL:\n            out.append((TAU, FAIL))"
    ),
    "parallel-left": "out.append((a, Parallel(t, term.sync, term.right)))",
    "parallel-right": "out.append((a, Parallel(term.left, term.sync, t)))",
    "parallel-sync": "out.append((a, Parallel(left, term.sync, right)))",
    "both-doomed-left": "out.append((TAU, Parallel(t, term.sync, term.right)))",
    "both-doomed-right": "out.append((TAU, Parallel(term.left, term.sync, t)))",
    "parallel-left-fail": "if term.left is FAIL:\n        out.append((TAU, FAIL))",
    "parallel-right-fail": "if term.right is FAIL:\n        out.append((TAU, FAIL))",
}
# The rules that only doomed normalization sees: each one is a doomed
# term's last step to FAIL, which moves no trace set.
TO_FAIL_RULES = ("choice-both-fail", "parallel-left-fail", "parallel-right-fail")
# Deleting either both-doomed rule moves no trace set and breaks no doomed
# normalization, so no check sees it: the ``step`` listing pins them, in
# test_cli.py::TestStepCommand::test_both_doomed_rules_change_the_listing.
BOTH_DOOMED_RULES = ("both-doomed-left", "both-doomed-right")


class TestStepRuleTable:
    ALPHABET = frozenset({"a", "b", "c"})

    def test_the_table_names_every_rule(self):
        source = inspect.getsource(sos._successors)
        assert source.count("out.append(") == len(STEP_RULES)
        assert all(source.count(anchor) == 1 for anchor in STEP_RULES.values())

    @pytest.fixture(scope="class")
    def corpus(self):
        # The first terms of the acceptance corpus.
        return list(gen_terms(GenConfig(12, self.ALPHABET, seed=20240), 300))

    @pytest.mark.parametrize("rule", [r for r in STEP_RULES if r not in BOTH_DOOMED_RULES])
    def test_the_suite_catches_a_deleted_rule(self, rule, corpus, source_mutant):
        with source_mutant(sos, "_successors", (STEP_RULES[rule], "pass")):
            failed = {r.prop for r in run_suite(corpus, self.ALPHABET) if not r.passed}
        assert failed
        if rule in TO_FAIL_RULES:
            assert "doomed-normalization" in failed
