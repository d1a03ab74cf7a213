"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single ``ACCEPT PASS|FAIL`` line so the suite doubles as
a human-readable report (run with ``pytest -s tests/test_acceptance.py``).
All checks are exact: set comparisons of trace sets, plus walks over the
transition relation (doomed normalization, and mutation sensitivity, which
runs that walk on the mutant engine). The mutants are source edits of the
shipped functions. There are no tolerances to tune.
"""

import random

import pytest

from cspmon import sos, traces
from cspmon.cli import main
from cspmon.conformance import (
    GenConfig,
    gen_terms,
    operational_traces,
)
from cspmon.monitor import Verdict, feed_all, init_monitor, verdict_of
from cspmon.sos import TAU, internal_successors, visible_successors
from cspmon.syntax import parse_term, print_term
from cspmon.terms import Fail, is_doomed, prefix_depth, term_size
from cspmon.traces import derive, semantics
from conftest import check_continuity_instance, gen_prefix_closed

ALPHABET = frozenset({"a", "b", "c"})
CORPUS_SIZE = 10_000
CORPUS_SEED = 20_240

# (name, module, function, (anchor, replacement)): each mutant drops one rule.
MUTANTS = (
    ("viability-left", sos, "_successors", ("if not right_doomed:", "if True:")),
    ("viability-right", sos, "_successors", ("if not left_doomed:", "if True:")),
    ("empty-precedence", traces, "_parcomp", ("if not s1 or not s2:", "if False:")),
)


@pytest.fixture(scope="module")
def corpus():
    cfg = GenConfig(max_size=12, alphabet=ALPHABET, seed=CORPUS_SEED)
    return list(gen_terms(cfg, CORPUS_SIZE))


def _verdict_line(name, violations, extra=""):
    status = "PASS" if violations == 0 else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPT {status} {name}: {violations} violations{suffix}")
    assert violations == 0


class TestAcceptance:
    def test_1_correspondence(self, corpus):
        violations = 0
        for term in corpus:
            k = prefix_depth(term)
            if semantics(term, k, ALPHABET).traces != operational_traces(term, ALPHABET):
                violations += 1
        _verdict_line("theorem-correspondence", violations, f"{len(corpus)} terms")

    def test_2_doomed_normalization(self, corpus):
        violations = 0
        doomed_count = 0
        for term in corpus:
            if not is_doomed(term):
                continue
            doomed_count += 1
            if not _doomed_paths_ok(term):
                violations += 1
        _verdict_line("doomed-normalization", violations, f"{doomed_count} doomed terms")

    def test_3_doomed_iff_empty(self, corpus):
        violations = 0
        for term in corpus:
            k = prefix_depth(term)
            if is_doomed(term) != semantics(term, k, ALPHABET).is_empty():
                violations += 1
        _verdict_line("doomed-iff-empty", violations)

    def test_4_derivative_decomposition(self, corpus):
        violations = 0
        for term in corpus:
            k = max(prefix_depth(term), 1)
            sem = semantics(term, k, ALPHABET)
            for e in sorted(ALPHABET):
                lhs = derive(sem, e).traces
                rhs = frozenset()
                for q in visible_successors(term, e, ALPHABET):
                    rhs |= semantics(q, k - 1, ALPHABET).traces
                if lhs != rhs:
                    violations += 1
        _verdict_line("derivative-decomposition", violations)

    def test_5_continuity_instances(self):
        ab = frozenset({"a", "b"})
        rng = random.Random(CORPUS_SEED)
        violations = 0
        for _ in range(1_000):
            t1 = gen_prefix_closed(rng, ab, 3)
            t1p = gen_prefix_closed(rng, ab, 3)
            t2 = gen_prefix_closed(rng, ab, 3)
            sync = frozenset(e for e in ab if rng.random() < 0.5)
            if not check_continuity_instance(t1, t1p, sync, t2, ab).passed:
                violations += 1
        _verdict_line("parcomp-continuity", violations, "1000 triples")

    def test_6_monitor_oracle_agreement(self, corpus):
        rng = random.Random(CORPUS_SEED + 1)
        events = sorted(ALPHABET)
        violations = 0
        for i in range(1_000):
            term = corpus[i % len(corpus)]
            length = rng.randint(0, 6)
            if rng.random() < 0.5:
                # Bias half the traces toward the trace set so RUNNING
                # verdicts are exercised too.
                sem = semantics(term, 6, ALPHABET).traces
                pool = [t for t in sem if len(t) <= 6]
                trace = rng.choice(pool) if pool else ()
            else:
                trace = tuple(rng.choice(events) for _ in range(length))
            member = trace in semantics(term, len(trace), ALPHABET).traces
            state = feed_all(init_monitor(term, ALPHABET), trace)
            if (verdict_of(state) is Verdict.RUNNING) != member:
                violations += 1
        _verdict_line("monitor-oracle-agreement", violations, "1000 pairs")

    def test_7_mutation_sensitivity(self, corpus, source_mutant):
        # Each mutant must break at least one acceptance property somewhere
        # on the sample, and the report names the property that caught it.
        # The empty-precedence mutant changes the denotational side, so the
        # trace correspondence sees it.  The two viability mutants cannot be
        # seen at trace level: every transition the loosened rules add leaves
        # a doomed term, and doomed terms are closed under the loosened
        # relation (induction on the source term), so the set of traces that
        # reach a viable term is unchanged.  What the side conditions enforce
        # is prompt failure propagation, a property of the transition
        # relation: a doomed term only tau-steps, each step shrinks it, and
        # it ends at FAIL.  That is doomed normalization (check 2), so the
        # engine mutants are also run through it.  The transition-level
        # test_sos.py::TestInvariants::test_viability_blocking_vs_mutant
        # compares successor sets of the two engines directly.
        sample = corpus[:2_000]
        caught = []
        undetected = []
        for name, module, func_name, edit in MUTANTS:
            with source_mutant(module, func_name, edit):
                prop = _mutant_detected(sample, engine=module is sos)
            if prop:
                caught.append(f"{name} by {prop}")
            else:
                undetected.append(name)
        extra = "3 mutants"
        if caught:
            extra += f"; caught: {', '.join(caught)}"
        if undetected:
            extra += f"; undetected: {', '.join(undetected)}"
        _verdict_line("mutation-sensitivity", len(undetected), extra)

    def test_8_frontend_roundtrip(self, corpus, tmp_path, capsys):
        violations = 0
        for term in corpus:
            if parse_term(print_term(term), ALPHABET) != term:
                violations += 1
        spec = tmp_path / "spec.cspmon"
        spec.write_text(
            "alphabet {a,b,c} process "
            "?x:Sigma -> ?y:Sigma \\ {x} -> STOP |[{c}]| ?z:{a,c} -> STOP"
        )
        main(["traces", str(spec), "--depth", "4"])
        first = capsys.readouterr().out
        main(["traces", str(spec), "--depth", "4"])
        if capsys.readouterr().out != first:
            violations += 1
        with capsys.disabled():
            _verdict_line("frontend-roundtrip", violations, f"{len(corpus)} terms")


class TestMonitorOnEveryTrace:
    """The real monitor path (``feed``, its DFA edges and the engine's state
    table) against the trace set: ``feed_all`` from the initial state is
    RUNNING exactly on the traces in the set.  Checked on every trace of
    each corpus term's trace set, the empty trace and every one-event
    extension of a trace in the set."""

    @staticmethod
    def _pairs_and_mismatches(terms):
        pairs = mismatches = 0
        for term in terms:
            sem = semantics(term, prefix_depth(term), ALPHABET).traces
            start = init_monitor(term, ALPHABET)
            traces = {()} | sem | {trace + (e,) for trace in sem for e in ALPHABET}
            for trace in traces:
                running = verdict_of(feed_all(start, trace)) is Verdict.RUNNING
                mismatches += running != (trace in sem)
            pairs += len(traces)
        return pairs, mismatches

    def test_every_trace_of_the_corpus(self, corpus):
        pairs, mismatches = self._pairs_and_mismatches(corpus)
        assert mismatches == 0 and pairs > 9 * len(corpus)

    def test_every_trace_through_flushes(self, corpus, monkeypatch):
        # A small cap, taking effect at once, so that the DFA of almost
        # every term is flushed while it is fed.
        monkeypatch.setattr(sos, "EDGE_CAP", 8)
        stock = sos._flush
        flushes = []

        def counted(eng):
            stock(eng)
            flushes.append(eng)

        monkeypatch.setattr(sos, "_flush", counted)
        sos._flush(sos.engine(ALPHABET))
        terms = corpus[:2_000]
        _, mismatches = self._pairs_and_mismatches(terms)
        assert mismatches == 0 and len(flushes) > len(terms)


def _doomed_paths_ok(term) -> bool:
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        succs = internal_successors(current, ALPHABET)
        if not succs and not isinstance(current, Fail):
            return False
        for action, target in succs:
            if action is not TAU:
                return False
            if not is_doomed(target):
                return False
            if term_size(target) >= term_size(current):
                return False
            stack.append(target)
    return True


def _mutant_detected(terms, engine: bool) -> str | None:
    """The first acceptance property the installed mutant breaks, or None.

    Every mutant is checked against the trace correspondence, where the
    unmutated semantics serves as oracle.  An engine mutant is also run
    through doomed normalization on each doomed term.
    """
    for term in terms:
        k = prefix_depth(term)
        if semantics(term, k, ALPHABET).traces != operational_traces(term, ALPHABET):
            return "theorem-correspondence"
        if engine and is_doomed(term) and not _doomed_paths_ok(term):
            return "doomed-normalization"
    return None
