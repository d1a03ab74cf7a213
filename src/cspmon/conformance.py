"""Random term generation and the cross-semantics conformance checks.

The operational engine and the denotational evaluator are independent
implementations of the same language; each check here computes a fact both
ways and compares.  Each check is a predicate on terms, which gives the
verdict and drives the shrinker: a FAIL reports its counterexample,
minimized by greedy subterm replacement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .sos import TAU, _step, engine, internal_successors, visible_successors
from .syntax import print_term
from .terms import (
    Choice,
    Event,
    EventSetExpr,
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
    Term,
    is_doomed,
    prefix_depth,
    term_size,
)
from .traces import (
    EMPTY_TRACE_SET,
    EPSILON,
    Trace,
    TraceSet,
    derive,
    parcomp,
    semantics,
)

_VAR_POOL = ("x", "y", "z", "w")
# Nesting depth of the generated set expressions.
_SET_EXPR_DEPTH = 2
_SET_OPS = {"union": SetUnion, "intersection": SetIntersection, "difference": SetDifference}


@dataclass(frozen=True)
class GenConfig:
    max_size: int
    alphabet: frozenset[str]
    seed: int

    def __post_init__(self):
        assert self.max_size >= 1 and self.alphabet


def gen_term(cfg: GenConfig) -> Term:
    """A pseudo-random closed term of size <= max_size; pure in the config."""
    rng = random.Random(cfg.seed)
    return _gen_term(rng, cfg, cfg.max_size, ())


def gen_terms(cfg: GenConfig, count: int) -> Iterator[Term]:
    """A reproducible stream of terms: seeds seed, seed+1, ..."""
    for i in range(count):
        yield _gen_term(random.Random(cfg.seed + i), cfg, cfg.max_size, ())


def _gen_term(rng, cfg, budget, scope) -> Term:
    if budget <= 1:
        return rng.choice((STOP, FAIL))
    kinds = ["stop", "fail", "prefix", "prefix"]
    if budget >= 3:
        kinds += ["choice", "parallel"]
    kind = rng.choice(kinds)
    if kind == "stop":
        return STOP
    if kind == "fail":
        return FAIL
    if kind == "prefix":
        var = EventVar(rng.choice(_VAR_POOL))
        events = _gen_set(rng, cfg, scope, _SET_EXPR_DEPTH)
        inner = scope if var in scope else scope + (var,)
        return Prefix(var, events, _gen_term(rng, cfg, budget - 1, inner))
    split = rng.randint(1, budget - 2)
    left = _gen_term(rng, cfg, split, scope)
    right = _gen_term(rng, cfg, budget - 1 - split, scope)
    if kind == "choice":
        return Choice(left, right)
    return Parallel(left, _gen_set(rng, cfg, scope, _SET_EXPR_DEPTH), right)


def _gen_set(rng, cfg, scope, depth) -> EventSetExpr:
    choices = ["literal", "literal", "full"]
    if depth > 0:
        choices += ["union", "intersection", "difference"]
    kind = rng.choice(choices)
    if kind == "literal":
        pool = [Event(n) for n in sorted(cfg.alphabet)] + list(scope)
        count = rng.randint(0, min(3, len(pool)))
        return Literal(tuple(rng.choice(pool) for _ in range(count)))
    if kind == "full":
        return FullAlphabet()
    left = _gen_set(rng, cfg, scope, depth - 1)
    right = _gen_set(rng, cfg, scope, depth - 1)
    return _SET_OPS[kind](left, right)


def gen_prefix_closed(rng: random.Random, alphabet: frozenset[str], depth: int) -> TraceSet:
    """A random prefix-closed trace set with traces of length <= depth."""
    if rng.random() < 0.1:
        return EMPTY_TRACE_SET
    traces = {EPSILON}
    events = sorted(alphabet)
    for _ in range(rng.randint(0, 3 * depth + 1)):
        t = tuple(rng.choice(events) for _ in range(rng.randint(1, depth)))
        for i in range(1, len(t) + 1):
            traces.add(t[:i])
    return TraceSet(frozenset(traces))


# --- reports --------------------------------------------------------------


@dataclass
class CheckReport:
    prop: str
    passed: bool
    seed: Optional[int] = None
    counterexample: Optional[str] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [status, self.prop, str(self.seed if self.seed is not None else "-")]
        if self.counterexample:
            parts.append(self.counterexample)
        return " ".join(parts)


def _check(
    prop: str, term: Term, seed: Optional[int], fails: Callable[[Term], bool]
) -> CheckReport:
    """Report ``prop`` on ``term``; ``fails`` tells whether a term breaks it.

    Each property is checked at the term's full depth, ``prefix_depth``: the
    language has no recursion, so that depth covers the whole trace set.
    """
    if not fails(term):
        return CheckReport(prop, True, seed)
    return CheckReport(prop, False, seed, print_term(minimize_counterexample(term, fails)))


def minimize_counterexample(term: Term, still_fails: Callable[[Term], bool]) -> Term:
    """Greedily replace subterms with STOP/FAIL while the check still fails."""
    changed = True
    while changed:
        changed = False
        for candidate in _shrink_candidates(term):
            if term_size(candidate) < term_size(term) and still_fails(candidate):
                term = candidate
                changed = True
                break
    return term


def _shrink_candidates(term: Term) -> Iterator[Term]:
    for leaf in (STOP, FAIL):
        if term != leaf:
            yield leaf
    if isinstance(term, Prefix):
        for b in _shrink_candidates(term.body):
            yield Prefix(term.var, term.events, b)
    elif isinstance(term, Choice):
        yield term.left
        yield term.right
        for l in _shrink_candidates(term.left):
            yield Choice(l, term.right)
        for r in _shrink_candidates(term.right):
            yield Choice(term.left, r)
    elif isinstance(term, Parallel):
        yield term.left
        yield term.right
        for l in _shrink_candidates(term.left):
            yield Parallel(l, term.sync, term.right)
        for r in _shrink_candidates(term.right):
            yield Parallel(term.left, term.sync, r)


# --- checks ---------------------------------------------------------------


def operational_traces(term: Term, alphabet: frozenset[str]) -> frozenset[Trace]:
    """Traces of length <= ``prefix_depth(term)`` after which some viable
    term is reachable; the bound also stops the walk on a faulty engine.

    Depth-first over (trace, residual set) pairs, stepped as the monitor
    steps (``sos._step``), each step taken once per call.  Dead traces
    (empty residual sets) are dropped, which keeps the stack proportional
    to the actual trace set.
    """
    if is_doomed(term):
        return frozenset()
    depth = prefix_depth(term)
    held = engine(alphabet)
    steps = {}
    out = set()
    stack = [(EPSILON, frozenset((term,)))]
    while stack:
        trace, states = stack.pop()
        out.add(trace)
        if len(trace) < depth:
            for e in alphabet:
                succ = steps.get((states, e))
                if succ is None:
                    succ = steps[states, e] = _step(held, states, e)
                if succ:
                    stack.append((trace + (e,), succ))
    return frozenset(out)


def check_correspondence(
    term: Term, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """Denotational trace set == operationally emittable traces."""

    def fails(t: Term) -> bool:
        den = semantics(t, prefix_depth(t), alphabet).traces
        return den != operational_traces(t, alphabet)

    return _check("correspondence", term, seed, fails)


def check_doomed_normalization(
    term: Term, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """Doomed terms only tau-step, shrink each step, and bottom out at FAIL."""

    def fails(t: Term) -> bool:
        return is_doomed(t) and not _normalizes(t, alphabet)

    return _check("doomed-normalization", term, seed, fails)


def _normalizes(term: Term, alphabet) -> bool:
    """Every path from ``term`` tau-steps through shrinking doomed terms to FAIL."""
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        succs = internal_successors(current, alphabet)
        if not succs and not isinstance(current, Fail):
            return False
        for action, target in succs:
            if action is not TAU or not is_doomed(target):
                return False
            if term_size(target) >= term_size(current):
                return False
            stack.append(target)
    return True


def check_doomed_iff_empty(
    term: Term, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """A term is doomed exactly when its trace set is empty."""

    def fails(t: Term) -> bool:
        return is_doomed(t) != semantics(t, prefix_depth(t), alphabet).is_empty()

    return _check("doomed-iff-empty", term, seed, fails)


def check_derivative_decomposition(
    term: Term, event: str, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """sem(P)(e) equals the union of sem(Q) over all Q reachable by e."""

    def fails(t: Term) -> bool:
        k = max(prefix_depth(t), 1)
        lhs = derive(semantics(t, k, alphabet), event).traces
        rhs: frozenset[Trace] = frozenset()
        for q in visible_successors(t, event, alphabet):
            rhs |= semantics(q, k - 1, alphabet).traces
        return lhs != rhs

    return _check(f"derivative-decomposition[{event}]", term, seed, fails)


def check_continuity_instance(
    t1: TraceSet,
    t1_prime: TraceSet,
    sync: frozenset[str],
    t2: TraceSet,
    alphabet: frozenset[str],
) -> CheckReport:
    """Binary-union distributivity of the parallel trace-set operator."""
    t1_union = t1.union(t1_prime)
    # Composed in full: no merge is longer than the two longest operands.
    depth = max(map(len, t1_union.traces), default=0) + max(map(len, t2.traces), default=0)
    lhs = parcomp(t1_union, sync, t2, alphabet, depth)
    rhs = parcomp(t1, sync, t2, alphabet, depth).union(
        parcomp(t1_prime, sync, t2, alphabet, depth)
    )
    ok = lhs.traces == rhs.traces
    # No term to shrink, so the two sides are the counterexample.
    example = None if ok else f"lhs={sorted(lhs.traces)} rhs={sorted(rhs.traces)}"
    return CheckReport("parcomp-continuity", ok, None, example)


def run_suite(
    terms: list[Term],
    alphabet: frozenset[str],
    base_seed: int = 0,
) -> list[CheckReport]:
    """All per-term checks over a corpus, reported one line per property."""
    held = engine(alphabet)  # for the whole corpus, so its memos stay warm
    reports = []
    for i, term in enumerate(terms):
        seed = base_seed + i
        reports.append(check_correspondence(term, alphabet, seed))
        reports.append(check_doomed_normalization(term, alphabet, seed))
        reports.append(check_doomed_iff_empty(term, alphabet, seed))
        for e in sorted(alphabet):
            reports.append(check_derivative_decomposition(term, e, alphabet, seed))
    return reports
