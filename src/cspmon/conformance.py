"""Random term generation and the cross-semantics conformance checks.

The operational engine and the denotational evaluator are independent
implementations of the same language; each check here computes a fact both
ways and compares.  Failing checks report a counterexample, minimized by
greedy subterm replacement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .sos import TAU, internal_successors, tau_closure, visible_successors
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
    EPSILON,
    Trace,
    TraceSet,
    derive,
    parcomp,
    semantics,
)

_VAR_POOL = ("x", "y", "z", "w")
_SET_OPS = {"union": SetUnion, "intersection": SetIntersection, "difference": SetDifference}


@dataclass(frozen=True)
class GenConfig:
    max_size: int
    alphabet: frozenset[str]
    seed: int
    set_expr_depth: int = 2

    def __post_init__(self):
        assert self.max_size >= 1 and self.alphabet


def gen_term(cfg: GenConfig) -> Term:
    """A pseudo-random closed term of size <= max_size; pure in the config."""
    rng = random.Random(cfg.seed)
    return _gen_term(rng, cfg, cfg.max_size, ())


def gen_terms(cfg: GenConfig, count: int) -> Iterator[Term]:
    """A reproducible stream of terms: seeds seed, seed+1, ..."""
    for i in range(count):
        yield gen_term(GenConfig(cfg.max_size, cfg.alphabet, cfg.seed + i, cfg.set_expr_depth))


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
        events = _gen_set(rng, cfg, scope, cfg.set_expr_depth)
        inner = scope if var in scope else scope + (var,)
        return Prefix(var, events, _gen_term(rng, cfg, budget - 1, inner))
    split = rng.randint(1, budget - 2)
    left = _gen_term(rng, cfg, split, scope)
    right = _gen_term(rng, cfg, budget - 1 - split, scope)
    if kind == "choice":
        return Choice(left, right)
    return Parallel(left, _gen_set(rng, cfg, scope, cfg.set_expr_depth), right)


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
        return TraceSet(frozenset(), depth)
    traces = {EPSILON}
    events = sorted(alphabet)
    for _ in range(rng.randint(0, 3 * depth + 1)):
        t = tuple(rng.choice(events) for _ in range(rng.randint(1, depth)))
        for i in range(1, len(t) + 1):
            traces.add(t[:i])
    return TraceSet(frozenset(traces), depth)


# --- reports --------------------------------------------------------------


@dataclass
class CheckReport:
    prop: str
    passed: bool
    seed: Optional[int] = None
    counterexample: Optional[str] = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [status, self.prop, str(self.seed if self.seed is not None else "-")]
        if self.counterexample:
            parts.append(self.counterexample)
        return " ".join(parts)


def _report(prop, ok, seed, term: Optional[Term], failing: Callable[[Term], bool], detail=""):
    if ok:
        return CheckReport(prop, True, seed)
    example = None
    if term is not None:
        example = print_term(minimize_counterexample(term, failing))
    return CheckReport(prop, False, seed, example, detail)


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


def operational_traces(
    term: Term, depth: int, alphabet: frozenset[str]
) -> frozenset[Trace]:
    """Traces of length <= depth after which some viable term is reachable.

    Breadth-first over (trace, reachable-term-set) pairs; dead traces (empty
    state sets) are dropped, which keeps the frontier proportional to the
    actual trace set.
    """
    out = set()
    frontier = {EPSILON: tau_closure(term, alphabet)}
    for _ in range(depth + 1):
        next_frontier: dict = {}
        for trace, states in frontier.items():
            if any(not is_doomed(s) for s in states):
                out.add(trace)
            if len(trace) == depth:
                continue
            for e in sorted(alphabet):
                succ = frozenset(
                    q for s in states for q in visible_successors(s, e, alphabet)
                )
                if succ:
                    key = trace + (e,)
                    next_frontier[key] = next_frontier.get(key, frozenset()) | succ
        if not next_frontier:
            break
        frontier = next_frontier
    return frozenset(out)


def check_correspondence(
    term: Term, depth: int, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """Denotational trace set == operationally emittable traces, to ``depth``."""

    def fails(t: Term) -> bool:
        k = prefix_depth(t)
        return semantics(t, k, alphabet).traces != operational_traces(t, k, alphabet)

    ok = semantics(term, depth, alphabet).traces == operational_traces(term, depth, alphabet)
    return _report("correspondence", ok, seed, term, fails)


def check_doomed_normalization(
    term: Term, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """Doomed terms only tau-step, shrink each step, and bottom out at FAIL."""
    if not is_doomed(term):
        return CheckReport("doomed-normalization", True, seed)

    def fails(t: Term) -> bool:
        return is_doomed(t) and _doomed_violation(t, alphabet) is not None

    detail = _doomed_violation(term, alphabet)
    return _report("doomed-normalization", detail is None, seed, term, fails, detail or "")


def _doomed_violation(term: Term, alphabet) -> Optional[str]:
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        succs = internal_successors(current, alphabet)
        if not succs:
            if not isinstance(current, Fail):
                return f"maximal path ends at non-FAIL term {print_term(current)}"
            continue
        for t in succs:
            if t.action is not TAU:
                return f"visible action {t.action} from doomed {print_term(current)}"
            if not is_doomed(t.target):
                return f"viable successor {print_term(t.target)}"
            if term_size(t.target) >= term_size(current):
                return f"size did not shrink: {print_term(current)} -> {print_term(t.target)}"
            stack.append(t.target)
    return None


def check_doomed_iff_empty(
    term: Term, depth: int, alphabet: frozenset[str], seed: Optional[int] = None
) -> CheckReport:
    """A term is doomed exactly when its trace set is empty."""

    def fails(t: Term) -> bool:
        return is_doomed(t) != semantics(t, prefix_depth(t), alphabet).is_empty()

    ok = is_doomed(term) == semantics(term, depth, alphabet).is_empty()
    return _report("doomed-iff-empty", ok, seed, term, fails)


def check_derivative_decomposition(
    term: Term,
    event: str,
    depth: int,
    alphabet: frozenset[str],
    seed: Optional[int] = None,
) -> CheckReport:
    """sem(P)(e) equals the union of sem(Q) over all Q reachable by e."""

    def both_sides(t: Term, e: str, k: int):
        lhs = derive(semantics(t, k, alphabet), e).traces
        rhs: frozenset[Trace] = frozenset()
        for q in visible_successors(t, e, alphabet):
            rhs |= semantics(q, k - 1, alphabet).traces
        return lhs, rhs

    def fails(t: Term) -> bool:
        k = max(prefix_depth(t), 1)
        l, r = both_sides(t, event, k)
        return l != r

    lhs, rhs = both_sides(term, event, depth)
    return _report(f"derivative-decomposition[{event}]", lhs == rhs, seed, term, fails)


def check_continuity_instance(
    t1: TraceSet,
    t1_prime: TraceSet,
    sync: frozenset[str],
    t2: TraceSet,
    alphabet: frozenset[str],
) -> CheckReport:
    """Binary-union distributivity of the parallel trace-set operator."""
    lhs = parcomp(t1.union(t1_prime), sync, t2, alphabet)
    rhs = parcomp(t1, sync, t2, alphabet).union(parcomp(t1_prime, sync, t2, alphabet))
    ok = lhs.traces == rhs.traces
    detail = "" if ok else f"lhs={sorted(lhs.traces)} rhs={sorted(rhs.traces)}"
    return CheckReport("parcomp-continuity", ok, None, None if ok else detail, detail)


def run_suite(
    terms: list[Term],
    alphabet: frozenset[str],
    base_seed: int = 0,
) -> list[CheckReport]:
    """All per-term checks over a corpus, reported one line per property."""
    reports = []
    for i, term in enumerate(terms):
        seed = base_seed + i
        k = prefix_depth(term)
        reports.append(check_correspondence(term, k, alphabet, seed))
        reports.append(check_doomed_normalization(term, alphabet, seed))
        reports.append(check_doomed_iff_empty(term, k, alphabet, seed))
        for e in sorted(alphabet):
            reports.append(
                check_derivative_decomposition(term, e, max(k, 1), alphabet, seed)
            )
    return reports
