"""Denotational trace semantics: prefix-closed trace sets at a depth bound.

The semantic map assigns each closed term the set of traces it can emit.
All sets here are finite and carry ``exact_depth``: the set stores exactly
the traces of length <= exact_depth of the (conceptually unbounded) set it
approximates.  Without recursion in the term language every semantic set is
actually finite, but the bound keeps truncation explicit and future-proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Choice,
    Event,
    Fail,
    Parallel,
    Prefix,
    Stop,
    Term,
    eval_event_set,
    substitute,
)

Trace = tuple[str, ...]

EPSILON: Trace = ()


@dataclass(frozen=True)
class TraceSet:
    traces: frozenset[Trace]
    exact_depth: int

    def __post_init__(self):
        assert all(len(t) <= self.exact_depth for t in self.traces)

    def is_empty(self) -> bool:
        return not self.traces

    def union(self, other: "TraceSet") -> "TraceSet":
        depth = min(self.exact_depth, other.exact_depth)
        merged = frozenset(
            t for t in self.traces | other.traces if len(t) <= depth
        )
        return TraceSet(merged, depth)


def empty_trace_set(depth: int) -> TraceSet:
    return TraceSet(frozenset(), depth)


def epsilon_trace_set(depth: int) -> TraceSet:
    return TraceSet(frozenset({EPSILON}), depth)


def prepend_adjoin(event: str, ts: TraceSet, cap: int | None = None) -> TraceSet:
    """``e T``: prepend ``event`` to every trace of ``ts`` and adjoin epsilon.

    The result is exact to depth ``ts.exact_depth + 1``, clamped to ``cap``
    when given; traces beyond the resulting depth are truncated away.
    """
    depth = ts.exact_depth + 1
    if cap is not None:
        depth = min(depth, cap)
    traces = {EPSILON}
    for t in ts.traces:
        if len(t) + 1 <= depth:
            traces.add((event,) + t)
    return TraceSet(frozenset(traces), depth)


def derive(ts: TraceSet, event: str) -> TraceSet:
    """``T(e)``: traces of ``ts`` starting with ``event``, head removed."""
    return TraceSet(
        frozenset(t[1:] for t in ts.traces if t and t[0] == event),
        max(ts.exact_depth - 1, 0),
    )


def parcomp(
    t1: TraceSet,
    sync: frozenset[str],
    t2: TraceSet,
    alphabet: frozenset[str],
) -> TraceSet:
    """The parallel operator on trace sets, synchronized on ``sync``.

    If either operand is empty the result is empty; otherwise events in
    ``sync`` advance both sides in lockstep and all other alphabet events
    interleave.

    The result is exact to ``min`` of the operand depths.  A per-call memo
    table keeps the derivative recursion polynomial.
    """
    depth = min(t1.exact_depth, t2.exact_depth)
    memo: dict = {}
    traces = _parcomp(t1.traces, sync, t2.traces, alphabet, depth, memo)
    return TraceSet(traces, depth)


def _parcomp(s1, sync, s2, alphabet, budget, memo):
    if not s1 or not s2:
        return frozenset()
    if budget <= 0:
        return frozenset({EPSILON})
    key = (s1, s2, budget)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = {EPSILON}
    for e in alphabet:
        d1 = frozenset(t[1:] for t in s1 if t and t[0] == e)
        d2 = frozenset(t[1:] for t in s2 if t and t[0] == e)
        if e in sync:
            branches = [_parcomp(d1, sync, d2, alphabet, budget - 1, memo)]
        else:
            branches = [
                _parcomp(d1, sync, s2, alphabet, budget - 1, memo),
                _parcomp(s1, sync, d2, alphabet, budget - 1, memo),
            ]
        for sub in branches:
            for t in sub:
                if len(t) + 1 <= budget:
                    out.add((e,) + t)
    result = frozenset(out)
    memo[key] = result
    return result


def semantics(term: Term, depth: int, alphabet: frozenset[str]) -> TraceSet:
    """The trace set of a closed term, exact to ``depth``.

    STOP denotes {epsilon}, FAIL the empty set, prefix adjoins epsilon and
    branches over its event set, choice is union, and parallel is
    ``parcomp``.
    """
    if isinstance(term, Stop):
        return epsilon_trace_set(depth)
    if isinstance(term, Fail):
        return empty_trace_set(depth)
    if isinstance(term, Prefix):
        if depth <= 0:
            return epsilon_trace_set(depth)
        result = epsilon_trace_set(depth)
        events = eval_event_set(term.events, {}, alphabet)
        for e in sorted(events):
            sub = semantics(substitute(Event(e), term.var, term.body), depth - 1, alphabet)
            result = result.union(prepend_adjoin(e, sub, cap=depth))
        return result
    if isinstance(term, Choice):
        return semantics(term.left, depth, alphabet).union(
            semantics(term.right, depth, alphabet)
        )
    assert isinstance(term, Parallel)
    sync = eval_event_set(term.sync, {}, alphabet)
    return parcomp(
        semantics(term.left, depth, alphabet),
        sync,
        semantics(term.right, depth, alphabet),
        alphabet,
    )


# --- serialization --------------------------------------------------------


def format_trace(trace: Trace) -> str:
    """Dot-separated event names; the empty trace renders as an empty string."""
    return ".".join(trace)


def parse_trace(text: str) -> Trace:
    text = text.strip()
    if not text:
        return EPSILON
    return tuple(part.strip() for part in text.split("."))


def canonical_traces(ts: TraceSet) -> list[Trace]:
    """Stable output order: by length, then lexicographically by event name."""
    return sorted(ts.traces, key=lambda t: (len(t), t))
