"""Denotational trace semantics: prefix-closed sets of finite traces.

The semantic map assigns each closed term the set of traces it can emit.  A
trace set is just that finite set: the term language has no recursion, so
every term has finitely many traces, none longer than its ``prefix_depth``.
A depth appears only where a set is truncated: ``semantics`` keeps the
traces of length <= ``depth``, and ``parcomp`` stops merging at ``depth``.

``semantics`` is memoized on its exact arguments.  Terms are interned, so a
lookup hashes and compares the node in O(1), and a hit returns without
recursing.  Unlike the ``sos`` caches the memo is bounded: it keeps the
``SEMANTICS_MEMO_SIZE`` most recently used entries.  That suffices because
most repeats come from the checks of one term, which evaluate the same
subterms at the same depths again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

SEMANTICS_MEMO_SIZE = 1 << 12


@dataclass(frozen=True)
class TraceSet:
    traces: frozenset[Trace]

    def is_empty(self) -> bool:
        return not self.traces

    def union(self, other: "TraceSet") -> "TraceSet":
        return TraceSet(self.traces | other.traces)


EMPTY_TRACE_SET = TraceSet(frozenset())
EPSILON_TRACE_SET = TraceSet(frozenset({EPSILON}))


def prepend_adjoin(event: str, ts: TraceSet) -> TraceSet:
    """``e T``: prepend ``event`` to every trace of ``ts`` and adjoin epsilon."""
    traces = {EPSILON}
    traces.update((event,) + t for t in ts.traces)
    return TraceSet(frozenset(traces))


def derive(ts: TraceSet, event: str) -> TraceSet:
    """``T(e)``: traces of ``ts`` starting with ``event``, head removed."""
    return TraceSet(frozenset(t[1:] for t in ts.traces if t and t[0] == event))


def parcomp(
    t1: TraceSet,
    sync: frozenset[str],
    t2: TraceSet,
    alphabet: frozenset[str],
    depth: int,
) -> TraceSet:
    """The parallel operator on trace sets, synchronized on ``sync``.

    If either operand is empty the result is empty; otherwise events in
    ``sync`` advance both sides in lockstep and all other alphabet events
    interleave.

    The result holds the merged traces of length <= ``depth``.  A per-call
    memo table keeps the derivative recursion polynomial.
    """
    return TraceSet(_parcomp(t1.traces, sync, t2.traces, alphabet, depth, {}))


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
            out.update((e,) + t for t in sub)
    result = frozenset(out)
    memo[key] = result
    return result


@lru_cache(maxsize=SEMANTICS_MEMO_SIZE)
def semantics(term: Term, depth: int, alphabet: frozenset[str]) -> TraceSet:
    """The traces of length <= ``depth`` of a closed term.

    STOP denotes {epsilon}, FAIL the empty set, prefix adjoins epsilon and
    branches over its event set, choice is union, and parallel is
    ``parcomp``.
    """
    if isinstance(term, Stop):
        return EPSILON_TRACE_SET
    if isinstance(term, Fail):
        return EMPTY_TRACE_SET
    if isinstance(term, Prefix):
        result = EPSILON_TRACE_SET
        if depth <= 0:
            return result
        events = eval_event_set(term.events, alphabet)
        for e in sorted(events):
            sub = semantics(substitute(Event(e), term.var, term.body), depth - 1, alphabet)
            result = result.union(prepend_adjoin(e, sub))
        return result
    if isinstance(term, Choice):
        return semantics(term.left, depth, alphabet).union(
            semantics(term.right, depth, alphabet)
        )
    assert isinstance(term, Parallel)
    sync = eval_event_set(term.sync, alphabet)
    return parcomp(
        semantics(term.left, depth, alphabet),
        sync,
        semantics(term.right, depth, alphabet),
        alphabet,
        depth,
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
