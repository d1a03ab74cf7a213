"""Small-step transition engine for process terms.

Internal transitions carry either a visible event or the silent action tau.
Failure propagation is forced by viability side-conditions: in a parallel
composition, a component may act on its own only while the other side is
viable, so once a side is doomed the only applicable rules are the ones
that push FAIL outward.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .errors import OpenTermError
from .terms import (
    Choice,
    Event,
    Fail,
    FAIL,
    Parallel,
    Prefix,
    Stop,
    Term,
    eval_event_set,
    is_closed,
    is_doomed,
    substitute,
)
from .traces import Trace


class Tau:
    """The silent action; its one instance is TAU."""

    def __repr__(self):
        return "tau"

    def __hash__(self):
        # Fixed, unlike the default identity hash, so that transition sets
        # iterate in the same order from one run to the next.
        return 0


TAU = Tau()


class Transition(NamedTuple):
    source: Term
    action: "str | Tau"
    target: Term


@lru_cache(maxsize=None)
def internal_successors(term: Term, alphabet: frozenset[str]) -> frozenset[Transition]:
    """All one-step transitions of a closed term, deduplicated."""
    if not is_closed(term):
        raise OpenTermError(f"term has free variables: {term!r}")
    return frozenset(_successors(term, alphabet))


def _successors(term: Term, alphabet):
    # A component's steps come from the cache: residuals that share a
    # component compute its steps once.
    out = []
    if isinstance(term, (Stop, Fail)):
        return out
    if isinstance(term, Prefix):
        for e in sorted(eval_event_set(term.events, {}, alphabet)):
            out.append(Transition(term, e, substitute(Event(e), term.var, term.body)))
        return out
    if isinstance(term, Choice):
        for t in internal_successors(term.left, alphabet):
            if t.action is TAU:
                out.append(Transition(term, TAU, Choice(t.target, term.right)))
            else:
                out.append(Transition(term, t.action, t.target))
        for t in internal_successors(term.right, alphabet):
            if t.action is TAU:
                out.append(Transition(term, TAU, Choice(term.left, t.target)))
            else:
                out.append(Transition(term, t.action, t.target))
        if term.left is FAIL and term.right is FAIL:
            out.append(Transition(term, TAU, FAIL))
        return out
    assert isinstance(term, Parallel)
    sync = eval_event_set(term.sync, {}, alphabet)
    left_doomed = is_doomed(term.left)
    right_doomed = is_doomed(term.right)
    left_steps = internal_successors(term.left, alphabet)
    right_steps = internal_successors(term.right, alphabet)
    # Independent progress outside the sync set, gated on the sibling's
    # viability.
    if not right_doomed:
        for t in left_steps:
            if t.action is TAU or t.action not in sync:
                out.append(
                    Transition(term, t.action, Parallel(t.target, term.sync, term.right))
                )
    if not left_doomed:
        for t in right_steps:
            if t.action is TAU or t.action not in sync:
                out.append(
                    Transition(term, t.action, Parallel(term.left, term.sync, t.target))
                )
    # Synchronized step: both sides viable, both emit the same sync event.
    if not left_doomed and not right_doomed:
        for tl in left_steps:
            if tl.action is TAU or tl.action not in sync:
                continue
            for tr in right_steps:
                if tr.action == tl.action:
                    out.append(
                        Transition(
                            term, tl.action, Parallel(tl.target, term.sync, tr.target)
                        )
                    )
    # Both sides doomed: either may keep propagating internally.
    if left_doomed and right_doomed:
        for t in left_steps:
            if t.action is TAU:
                out.append(
                    Transition(term, TAU, Parallel(t.target, term.sync, term.right))
                )
        for t in right_steps:
            if t.action is TAU:
                out.append(
                    Transition(term, TAU, Parallel(term.left, term.sync, t.target))
                )
    # FAIL absorbs the whole composition.
    if term.left is FAIL:
        out.append(Transition(term, TAU, FAIL))
    if term.right is FAIL:
        out.append(Transition(term, TAU, FAIL))
    return out


@lru_cache(maxsize=None)
def tau_closure(term: Term, alphabet: frozenset[str]) -> frozenset[Term]:
    """Every term reachable by zero or more tau steps, intermediates included.

    Terminates because each tau step strictly shrinks the term.
    """
    seen = {term}
    frontier = [term]
    while frontier:
        current = frontier.pop()
        for t in internal_successors(current, alphabet):
            if t.action is TAU and t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return frozenset(seen)


@lru_cache(maxsize=None)
def visible_successors(
    term: Term, event: str, alphabet: frozenset[str]
) -> frozenset[Term]:
    """All terms reachable by emitting exactly ``event`` (tau steps free).

    Includes every stop along the trailing tau run, not only tau-normal
    forms.
    """
    out = set()
    for pre in tau_closure(term, alphabet):
        for t in internal_successors(pre, alphabet):
            if t.action == event:
                out |= tau_closure(t.target, alphabet)
    return frozenset(out)


def run(term: Term, trace: Trace, alphabet: frozenset[str]) -> frozenset[Term]:
    """All terms reachable by emitting ``trace``."""
    states = tau_closure(term, alphabet)
    for event in trace:
        states = frozenset(
            q for s in states for q in visible_successors(s, event, alphabet)
        )
    return states


def reachable_transitions(
    term: Term, alphabet: frozenset[str]
) -> list[Transition]:
    """Every transition reachable from ``term``, in BFS discovery order."""
    seen = {term}
    queue = deque([term])
    out = []
    while queue:
        current = queue.popleft()
        for t in sorted(
            internal_successors(current, alphabet), key=lambda t: repr(t)
        ):
            out.append(t)
            if t.target not in seen:
                seen.add(t.target)
                queue.append(t.target)
    return out
