"""Small-step transition engine for process terms.

The step relation is labelled, ``P --a--> P'`` (Plotkin's structural
operational semantics): a transition of a term is an ``(action, target)``
pair, whose action is a visible event or the silent action tau.
Failure propagation is forced by viability side-conditions: in a parallel
composition, a component may act on its own only while the other side is
viable, so once a side is doomed the only applicable rules are the ones
that push FAIL outward.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .errors import OpenTermError
from .syntax import print_term
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


# A step of a term: the action it emits and the term it becomes.
Transition = tuple["str | Tau", Term]


@lru_cache(maxsize=None)
def internal_successors(term: Term, alphabet: frozenset[str]) -> frozenset[Transition]:
    """All one-step ``(action, target)`` pairs of a closed term, deduplicated."""
    if not is_closed(term):
        raise OpenTermError(f"term has free variables: {term!r}")
    return frozenset(_successors(term, alphabet))


def _successors(term: Term, alphabet):
    # A component's steps come from the cache: residuals that share a
    # component compute its steps once.  TAU is in no sync set.
    out = []
    if isinstance(term, (Stop, Fail)):
        return out
    if isinstance(term, Prefix):
        for e in sorted(eval_event_set(term.events, alphabet)):
            out.append((e, substitute(Event(e), term.var, term.body)))
        return out
    if isinstance(term, Choice):
        for a, t in internal_successors(term.left, alphabet):
            out.append((a, Choice(t, term.right) if a is TAU else t))
        for a, t in internal_successors(term.right, alphabet):
            out.append((a, Choice(term.left, t) if a is TAU else t))
        if term.left is FAIL and term.right is FAIL:
            out.append((TAU, FAIL))
        return out
    assert isinstance(term, Parallel)
    sync = eval_event_set(term.sync, alphabet)
    left_doomed = is_doomed(term.left)
    right_doomed = is_doomed(term.right)
    left_steps = internal_successors(term.left, alphabet)
    right_steps = internal_successors(term.right, alphabet)
    # Independent progress outside the sync set, gated on the sibling's
    # viability.
    if not right_doomed:
        for a, t in left_steps:
            if a not in sync:
                out.append((a, Parallel(t, term.sync, term.right)))
    if not left_doomed:
        for a, t in right_steps:
            if a not in sync:
                out.append((a, Parallel(term.left, term.sync, t)))
    # Synchronized step: both sides viable, both emit the same sync event.
    if not left_doomed and not right_doomed:
        for a, left in left_steps:
            if a in sync:
                for b, right in right_steps:
                    if b == a:
                        out.append((a, Parallel(left, term.sync, right)))
    # Both sides doomed: either may keep propagating internally.
    if left_doomed and right_doomed:
        for a, t in left_steps:
            if a is TAU:
                out.append((TAU, Parallel(t, term.sync, term.right)))
        for a, t in right_steps:
            if a is TAU:
                out.append((TAU, Parallel(term.left, term.sync, t)))
    # FAIL absorbs the whole composition.
    if term.left is FAIL:
        out.append((TAU, FAIL))
    if term.right is FAIL:
        out.append((TAU, FAIL))
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
        for a, t in internal_successors(current, alphabet):
            if a is TAU and t not in seen:
                seen.add(t)
                frontier.append(t)
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
        for a, t in internal_successors(pre, alphabet):
            if a == event:
                out |= tau_closure(t, alphabet)
    return frozenset(out)


def advance(
    states: frozenset[Term], event: str, alphabet: frozenset[str]
) -> frozenset[Term]:
    """All terms reachable from some term of ``states`` by emitting ``event``."""
    out = set()
    for s in states:
        out |= visible_successors(s, event, alphabet)
    return frozenset(out)


def run(term: Term, trace: Trace, alphabet: frozenset[str]) -> frozenset[Term]:
    """All terms reachable by emitting ``trace``."""
    states = tau_closure(term, alphabet)
    for event in trace:
        states = advance(states, event, alphabet)
    return states


def reachable_transitions(
    term: Term, alphabet: frozenset[str]
) -> list[tuple[Term, "str | Tau", Term]]:
    """Every ``(source, action, target)`` reachable from ``term``, in BFS order.

    Each source's steps are ordered by action name, then by printed target.
    """
    seen = {term}
    queue = deque([term])
    out = []
    while queue:
        source = queue.popleft()
        steps = internal_successors(source, alphabet)
        for action, target in sorted(steps, key=lambda s: (str(s[0]), print_term(s[1]))):
            out.append((source, action, target))
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return out
