"""Online verdict engine.

The monitor state is the set of viable residuals: every term the
specification could be in after the events consumed so far that can still
accept the empty trace.  The verdict is derived from it: RUNNING while the
set is non-empty, and FAILED (irrevocably) once it is empty, which is
exactly when the consumed trace has strayed out of the specification's
trace set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import OutOfAlphabetError, ResidualOverflowError
from .sos import advance, tau_closure
from .terms import Term, is_doomed
from .traces import Trace

# Most residuals a state may hold; feed raises ResidualOverflowError past it.
RESIDUAL_CAP = 10**6


class Verdict(enum.Enum):
    RUNNING = "RUNNING"
    FAILED = "FAILED"


@dataclass(frozen=True)
class MonitorState:
    # The viable residuals; empty exactly when the run has FAILED.
    residuals: frozenset[Term]
    alphabet: frozenset[str]
    strict: bool = False
    # The consumed events as a persistent list, newest first: None or
    # ``(previous trail, event)``.  Feeding shares the previous trail instead
    # of copying it, so a stream costs linear time.  Left out of equality
    # and repr, which would otherwise recurse once per event.
    trail: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def verdict(self) -> Verdict:
        return Verdict.RUNNING if self.residuals else Verdict.FAILED

    @property
    def consumed(self) -> Trace:
        """Every event fed so far, oldest first."""
        events = []
        node = self.trail
        while node is not None:
            node, event = node
            events.append(event)
        return tuple(reversed(events))


def init_monitor(term: Term, alphabet: frozenset[str], *, strict: bool = False) -> MonitorState:
    """Start monitoring a closed specification term.

    The initial verdict is FAILED exactly when the term is already doomed,
    i.e. when even the empty trace is not permitted.  A tau step never
    changes whether a term is doomed, so the tau closure of a viable term is
    entirely viable.
    """
    residuals = frozenset() if is_doomed(term) else tau_closure(term, alphabet)
    return MonitorState(residuals, alphabet, strict)


def feed(state: MonitorState, event: str) -> MonitorState:
    """Consume one event and return the updated state.

    FAILED is absorbing.  Events outside the alphabet raise
    OutOfAlphabetError (an instrumentation mismatch, not a verdict) unless
    the monitor is strict, in which case they fail the run.
    """
    residuals = frozenset()
    if event not in state.alphabet:
        if not state.strict:
            raise OutOfAlphabetError(event)
    elif state.residuals:
        reached = advance(state.residuals, event, state.alphabet)
        if len(reached) > RESIDUAL_CAP:
            raise ResidualOverflowError(len(reached), RESIDUAL_CAP)
        # Doomed residuals can never become viable again.
        residuals = frozenset(r for r in reached if not is_doomed(r))
    return MonitorState(residuals, state.alphabet, state.strict, (state.trail, event))


def verdict_of(state: MonitorState) -> Verdict:
    return state.verdict


def feed_all(state: MonitorState, trace: Trace) -> MonitorState:
    for event in trace:
        state = feed(state, event)
    return state
