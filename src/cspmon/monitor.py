"""Online verdict engine.

The monitor tracks every residual term the specification could be in after
the events consumed so far.  The verdict is RUNNING while at least one
residual is viable, and FAILED (irrevocably) as soon as none is, which is
exactly when the consumed trace has strayed out of the specification's
trace set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import OutOfAlphabetError, ResidualOverflowError
from .sos import tau_closure, visible_successors
from .terms import Term, is_doomed
from .traces import Trace

# Most residuals a state may hold; feed raises ResidualOverflowError past it.
RESIDUAL_CAP = 10**6


class Verdict(enum.Enum):
    RUNNING = "RUNNING"
    FAILED = "FAILED"


@dataclass(frozen=True)
class MonitorState:
    residuals: frozenset[Term]
    verdict: Verdict
    alphabet: frozenset[str]
    strict: bool = False
    # The consumed events as a persistent list, newest first: None or
    # ``(previous trail, event)``.  Feeding shares the previous trail instead
    # of copying it, so a stream costs linear time.  Left out of equality
    # and repr, which would otherwise recurse once per event.
    trail: tuple | None = field(default=None, compare=False, repr=False)

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
    i.e. when even the empty trace is not permitted.
    """
    residuals = tau_closure(term, alphabet)
    verdict = (
        Verdict.RUNNING if any(not is_doomed(r) for r in residuals) else Verdict.FAILED
    )
    return MonitorState(residuals, verdict, alphabet, strict)


def _advance(state, residuals, verdict, event) -> MonitorState:
    return MonitorState(residuals, verdict, state.alphabet, state.strict, (state.trail, event))


def feed(state: MonitorState, event: str) -> MonitorState:
    """Consume one event and return the updated state.

    FAILED is absorbing.  Events outside the alphabet raise
    OutOfAlphabetError (an instrumentation mismatch, not a verdict) unless
    the monitor is strict, in which case they fail the run.
    """
    if event not in state.alphabet:
        if state.strict:
            return _advance(state, frozenset(), Verdict.FAILED, event)
        raise OutOfAlphabetError(event)
    if state.verdict is Verdict.FAILED:
        return _advance(state, state.residuals, Verdict.FAILED, event)
    residuals = set()
    for r in state.residuals:
        if is_doomed(r):
            continue  # doomed residuals emit nothing visible
        residuals |= visible_successors(r, event, state.alphabet)
    if len(residuals) > RESIDUAL_CAP:
        raise ResidualOverflowError(len(residuals), RESIDUAL_CAP)
    viable = frozenset(r for r in residuals if not is_doomed(r))
    if viable:
        # Doomed residuals can never become viable again; drop them while a
        # viable sibling keeps the verdict alive.
        return _advance(state, viable, Verdict.RUNNING, event)
    return _advance(state, frozenset(residuals), Verdict.FAILED, event)


def verdict_of(state: MonitorState) -> Verdict:
    return state.verdict


def feed_all(state: MonitorState, trace: Trace) -> MonitorState:
    for event in trace:
        state = feed(state, event)
    return state
