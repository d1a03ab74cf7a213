"""Online verdict engine.

The monitor state is a set of viable residuals: terms the specification
could be in after the events consumed so far that can still accept the
empty trace.  The verdict is derived from it: RUNNING while the set is
non-empty, and FAILED (irrevocably) once it is empty, which is exactly when
the consumed trace has strayed out of the specification's trace set.
A state is its residuals and its engine, nothing more: it keeps no record
of the events fed, so its memory does not grow with the stream.

The verdict depends only on the union of the residuals' trace sets, so a
state holds one residual per AC class (``sos.ac_classes``).  A state holds
the ``sos.Engine`` of its alphabet, whose step memo maps a residual set and
an event to the next residual set, so a warm stream costs one memo hit per
event; once no state of an alphabet is left, its engine and memos are
freed.  The step enforces ``sos.RESIDUAL_CAP``, so a warm event pays no
check for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import OutOfAlphabetError
from .sos import Engine, ac_classes, engine
from .terms import Term, is_doomed
from .traces import Trace


class Verdict(enum.Enum):
    RUNNING = "RUNNING"
    FAILED = "FAILED"


@dataclass(slots=True)
class MonitorState:
    # One viable residual per AC class; empty exactly when the run has FAILED.
    residuals: frozenset[Term]
    # The engine of the spec's alphabet, held for as long as the state is.
    engine: Engine

    @property
    def verdict(self) -> Verdict:
        return Verdict.RUNNING if self.residuals else Verdict.FAILED

    @property
    def alphabet(self) -> frozenset[str]:
        return self.engine.alphabet


def init_monitor(term: Term, alphabet: frozenset[str]) -> MonitorState:
    """Start monitoring a closed specification term.

    The initial verdict is FAILED exactly when the term is already doomed,
    i.e. when even the empty trace is not permitted.  A tau step never
    changes whether a term is doomed, so the tau closure of a viable term is
    entirely viable.
    """
    held = engine(alphabet)
    residuals = frozenset() if is_doomed(term) else ac_classes(held.tau_closure(term))
    return MonitorState(residuals, held)


def feed(state: MonitorState, event: str) -> MonitorState:
    """Consume one event and return the updated state.

    Events outside the alphabet raise OutOfAlphabetError (an instrumentation
    mismatch, not a verdict), and a step past ``sos.RESIDUAL_CAP`` residuals
    raises ResidualOverflowError.  FAILED is absorbing: feeding a FAILED
    state returns that same state.
    """
    held = state.engine
    if event not in held.alphabet:
        raise OutOfAlphabetError(event)
    if not state.residuals:
        return state
    # Loaded as an attribute, which CPython specializes for a slot; a
    # method call on a callable kept in a slot is looked up afresh.
    step = held.step
    return MonitorState(step(state.residuals, event), held)


def verdict_of(state: MonitorState) -> Verdict:
    return state.verdict


def feed_all(state: MonitorState, trace: Trace) -> MonitorState:
    for event in trace:
        state = feed(state, event)
    return state
