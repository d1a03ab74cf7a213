"""Online verdict engine.

The monitor state is a set of viable residuals: terms the specification
could be in after the events consumed so far that can still accept the
empty trace.  The verdict is derived from it: RUNNING while the set is
non-empty, and FAILED (irrevocably) once it is empty, which is exactly when
the consumed trace has strayed out of the specification's trace set.
A state keeps no record of the events fed, so its memory does not grow
with the stream.

The verdict depends only on the union of the residuals' trace sets, so a
state holds one residual per AC class (``sos.ac_classes``), and a step
takes no tau step (``sos._step``).  A state is a node of a lazy DFA: the
``sos.Engine`` of its alphabet, which the state holds, interns states by
residual set, and each state's ``_next`` dict maps an event already fed to
it to the next state, so a warm event is one dict lookup.  The engine
flushes every edge past ``sos.EDGE_CAP`` new edges and states; once no
state of an alphabet is left, its engine and memos are freed.  The step
enforces ``sos.RESIDUAL_CAP`` before anything is stored.
"""

from __future__ import annotations

import enum
import weakref

from . import sos
from .errors import OutOfAlphabetError
from .sos import Engine, engine
from .terms import Term, is_doomed
from .traces import Trace


class Verdict(enum.Enum):
    RUNNING = "RUNNING"
    FAILED = "FAILED"


class MonitorState:
    __slots__ = ("residuals", "engine", "_next", "__weakref__")

    def __init__(self, residuals: frozenset[Term], engine: Engine):
        # One viable residual per AC class; empty exactly when the run has FAILED.
        self.residuals = residuals
        # The engine of the spec's alphabet, held for as long as the state is.
        self.engine = engine
        # Event -> next state, for the events fed here since the last flush.
        # Never holds an event outside the alphabet, nor any edge of FAILED.
        self._next: dict[str, MonitorState] = {}

    def __repr__(self):
        return f"MonitorState(residuals={self.residuals!r}, engine={self.engine!r})"

    @property
    def verdict(self) -> Verdict:
        return Verdict.RUNNING if self.residuals else Verdict.FAILED

    @property
    def alphabet(self) -> frozenset[str]:
        return self.engine.alphabet


def _state(held: Engine, residuals: frozenset[Term]) -> MonitorState:
    """The engine's state of ``residuals``, made if no live one exists."""
    ref = held.states.get(residuals)
    state = ref() if ref is not None else None
    if state is None:
        _spend(held)
        state = MonitorState(residuals, held)
        held.states[residuals] = weakref.ref(state)
    return state


def _spend(held: Engine) -> None:
    """Count one new edge or state, flushing the DFA once the room is gone."""
    if held.room <= 0:
        sos._flush(held)
    held.room -= 1


def init_monitor(term: Term, alphabet: frozenset[str]) -> MonitorState:
    """Start monitoring a closed specification term.

    The initial verdict is FAILED exactly when the term is already doomed,
    i.e. when even the empty trace is not permitted.
    """
    return _state(engine(alphabet), frozenset() if is_doomed(term) else frozenset((term,)))


def feed(state: MonitorState, event: str) -> MonitorState:
    """Consume one event and return the updated state.

    Events outside the alphabet raise OutOfAlphabetError (an instrumentation
    mismatch, not a verdict), and a step past ``sos.RESIDUAL_CAP`` residuals
    raises ResidualOverflowError.  FAILED is absorbing: feeding a FAILED
    state returns that same state.
    """
    target = state._next.get(event)
    if target is not None:
        return target
    held = state.engine
    if event not in held.alphabet:
        raise OutOfAlphabetError(event)
    if not state.residuals:
        return state
    target = _state(held, sos._step(held, state.residuals, event))
    _spend(held)
    state._next[event] = target
    return target


def verdict_of(state: MonitorState) -> Verdict:
    return state.verdict


def feed_all(state: MonitorState, trace: Trace) -> MonitorState:
    for event in trace:
        state = feed(state, event)
    return state
