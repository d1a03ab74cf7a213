"""Online verdict engine.

The monitor state is a set of viable residuals: terms the specification
could be in after the events consumed so far that can still accept the
empty trace.  The verdict is derived from it: RUNNING while the set is
non-empty, and FAILED (irrevocably) once it is empty, which is exactly when
the consumed trace has strayed out of the specification's trace set.

The verdict depends only on the union of the residuals' trace sets, so a
state holds one residual per AC class.  ``P |[E]| Q`` for a fixed ``E`` is
commutative and associative in trace semantics, ``P [] Q`` is also
idempotent, and both laws preserve doomedness; residuals equal modulo these
laws are one class, and the first one reached stands for it (normalization
modulo AC: Baader & Nipkow, *Term Rewriting and All That*, 1998).  Each
kept residual is still a term the transition engine reaches.  A step from a
residual set on an event is memoized, as a lazy DFA caches its states
(Cox, "Regular Expression Matching in the Wild", 2010), so a warm stream
costs one memo hit per event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import OutOfAlphabetError, ResidualOverflowError
from .sos import advance, tau_closure
from .terms import Choice, Parallel, Term, is_doomed
from .traces import Trace

# Most residuals a state may hold; feed raises ResidualOverflowError past it.
RESIDUAL_CAP = 10**6
# Most (residual set, event, alphabet) steps the step memo keeps.
STEP_MEMO_SIZE = 1 << 10


class Verdict(enum.Enum):
    RUNNING = "RUNNING"
    FAILED = "FAILED"


@dataclass(slots=True)
class MonitorState:
    # One viable residual per AC class; empty exactly when the run has FAILED.
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
    residuals = frozenset() if is_doomed(term) else _classes(tau_closure(term, alphabet))
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
        residuals = _next(state.residuals, event, state.alphabet)
        if len(residuals) > RESIDUAL_CAP:
            raise ResidualOverflowError(len(residuals), RESIDUAL_CAP)
    return MonitorState(residuals, state.alphabet, state.strict, (state.trail, event))


@lru_cache(maxsize=STEP_MEMO_SIZE)
def _next(residuals: frozenset[Term], event: str, alphabet: frozenset[str]) -> frozenset[Term]:
    """The state a residual set reaches on ``event``, one residual per class."""
    return _classes(advance(residuals, event, alphabet))


def _classes(terms) -> frozenset[Term]:
    """The first viable term of each AC class among ``terms``.

    Doomed terms are dropped: they can never become viable again.  A lone
    viable term is its own class, so its key is not worked out.
    """
    viable = [term for term in terms if not is_doomed(term)]
    if len(viable) < 2:
        return frozenset(viable)
    kept = {}
    for term in viable:
        kept.setdefault(_key(term), term)
    return frozenset(kept.values())


def _key(term: Term):
    """A term's AC class, found without recursion.

    A run of nested choices is the set of its operands (``[]`` is
    idempotent).  A run of nested parallels on the same sync node (one object,
    since nodes are interned) is that node with its operands as a multiset
    (``|[E]|`` is not idempotent), sorted by ``id``: unlike ``hash`` (STOP
    and FAIL hash alike), it cannot tie, and the order never leaves the key.
    Any other term is its own class.
    """
    kind = type(term)
    if kind is not Choice and kind is not Parallel:
        return term
    sync = term.sync if kind is Parallel else None
    operands = []
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node) is kind and (sync is None or node.sync is sync):
            stack += (node.left, node.right)
        else:
            operands.append(node)
    if sync is None:
        return frozenset(operands)
    return sync, tuple(sorted(operands, key=id))


def verdict_of(state: MonitorState) -> Verdict:
    return state.verdict


def feed_all(state: MonitorState, trace: Trace) -> MonitorState:
    for event in trace:
        state = feed(state, event)
    return state
