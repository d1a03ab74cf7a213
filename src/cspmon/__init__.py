"""Runtime monitoring for a CSP-style process algebra with explicit failure.

The package pairs two independent semantics of the same term language: a
small-step transition engine that drives an online monitor, and a
denotational trace-set evaluator used as its oracle in conformance tests.
"""

from .errors import (
    CspmonError,
    OpenTermError,
    OutOfAlphabetError,
    ParseError,
    ResidualOverflowError,
    UnboundVariableError,
    UndeclaredEventError,
)
from .monitor import MonitorState, Verdict, feed, feed_all, init_monitor, verdict_of
from .sos import TAU, Transition, internal_successors, run, tau_closure, visible_successors
from .syntax import SpecFile, parse_spec, parse_term, print_term
from .terms import (
    Choice,
    Event,
    EventVar,
    Fail,
    FullAlphabet,
    Literal,
    Parallel,
    Prefix,
    Stop,
    Term,
    eval_event_set,
    is_doomed,
    substitute,
    term_size,
)
from .traces import TraceSet, derive, parcomp, prepend_adjoin, semantics

# The public API, as README's "Library API" lists it, grouped by module.
# Submodules are imported by name (``from cspmon import sos``), not listed here.
__all__ = [
    "CspmonError", "OpenTermError", "OutOfAlphabetError", "ParseError",
    "ResidualOverflowError", "UnboundVariableError", "UndeclaredEventError",
    "Term", "Stop", "Fail", "Prefix", "Choice", "Parallel", "Event", "EventVar", "Literal",
    "FullAlphabet", "eval_event_set", "is_doomed", "substitute", "term_size",
    "SpecFile", "parse_spec", "parse_term", "print_term",
    "TAU", "Transition", "internal_successors", "run", "tau_closure", "visible_successors",
    "MonitorState", "Verdict", "init_monitor", "feed", "feed_all", "verdict_of",
    "TraceSet", "semantics", "derive", "parcomp", "prepend_adjoin",
]
