"""Small-step transition engine for process terms.

The step relation is labelled, ``P --a--> P'`` (Plotkin's structural
operational semantics): a transition of a term is an ``(action, target)``
pair, whose action is a visible event or the silent action tau.
Failure propagation is forced by viability side-conditions: in a parallel
composition, a component may act on its own only while the other side is
viable, so once a side is doomed the only applicable rules are the ones
that push FAIL outward.

An ``Engine`` holds one alphabet and owns that alphabet's memos: the
successors, tau closure and visible successors of each term, each bounded,
and the states of the monitor's lazy DFA.  ``engine(alphabet)`` returns
the live engine of an alphabet.  A caller holds its engine for as long as
it uses it (a monitor state holds its own), and once nothing holds an
engine its memos are freed with it, as monitor state that nothing can
reach is freed in Jin, Meredith, Griffith & Roşu, "Garbage Collection for
Monitoring Parametric Properties" (PLDI 2011).  The module-level
functions take the alphabet and call its engine.

The monitor and the conformance oracle take one step, ``_step``, and it
takes no tau step.  Tau steps come only from the FAIL rules, and in a
viable term they rewrite only doomed operands of a choice; a doomed term
has no visible step and an empty trace set.  So a viable term's
tau-successors have its trace set, and their visible targets differ from
its own only by tau steps: the term's own visible steps reach everything
the verdict needs.  That holds up to trace equality, which is all a
verdict reads.

A step keeps one viable target per AC class.  ``P |[E]| Q`` for a fixed
``E`` is commutative and associative in trace semantics, ``P [] Q`` is
also idempotent, and both laws preserve doomedness; targets equal modulo
these laws are one class, and the first one reached stands for it
(normalization modulo AC: Baader & Nipkow, *Term Rewriting and All That*,
1998).  Each kept target is still a term this engine reaches: the step
expands only what it keeps, as partial derivatives do (Antimirov, TCS
1996).  The residual sets are the states of a lazy DFA, built on demand
and cached as RE2 caches its states (Cox, "Regular Expression Matching in
the Wild", 2010): the engine interns the monitor's states by residual set,
each state keeps its own ``event -> state`` edges, and past ``EDGE_CAP``
new edges and states the engine flushes every edge.  A step past
``RESIDUAL_CAP`` residuals raises, so no such set is ever stored.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import lru_cache, partial
from types import SimpleNamespace

from .errors import OpenTermError, ResidualOverflowError
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
    free_vars,
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

# Most entries each term memo of an engine keeps.
TERM_MEMO_SIZE = 1 << 14
# Most edges and new states an engine's DFA takes on between two flushes.
EDGE_CAP = 1 << 14
# Most residuals a monitor step may reach; past it, ResidualOverflowError.
RESIDUAL_CAP = 10**6
# The memos an engine owns, by attribute name.
_MEMOS = ("internal_successors", "tau_closure", "visible_successors")


class Engine:
    """One alphabet's step relation: a bounded memo per term function, and
    the monitor's lazy DFA.

    Each memo is an ``lru_cache`` of ``TERM_MEMO_SIZE`` entries keyed on the
    term (``visible_successors``: and the event), never on the alphabet.
    The memos reach their engine through a weak proxy.  ``states`` maps a
    residual set to a weak reference, without a callback, to the monitor
    state of that set; a dead state's entry stays until the next flush.
    A state holds its engine and its edges hold later states, never earlier
    ones, so an engine is in no reference cycle and is freed as soon as
    nothing holds it.  ``room`` counts the edges and states the DFA may
    still take on before it is flushed.
    """

    __slots__ = ("alphabet", *_MEMOS, "states", "room", "__weakref__")

    def __init__(self, alphabet: frozenset[str]):
        me = weakref.proxy(self)
        self.alphabet = alphabet
        memo = lru_cache(maxsize=TERM_MEMO_SIZE)
        self.internal_successors = memo(partial(_internal_successors, me))
        self.tau_closure = memo(partial(_tau_closure, me))
        self.visible_successors = memo(partial(_visible_successors, me))
        self.states: dict[frozenset[Term], weakref.ref] = {}
        self.room = EDGE_CAP
        memos = {name: getattr(self, name) for name in _MEMOS}
        weakref.finalize(self, _retire, memos).atexit = False

    def __repr__(self):
        return f"Engine({sorted(self.alphabet)!r})"


_engines: weakref.WeakValueDictionary[frozenset[str], Engine] = weakref.WeakValueDictionary()
# The engine that engine() returned last, and the set it was asked for.
_last: Engine | None = None
_last_alphabet: frozenset[str] | None = None
# Hits and misses of the memos of the engines already freed, by memo name.
_freed = {name: [0, 0] for name in _MEMOS}


def engine(alphabet: frozenset[str]) -> Engine:
    """The live engine of ``alphabet``, built if there is none.

    The engine returned last stays alive even when no caller holds it, so
    calls on one alphabet one after another (``cspmon check`` runs its
    suite one term at a time) keep its memos warm.
    """
    global _last, _last_alphabet
    if alphabet is _last_alphabet:
        return _last
    found = _engines.get(alphabet)
    if found is None:
        found = _engines[alphabet] = Engine(alphabet)
    _last, _last_alphabet = found, alphabet
    return found


def _retire(memos) -> None:
    """Add a freed engine's memo statistics to the process-wide totals."""
    for name, memo in memos.items():
        info = memo.cache_info()
        _freed[name][0] += info.hits
        _freed[name][1] += info.misses


def _memo_info(name: str) -> SimpleNamespace:
    """Process-wide hits and misses of one memo, freed engines included, and
    the entries that live engines hold."""
    hits, misses = _freed[name]
    entries = 0
    for live in _engines.values():
        info = getattr(live, name).cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return SimpleNamespace(hits=hits, misses=misses, currsize=entries)


def _clear_memos() -> None:
    """Empty every memo of every live engine, flush its DFA and zero the
    statistics."""
    for live in _engines.values():
        for name in _MEMOS:
            getattr(live, name).cache_clear()
        _flush(live)
    for counts in _freed.values():
        counts[:] = [0, 0]


def _flush(eng: Engine) -> None:
    """Empty every live state's edges and forget the dead states.

    Live states stay in the table, so that no later flush misses an edge
    of theirs.
    """
    live = {}
    for residuals, ref in eng.states.items():
        state = ref()
        if state is not None:
            state._next.clear()
            live[residuals] = ref
    eng.states = live
    eng.room = EDGE_CAP


def _reports_on_memo(wrapper):
    """Give a module-level wrapper ``cache_info`` and ``cache_clear``, as an
    ``lru_cache`` has, over the engines' memo of the same name."""
    wrapper.cache_info = partial(_memo_info, wrapper.__name__)
    wrapper.cache_clear = _clear_memos
    return wrapper


@_reports_on_memo
def internal_successors(term: Term, alphabet: frozenset[str]) -> frozenset[Transition]:
    """All one-step ``(action, target)`` pairs of a closed term, deduplicated."""
    return engine(alphabet).internal_successors(term)


@_reports_on_memo
def tau_closure(term: Term, alphabet: frozenset[str]) -> frozenset[Term]:
    """Every term reachable by zero or more tau steps, intermediates included.

    Terminates because each tau step strictly shrinks the term.
    """
    return engine(alphabet).tau_closure(term)


@_reports_on_memo
def visible_successors(term: Term, event: str, alphabet: frozenset[str]) -> frozenset[Term]:
    """All terms reachable by emitting exactly ``event`` (tau steps free).

    Includes every stop along the trailing tau run, not only tau-normal
    forms.
    """
    return engine(alphabet).visible_successors(term, event)


# --- the engine's memoized functions ------------------------------------------


def _internal_successors(eng: Engine, term: Term) -> frozenset[Transition]:
    if not is_closed(term):
        names = ", ".join(sorted(v.name for v in free_vars(term)))
        raise OpenTermError(f"term has free variables: {names}")
    return frozenset(_successors(eng, term))


def _successors(eng: Engine, term: Term):
    # A component's steps come from the memo: residuals that share a
    # component compute its steps once.  TAU is in no sync set.
    out = []
    if isinstance(term, (Stop, Fail)):
        return out
    if isinstance(term, Prefix):
        for e in sorted(eval_event_set(term.events, eng.alphabet)):
            out.append((e, substitute(Event(e), term.var, term.body)))
        return out
    if isinstance(term, Choice):
        for a, t in eng.internal_successors(term.left):
            out.append((a, Choice(t, term.right) if a is TAU else t))
        for a, t in eng.internal_successors(term.right):
            out.append((a, Choice(term.left, t) if a is TAU else t))
        if term.left is FAIL and term.right is FAIL:
            out.append((TAU, FAIL))
        return out
    assert isinstance(term, Parallel)
    sync = eval_event_set(term.sync, eng.alphabet)
    left_doomed = is_doomed(term.left)
    right_doomed = is_doomed(term.right)
    left_steps = eng.internal_successors(term.left)
    right_steps = eng.internal_successors(term.right)
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


def _tau_closure(eng: Engine, term: Term) -> frozenset[Term]:
    seen = {term}
    frontier = [term]
    while frontier:
        current = frontier.pop()
        for a, t in eng.internal_successors(current):
            if a is TAU and t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


def _visible_successors(eng: Engine, term: Term, event: str) -> frozenset[Term]:
    out = set()
    for pre in eng.tau_closure(term):
        for a, t in eng.internal_successors(pre):
            if a == event:
                out |= eng.tau_closure(t)
    return frozenset(out)


def _step(eng: Engine, residuals: frozenset[Term], event: str) -> frozenset[Term]:
    """The residual set that ``residuals`` reach on ``event``: the first
    viable target of each AC class among the residuals' own steps.

    Takes no tau step (sound for the reasons the module docstring gives).
    The union of the residuals' trace sets after the event is that of
    ``run``'s tau-closed states; the sets themselves differ.
    """
    successors = eng.internal_successors
    reached = ac_classes([
        t for s in residuals for a, t in successors(s) if a == event and not t._doomed
    ])
    # Raised here, before the caller stores the step anywhere.
    if len(reached) > RESIDUAL_CAP:
        raise ResidualOverflowError(len(reached), RESIDUAL_CAP)
    return reached


def ac_classes(terms) -> frozenset[Term]:
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


# --- runs over the memoized functions --------------------------------------------


def run(term: Term, trace: Trace, alphabet: frozenset[str]) -> frozenset[Term]:
    """All terms reachable by emitting ``trace``, every tau step taken."""
    held = engine(alphabet)
    states = held.tau_closure(term)
    for event in trace:
        states = frozenset().union(*[held.visible_successors(s, event) for s in states])
    return states


def reachable_transitions(
    term: Term, alphabet: frozenset[str]
) -> list[tuple[Term, "str | Tau", Term]]:
    """Every ``(source, action, target)`` reachable from ``term``, in BFS order.

    Each source's steps are ordered by action name, then by printed target.
    """
    steps_of = engine(alphabet).internal_successors
    seen = {term}
    queue = deque([term])
    out = []
    while queue:
        source = queue.popleft()
        steps = steps_of(source)
        for action, target in sorted(steps, key=lambda s: (str(s[0]), print_term(s[1]))):
            out.append((source, action, target))
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return out
