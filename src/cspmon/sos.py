"""Small-step transition engine for process terms.

The step relation is labelled, ``P --a--> P'`` (Plotkin's structural
operational semantics): a transition of a term is an ``(action, target)``
pair, whose action is a visible event or the silent action tau.
Failure propagation is forced by viability side-conditions: in a parallel
composition, a component may act on its own only while the other side is
viable, so once a side is doomed the only applicable rules are the ones
that push FAIL outward.

An ``Engine`` holds one alphabet and owns what the monitor reads of it:
the bounded step memo and the states of the monitor's lazy DFA.
``engine(alphabet)`` returns the live engine of an alphabet.  A monitor
state holds its engine, and once nothing holds an engine its memo is freed
with it, as monitor state that nothing can reach is freed in Jin,
Meredith, Griffith & Roşu, "Garbage Collection for Monitoring Parametric
Properties" (PLDI 2011).  The module-level functions take the alphabet
and call its engine.  ``tau_closure`` and ``visible_successors``, which
only ``run`` and the raw relation's checks read, are process-wide
``lru_cache``s of ``CLOSURE_MEMO_SIZE`` entries each, over the step memo.

The engine steps a term on one action at a time: its one step memo,
``internal_successors(term, action)``, holds the targets of the term's
steps on that action, as a partial derivative holds a regular expression's
derivative by one letter (Antimirov, TCS 1996).  A composite term's entry is
built from its components' entries for the same action, so a monitor fed
an event builds only that event's targets.  The monitor, the oracle and the
raw relation's checks read the same entries.

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
1998).  The residual sets are the states of a lazy DFA, built on demand
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
    FAIL,
    Parallel,
    Prefix,
    Term,
    free_vars,
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

# Most entries an engine's step memo keeps.
TERM_MEMO_SIZE = 1 << 14
# Most entries the tau closure and the visible successors each keep.  Only
# ``run`` and the derivative-decomposition check read them, one term at a
# time; on a generated check corpus a thousand entries keep nearly every
# hit that sixteen times as many do.
CLOSURE_MEMO_SIZE = 1 << 10
# Most edges and new states an engine's DFA takes on between two flushes.
EDGE_CAP = 1 << 14
# Most residuals a monitor step may reach; past it, ResidualOverflowError.
RESIDUAL_CAP = 10**6


class Engine:
    """One alphabet's step relation: the step memo, and the monitor's lazy
    DFA.

    ``internal_successors`` is an ``lru_cache`` of ``TERM_MEMO_SIZE``
    entries keyed on the term and the action, never on the alphabet; it
    reaches its engine through a weak proxy.  ``states`` maps a residual
    set to a weak reference, without a callback, to the monitor state of
    that set; a dead state's entry stays until the next flush.  A state
    holds its engine and its edges hold later states, never earlier ones,
    so an engine is in no reference cycle and is freed as soon as nothing
    holds it.  ``room`` counts the edges and states the DFA may still take
    on before it is flushed.
    """

    __slots__ = ("alphabet", "internal_successors", "states", "room", "__weakref__")

    def __init__(self, alphabet: frozenset[str]):
        self.alphabet = alphabet
        memo = lru_cache(maxsize=TERM_MEMO_SIZE)
        self.internal_successors = memo(partial(_internal_successors, weakref.proxy(self)))
        self.states: dict[frozenset[Term], weakref.ref] = {}
        self.room = EDGE_CAP
        weakref.finalize(self, _retire, self.internal_successors).atexit = False

    def __repr__(self):
        return f"Engine({sorted(self.alphabet)!r})"


_engines: weakref.WeakValueDictionary[frozenset[str], Engine] = weakref.WeakValueDictionary()
# The engine that engine() returned last, and the set it was asked for.
_last: Engine | None = None
_last_alphabet: frozenset[str] | None = None
# Hits and misses of the step memos of the engines already freed.
_freed = [0, 0]


def engine(alphabet: frozenset[str]) -> Engine:
    """The live engine of ``alphabet``, built if there is none.

    The engine returned last stays alive even when no caller holds it, so
    calls on one alphabet one after another (``cspmon check`` runs its
    suite one term at a time) keep its memo warm.
    """
    global _last, _last_alphabet
    if alphabet is _last_alphabet:
        return _last
    found = _engines.get(alphabet)
    if found is None:
        found = _engines[alphabet] = Engine(alphabet)
    _last, _last_alphabet = found, alphabet
    return found


def _retire(memo) -> None:
    """Add a freed engine's step memo statistics to the process-wide totals."""
    info = memo.cache_info()
    _freed[0] += info.hits
    _freed[1] += info.misses


def _memo_info() -> SimpleNamespace:
    """Process-wide hits and misses of the step memos, freed engines
    included, and the entries that live engines hold."""
    hits, misses = _freed
    entries = 0
    for live in _engines.values():
        info = live.internal_successors.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return SimpleNamespace(hits=hits, misses=misses, currsize=entries)


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


def internal_successors(term: Term, alphabet: frozenset[str]) -> frozenset[Transition]:
    """All one-step ``(action, target)`` pairs of a closed term, deduplicated.

    The union of the engine's entries for each event and for TAU.
    """
    steps = engine(alphabet).internal_successors
    return frozenset((a, t) for a in (*alphabet, TAU) for t in steps(term, a))


# Reported as an lru_cache reports, over the step memos of every engine.
internal_successors.cache_info = _memo_info


@lru_cache(maxsize=CLOSURE_MEMO_SIZE)
def tau_closure(term: Term, alphabet: frozenset[str]) -> frozenset[Term]:
    """Every term reachable by zero or more tau steps, intermediates included.

    Terminates because each tau step strictly shrinks the term.
    """
    steps = engine(alphabet).internal_successors
    seen = {term}
    frontier = [term]
    while frontier:
        for t in steps(frontier.pop(), TAU):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


@lru_cache(maxsize=CLOSURE_MEMO_SIZE)
def visible_successors(term: Term, event: str, alphabet: frozenset[str]) -> frozenset[Term]:
    """All terms reachable by emitting exactly ``event`` (tau steps free).

    Includes every stop along the trailing tau run, not only tau-normal
    forms.
    """
    if event not in alphabet:
        return frozenset()
    steps = engine(alphabet).internal_successors
    out = set()
    for pre in tau_closure(term, alphabet):
        for t in steps(pre, event):
            out |= tau_closure(t, alphabet)
    return frozenset(out)


# --- the engine's memoized functions ------------------------------------------


def _internal_successors(eng: Engine, term: Term, action) -> tuple[Term, ...]:
    if term._free:
        names = ", ".join(sorted(v.name for v in free_vars(term)))
        raise OpenTermError(f"term has free variables: {names}")
    return _successors(eng, term, action)


def _successors(eng: Engine, term: Term, action) -> tuple[Term, ...]:
    # The targets of the term's steps on ``action``, an event of the
    # alphabet or TAU, one line per rule, each target once: the sync rule
    # pairs its operands' entries, so a duplicate in each would multiply
    # along a chain of parallels.  A composite term's entry comes from its
    # components' entries for the same action, so residuals that share a
    # component compute its steps once.  TAU is in no event set.  Loops,
    # not comprehensions: a comprehension is a call of its own before
    # Python 3.12, and a cold step makes several per entry.
    steps = eng.internal_successors
    tau = action is TAU
    out = []
    kind = type(term)
    if kind is Prefix:
        events = term.events
        if not tau and (action in events._names) != events._complement:
            out.append(substitute(Event(action), term.var, term.body))
    elif kind is Choice:
        left, right = term.left, term.right
        for t in steps(left, action):
            out.append(Choice(t, right) if tau else t)
        for t in steps(right, action):
            out.append(Choice(left, t) if tau else t)
        if tau and left is FAIL and right is FAIL:
            out.append(FAIL)
    elif kind is Parallel:
        left, sync, right = term.left, term.sync, term.right
        left_doomed, right_doomed = left._doomed, right._doomed
        if tau or (action in sync._names) == sync._complement:
            # Independent progress outside the sync set, gated on the
            # sibling's viability.
            if not right_doomed:
                for t in steps(left, action):
                    out.append(Parallel(t, sync, right))
            if not left_doomed:
                for t in steps(right, action):
                    out.append(Parallel(left, sync, t))
        elif not left_doomed and not right_doomed:
            # Synchronized step: both sides viable, both emit the event.
            for l in steps(left, action):
                for r in steps(right, action):
                    out.append(Parallel(l, sync, r))
        # Both sides doomed: either may keep propagating internally.
        if tau and left_doomed and right_doomed:
            for t in steps(left, TAU):
                out.append(Parallel(t, sync, right))
            for t in steps(right, TAU):
                out.append(Parallel(left, sync, t))
        # FAIL absorbs the whole composition.
        if tau and left is FAIL:
            out.append(FAIL)
        if tau and right is FAIL:
            out.append(FAIL)
    return tuple(dict.fromkeys(out))


def _step(eng: Engine, residuals: frozenset[Term], event: str) -> frozenset[Term]:
    """The residual set that ``residuals`` reach on ``event``, an event of
    the alphabet: the first viable target of each AC class among the
    residuals' own steps on it.

    Takes no tau step (sound for the reasons the module docstring gives).
    The union of the residuals' trace sets after the event is that of
    ``run``'s tau-closed states; the sets themselves differ.
    """
    successors = eng.internal_successors
    reached = ac_classes([t for s in residuals for t in successors(s, event) if not t._doomed])
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
    states = tau_closure(term, alphabet)
    for event in trace:
        states = frozenset().union(*[visible_successors(s, event, alphabet) for s in states])
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
