"""Process terms, event-set expressions, and syntactic classification.

A process emits events drawn from a finite alphabet.  The term language has
five constructors: STOP (stuck, emits nothing), FAIL (global failure),
prefix (emit one event from a set, binding it to a variable), external
choice, and parallel composition synchronized on an event set.

All values here are immutable and hash-consed (Filliâtre & Conchon,
"Type-safe modular hash-consing", 2006): constructing a node whose
structure already exists returns the existing object.  Equality is
therefore identity, and each node's hash is computed once, from its
children's stored hashes, so the caches of the transition engine look terms
up in O(1) however deep they are.  Constructors take their fields
positionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import UnboundVariableError


# --- interning -------------------------------------------------------------


class _Interned(type):
    """Metaclass of the hash-consed node classes: one object per structure."""

    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        cls._fields = tuple(namespace.get("__annotations__", ()))
        cls._table = {}

    def __call__(cls, *args):
        node = cls._table.get(args)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(
                    f"{cls.__name__} takes {len(cls._fields)} arguments "
                    f"({len(args)} given)"
                )
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            # A frozen dataclass's hash, so set iteration order does not
            # depend on interning; children contribute their stored hashes.
            object.__setattr__(node, "_hash", hash(args))
            cls._table[args] = node
        return node


class _Node(metaclass=_Interned):
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through the constructor, so
        # they return the interned node.
        return type(self), tuple(getattr(self, name) for name in self._fields)


# eq=False leaves ``==`` as identity and the hash as _Node's stored one.
_hashconsed = dataclass(frozen=True, eq=False, slots=True)


# --- events and event-set expressions ------------------------------------


@_hashconsed
class Event(_Node):
    """A concrete event symbol from the declared alphabet."""

    name: str


@_hashconsed
class EventVar(_Node):
    """A variable bound by a prefix binder; ranges over events."""

    name: str


EventParam = Union[Event, EventVar]


@_hashconsed
class Literal(_Node):
    """An explicit, possibly empty, list of events and variables."""

    params: tuple[EventParam, ...]


@_hashconsed
class FullAlphabet(_Node):
    """The whole declared alphabet (written ``Sigma`` in spec files)."""


@_hashconsed
class SetUnion(_Node):
    left: "EventSetExpr"
    right: "EventSetExpr"


@_hashconsed
class SetIntersection(_Node):
    left: "EventSetExpr"
    right: "EventSetExpr"


@_hashconsed
class SetDifference(_Node):
    left: "EventSetExpr"
    right: "EventSetExpr"


EventSetExpr = Union[Literal, FullAlphabet, SetUnion, SetIntersection, SetDifference]


def literal(*names: str) -> Literal:
    """Shorthand for a literal set of concrete events."""
    return Literal(tuple(Event(n) for n in names))


# --- terms ----------------------------------------------------------------


@_hashconsed
class Stop(_Node):
    """The stuck process: emits nothing, but is not a failure."""


@_hashconsed
class Fail(_Node):
    """Global failure: aborts every parallel component."""


@_hashconsed
class Prefix(_Node):
    """``?x:E -> P``: emit one event e in E, then run P with x bound to e."""

    var: EventVar
    events: EventSetExpr
    body: "Term"


@_hashconsed
class Choice(_Node):
    """External choice, resolved by whichever side emits first."""

    left: "Term"
    right: "Term"


@_hashconsed
class Parallel(_Node):
    """Parallel composition with mandatory synchronization on ``sync``."""

    left: "Term"
    sync: EventSetExpr
    right: "Term"


Term = Union[Stop, Fail, Prefix, Choice, Parallel]

STOP = Stop()
FAIL = Fail()


# --- operations -----------------------------------------------------------


def eval_event_set(expr: EventSetExpr, alphabet: frozenset[str]) -> frozenset[str]:
    """Evaluate a closed set expression to a concrete subset of the alphabet.

    A variable in ``expr`` (one ``substitute`` has not filled in) raises
    UnboundVariableError naming it.
    """
    if isinstance(expr, Literal):
        out = set()
        for p in expr.params:
            if not isinstance(p, Event):
                raise UnboundVariableError(p.name)
            out.add(p.name)
        return frozenset(out) & alphabet
    if isinstance(expr, FullAlphabet):
        return alphabet
    left = eval_event_set(expr.left, alphabet)
    right = eval_event_set(expr.right, alphabet)
    if isinstance(expr, SetUnion):
        return left | right
    if isinstance(expr, SetIntersection):
        return left & right
    return left - right


def _subst_set(e: Event, x: EventVar, expr: EventSetExpr) -> EventSetExpr:
    if isinstance(expr, Literal):
        return Literal(tuple(e if p == x else p for p in expr.params))
    if isinstance(expr, FullAlphabet):
        return expr
    return type(expr)(_subst_set(e, x, expr.left), _subst_set(e, x, expr.right))


def substitute(e: Event, x: EventVar, term: Term) -> Term:
    """Replace every free occurrence of ``x`` in ``term`` with the event ``e``.

    Capture cannot occur (events are ground), but shadowing is respected: the
    set of a prefix rebinding ``x`` is still substituted (it is evaluated in
    the enclosing scope), while its body is left alone.
    """
    if isinstance(term, (Stop, Fail)):
        return term
    if isinstance(term, Prefix):
        new_set = _subst_set(e, x, term.events)
        if term.var == x:
            return Prefix(term.var, new_set, term.body)
        return Prefix(term.var, new_set, substitute(e, x, term.body))
    if isinstance(term, Choice):
        return Choice(substitute(e, x, term.left), substitute(e, x, term.right))
    return Parallel(
        substitute(e, x, term.left),
        _subst_set(e, x, term.sync),
        substitute(e, x, term.right),
    )


@lru_cache(maxsize=None)
def is_doomed(term: Term) -> bool:
    """Syntactic doomed check: D ::= FAIL | D [] D | D || P | P || D.

    A doomed term inevitably propagates failure; a viable term is any other.
    """
    if isinstance(term, Fail):
        return True
    if isinstance(term, Choice):
        return is_doomed(term.left) and is_doomed(term.right)
    if isinstance(term, Parallel):
        return is_doomed(term.left) or is_doomed(term.right)
    return False


def term_size(term: Term) -> int:
    """Constructor count; event sets do not contribute."""
    if isinstance(term, (Stop, Fail)):
        return 1
    if isinstance(term, Prefix):
        return term_size(term.body) + 1
    return term_size(term.left) + term_size(term.right) + 1


def _set_free_vars(expr: EventSetExpr) -> frozenset[EventVar]:
    if isinstance(expr, Literal):
        return frozenset(p for p in expr.params if isinstance(p, EventVar))
    if isinstance(expr, FullAlphabet):
        return frozenset()
    return _set_free_vars(expr.left) | _set_free_vars(expr.right)


@lru_cache(maxsize=None)
def free_vars(term: Term) -> frozenset[EventVar]:
    if isinstance(term, (Stop, Fail)):
        return frozenset()
    if isinstance(term, Prefix):
        return _set_free_vars(term.events) | (free_vars(term.body) - {term.var})
    if isinstance(term, Choice):
        return free_vars(term.left) | free_vars(term.right)
    return free_vars(term.left) | _set_free_vars(term.sync) | free_vars(term.right)


def is_closed(term: Term) -> bool:
    return not free_vars(term)


def prefix_depth(term: Term) -> int:
    """Upper bound on the length of any trace the term can emit.

    Prefix nesting counts 1 per binder; parallel operands run concurrently,
    so their bounds add.
    """
    if isinstance(term, (Stop, Fail)):
        return 0
    if isinstance(term, Prefix):
        return prefix_depth(term.body) + 1
    if isinstance(term, Choice):
        return max(prefix_depth(term.left), prefix_depth(term.right))
    return prefix_depth(term.left) + prefix_depth(term.right)
