"""Process terms, event-set expressions, and syntactic classification.

A process emits events drawn from a finite alphabet.  The term language has
five constructors: STOP (stuck, emits nothing), FAIL (global failure),
prefix (emit one event from a set, binding it to a variable), external
choice, and parallel composition synchronized on an event set.

All values here are immutable and hash-consed (Filliâtre & Conchon,
"Type-safe modular hash-consing", 2006): constructing a node whose structure
already exists returns the existing object.  Equality is therefore identity,
and each node's hash is computed once, from its children's stored hashes, so
the caches of the transition engine look terms up in O(1) however deep they
are.  Free variables, doomedness, prefix depth and size are stored the same
way, so reading one never walks the term.  Constructors take their fields
positionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
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
                _set(node, name, value)
            # A frozen dataclass's hash, so set iteration order does not
            # depend on interning; children contribute their stored hashes.
            _set(node, "_hash", hash(args))
            node._derive()
            cls._table[args] = node
        return node


_set = object.__setattr__  # past the frozen dataclasses' own __setattr__
_NO_VARS = frozenset()  # the free variables of every closed node


class _Node(metaclass=_Interned):
    __slots__ = ("_hash", "_free", "_doomed", "_depth", "_size")

    def __hash__(self):
        return self._hash

    def _derive(self):
        """Store the facts of a new node from its children's; a leaf's are constants."""

    def _store(self, free, doomed, depth, size):
        _set(self, "_free", free)
        _set(self, "_doomed", doomed)
        _set(self, "_depth", depth)
        _set(self, "_size", size)

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

    def _derive(self):
        _set(self, "_free", frozenset(p for p in self.params if type(p) is EventVar) or _NO_VARS)


@_hashconsed
class FullAlphabet(_Node):
    """The whole declared alphabet (written ``Sigma`` in spec files)."""

    _free = _NO_VARS


class _SetOperation(_Node):
    __slots__ = ()

    def _derive(self):
        _set(self, "_free", self.left._free | self.right._free or _NO_VARS)


@_hashconsed
class SetUnion(_SetOperation):
    left: "EventSetExpr"
    right: "EventSetExpr"


@_hashconsed
class SetIntersection(_SetOperation):
    left: "EventSetExpr"
    right: "EventSetExpr"


@_hashconsed
class SetDifference(_SetOperation):
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

    _free, _doomed, _depth, _size = _NO_VARS, False, 0, 1


@_hashconsed
class Fail(_Node):
    """Global failure: aborts every parallel component."""

    _free, _doomed, _depth, _size = _NO_VARS, True, 0, 1


@_hashconsed
class Prefix(_Node):
    """``?x:E -> P``: emit one event e in E, then run P with x bound to e."""

    var: EventVar
    events: EventSetExpr
    body: "Term"

    def _derive(self):
        body = self.body
        self._store(self.events._free | (body._free - {self.var}) or _NO_VARS, False,
                    body._depth + 1, body._size + 1)


@_hashconsed
class Choice(_Node):
    """External choice, resolved by whichever side emits first."""

    left: "Term"
    right: "Term"

    def _derive(self):
        left, right = self.left, self.right
        self._store(left._free | right._free or _NO_VARS, left._doomed and right._doomed,
                    max(left._depth, right._depth), left._size + right._size + 1)


@_hashconsed
class Parallel(_Node):
    """Parallel composition with mandatory synchronization on ``sync``."""

    left: "Term"
    sync: EventSetExpr
    right: "Term"

    def _derive(self):
        left, right = self.left, self.right
        free = left._free | self.sync._free | right._free or _NO_VARS
        self._store(free, left._doomed or right._doomed,
                    left._depth + right._depth, left._size + right._size + 1)


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
        if expr._free:
            raise UnboundVariableError(next(p.name for p in expr.params if p in expr._free))
        return frozenset(p.name for p in expr.params) & alphabet
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
    if x not in expr._free:
        return expr
    if isinstance(expr, Literal):
        return Literal(tuple(e if p == x else p for p in expr.params))
    return type(expr)(_subst_set(e, x, expr.left), _subst_set(e, x, expr.right))


def substitute(e: Event, x: EventVar, term: Term) -> Term:
    """Replace every free occurrence of ``x`` in ``term`` with the event ``e``.

    Capture cannot occur (events are ground), but shadowing is respected: the
    set of a prefix rebinding ``x`` is still substituted (it is evaluated in
    the enclosing scope), while its body is left alone.
    """
    if x not in term._free:
        return term
    if isinstance(term, Choice):
        return Choice(substitute(e, x, term.left), substitute(e, x, term.right))
    if isinstance(term, Parallel):
        return Parallel(substitute(e, x, term.left), _subst_set(e, x, term.sync),
                        substitute(e, x, term.right))
    # A run of binders is walked in a loop, as the parser reads it, and
    # rebuilt bottom-up, so a long chain takes no stack frame per binder.
    binders = []
    while isinstance(term, Prefix) and term.var != x and x in term._free:
        binders.append(term)
        term = term.body
    if isinstance(term, Prefix) and term.var == x:
        term = Prefix(x, _subst_set(e, x, term.events), term.body)
    else:
        term = substitute(e, x, term)
    for binder in reversed(binders):
        term = Prefix(binder.var, _subst_set(e, x, binder.events), term)
    return term


def is_doomed(term: Term) -> bool:
    """Syntactic doomed check: D ::= FAIL | D [] D | D || P | P || D.

    A doomed term inevitably propagates failure; a viable term is any other.
    """
    return term._doomed


# Doomedness is derived once per prefix, choice or parallel node built, and the intern
# tables never shrink: perfbench's tracer reads that count as a functools cache's misses.
is_doomed.cache_info = lambda: SimpleNamespace(hits=0, misses=(built := sum(
    len(cls._table) for cls in (Prefix, Choice, Parallel))), currsize=built)


def term_size(term: Term) -> int:
    """Constructor count; event sets do not contribute."""
    return term._size


def free_vars(node: "Term | EventSetExpr") -> frozenset[EventVar]:
    return node._free


def is_closed(term: Term) -> bool:
    return not term._free


def prefix_depth(term: Term) -> int:
    """Upper bound on the length of any trace the term can emit.

    Prefix nesting counts 1 per binder; parallel operands run concurrently,
    so their bounds add.
    """
    return term._depth
