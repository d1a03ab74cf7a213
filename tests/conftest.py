"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
doomed classification is re-derived by naive grammar matching, the other
facts each node stores (free variables, prefix depth, size) by recursive
walks, set expressions by Python's own set operations, and the parallel
trace operator by brute-force merging of trace pairs.  The
``source_mutant`` fixture builds mutants for mutation testing by editing
the source of a shipped function, so the package itself carries no
mutation switches.  The helpers at the end are the builders and the one
property check that only tests use, kept out of the shipped package.
"""

from __future__ import annotations

import inspect
import random
import sys
import textwrap
from contextlib import contextmanager

import pytest

from cspmon import sos
from cspmon.conformance import CheckReport
from cspmon.syntax import SpecFile, parse_spec, print_term
from cspmon.terms import (
    Choice,
    Event,
    EventVar,
    Fail,
    FullAlphabet,
    Literal,
    Parallel,
    Prefix,
    SetDifference,
    SetIntersection,
    SetUnion,
    Stop,
    Term,
)
from cspmon.traces import EMPTY_TRACE_SET, EPSILON, Trace, TraceSet, parcomp


@pytest.fixture
def ab() -> frozenset[str]:
    return frozenset({"a", "b"})


@pytest.fixture
def abc() -> frozenset[str]:
    return frozenset({"a", "b", "c"})


def _clear_package_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "cspmon" or name.startswith("cspmon."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    # Each engine's step memo, and the DFA edges built from its entries.
    for live in list(sos._engines.values()):
        live.internal_successors.cache_clear()
        sos._flush(live)


@contextmanager
def _source_mutant(module, func_name: str, *edits: tuple[str, str]):
    original = getattr(module, func_name)
    source = textwrap.dedent(inspect.getsource(original))
    for anchor, replacement in edits:
        count = source.count(anchor)
        if count != 1:
            raise ValueError(f"anchor {anchor!r} occurs {count} times in {func_name}")
        source = source.replace(anchor, replacement)
    # A copy of the module's globals, so the mutant's recursive calls resolve
    # to the mutant while the module itself is untouched until the swap.
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant of {module.__name__}.{func_name}>", "exec"), namespace)
    # The caches hold results of the stock code on entry and of the mutant
    # on exit; either would hide the code actually installed.
    _clear_package_caches()
    setattr(module, func_name, namespace[func_name])
    try:
        yield
    finally:
        setattr(module, func_name, original)
        _clear_package_caches()


@pytest.fixture
def source_mutant():
    """``source_mutant(module, func_name, *(anchor, replacement))``.

    A context manager that swaps ``module.func_name`` for a copy whose source
    has each ``anchor`` (which must occur exactly once) replaced, and restores
    the original on exit.  Meant for private, undecorated functions; every
    ``lru_cache`` of the package is cleared on entry and on exit.
    """
    return _source_mutant


def doomed_by_grammar(term: Term) -> bool:
    """Naive membership in D ::= FAIL | D [] D | D || P | P || D."""
    if isinstance(term, Fail):
        return True
    if isinstance(term, Choice):
        return doomed_by_grammar(term.left) and doomed_by_grammar(term.right)
    if isinstance(term, Parallel):
        return doomed_by_grammar(term.left) or doomed_by_grammar(term.right)
    return False


def free_vars_by_walk(node) -> frozenset[EventVar]:
    """Free variables of a term or set expression, by structural recursion."""
    if isinstance(node, Literal):
        return frozenset(p for p in node.params if isinstance(p, EventVar))
    if isinstance(node, (FullAlphabet, Stop, Fail)):
        return frozenset()
    if isinstance(node, Prefix):
        return free_vars_by_walk(node.events) | (free_vars_by_walk(node.body) - {node.var})
    out = free_vars_by_walk(node.left) | free_vars_by_walk(node.right)
    if isinstance(node, Parallel):
        out |= free_vars_by_walk(node.sync)
    return out


def set_by_reference(expr, alphabet: frozenset[str], env=None) -> set[str]:
    """A set expression's events within ``alphabet``, each variable read
    from ``env`` (a dict from variable to event name)."""
    if isinstance(expr, FullAlphabet):
        return set(alphabet)
    if isinstance(expr, Literal):
        return {env[p] if isinstance(p, EventVar) else p.name for p in expr.params} & alphabet
    left = set_by_reference(expr.left, alphabet, env)
    right = set_by_reference(expr.right, alphabet, env)
    if isinstance(expr, SetUnion):
        return left | right
    if isinstance(expr, SetIntersection):
        return left & right
    assert isinstance(expr, SetDifference)
    return left - right


def prefix_depth_by_walk(term: Term) -> int:
    """Binder nesting; parallel operands add, choice takes the larger side."""
    if isinstance(term, (Stop, Fail)):
        return 0
    if isinstance(term, Prefix):
        return prefix_depth_by_walk(term.body) + 1
    left, right = prefix_depth_by_walk(term.left), prefix_depth_by_walk(term.right)
    return max(left, right) if isinstance(term, Choice) else left + right


def term_size_by_walk(term: Term) -> int:
    """Constructor count, set expressions excluded."""
    if isinstance(term, (Stop, Fail)):
        return 1
    if isinstance(term, Prefix):
        return term_size_by_walk(term.body) + 1
    return term_size_by_walk(term.left) + term_size_by_walk(term.right) + 1


def merges(s: Trace, t: Trace, sync: frozenset[str]) -> frozenset[Trace]:
    """All full synchronized interleavings of two single traces."""
    if not s and not t:
        return frozenset({EPSILON})
    out = set()
    if s and s[0] not in sync:
        out |= {(s[0],) + r for r in merges(s[1:], t, sync)}
    if t and t[0] not in sync:
        out |= {(t[0],) + r for r in merges(s, t[1:], sync)}
    if s and t and s[0] == t[0] and s[0] in sync:
        out |= {(s[0],) + r for r in merges(s[1:], t[1:], sync)}
    return frozenset(out)


def parcomp_bruteforce(
    traces1: frozenset[Trace],
    sync: frozenset[str],
    traces2: frozenset[Trace],
    max_len: int,
) -> frozenset[Trace]:
    """Union of pairwise merges, truncated; empty if either side is empty.

    Valid for prefix-closed inputs: every prefix of a merge is a merge of
    prefixes, so the union is prefix-closed by itself.
    """
    if not traces1 or not traces2:
        return frozenset()
    out = set()
    for s in traces1:
        for t in traces2:
            out |= {m for m in merges(s, t, sync) if len(m) <= max_len}
    return frozenset(out)


def prefix_closure(traces) -> frozenset[Trace]:
    out = set()
    for t in traces:
        for i in range(len(t) + 1):
            out.add(t[:i])
    return frozenset(out)


# --- test-only builders and checks -----------------------------------------


def literal(*names: str) -> Literal:
    """Shorthand for a literal set of concrete events."""
    return Literal(tuple(Event(n) for n in names))


def is_closed(term: Term) -> bool:
    return not term._free


def format_spec(spec: SpecFile) -> str:
    names = ",".join(sorted(spec.alphabet))
    return f"alphabet {{{names}}} process {print_term(spec.root)}"


def interleave_spec(a: str, b: str, chains: int, depth: int) -> SpecFile:
    """As perfbench's ``interleave_spec`` builds it, parsed."""
    chain = "STOP"
    for _ in range(depth):
        chain = f"(?x:{{{a},{b}}} -> {chain} [] ?x:{{{b}}} -> FAIL)"
    return parse_spec(f"alphabet {{{a},{b}}} process " + " |[{}]| ".join([chain] * chains))


def gen_prefix_closed(rng: random.Random, alphabet: frozenset[str], depth: int) -> TraceSet:
    """A random prefix-closed trace set with traces of length <= depth."""
    if rng.random() < 0.1:
        return EMPTY_TRACE_SET
    traces = {EPSILON}
    events = sorted(alphabet)
    for _ in range(rng.randint(0, 3 * depth + 1)):
        t = tuple(rng.choice(events) for _ in range(rng.randint(1, depth)))
        for i in range(1, len(t) + 1):
            traces.add(t[:i])
    return TraceSet(frozenset(traces))


def check_continuity_instance(
    t1: TraceSet,
    t1_prime: TraceSet,
    sync: frozenset[str],
    t2: TraceSet,
    alphabet: frozenset[str],
) -> CheckReport:
    """Binary-union distributivity of the parallel trace-set operator."""
    t1_union = t1.union(t1_prime)
    # Composed in full: no merge is longer than the two longest operands.
    depth = max(map(len, t1_union.traces), default=0) + max(map(len, t2.traces), default=0)
    lhs = parcomp(t1_union, sync, t2, alphabet, depth)
    rhs = parcomp(t1, sync, t2, alphabet, depth).union(
        parcomp(t1_prime, sync, t2, alphabet, depth)
    )
    ok = lhs.traces == rhs.traces
    # No term to shrink, so the two sides are the counterexample.
    example = None if ok else f"lhs={sorted(lhs.traces)} rhs={sorted(rhs.traces)}"
    return CheckReport("parcomp-continuity", ok, None, example)
