"""Graphviz export of the reachable transition system."""

from __future__ import annotations

from .sos import TAU, reachable_transitions
from .syntax import print_term
from .terms import Term


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(term: Term, alphabet: frozenset[str]) -> str:
    """One node per reachable term, one edge per transition; tau edges dashed."""
    lines = ["digraph lts {"]
    lines.append(f"  {_quote(print_term(term))} [shape=box];")
    for source, action, target in reachable_transitions(term, alphabet):
        src = _quote(print_term(source))
        dst = _quote(print_term(target))
        if action is TAU:
            lines.append(f"  {src} -> {dst} [label=\"tau\", style=dashed];")
        else:
            lines.append(f"  {src} -> {dst} [label={_quote(action)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
