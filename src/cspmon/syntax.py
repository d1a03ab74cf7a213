"""Concrete syntax: spec-file parser and pretty-printer.

Grammar (ASCII operator spellings, comments ``--`` to end of line):

    spec     := "alphabet" "{" name ("," name)* "}" "process" term
    term     := choice
    choice   := par ("[]" par)*                       left-assoc
    par      := atom ("|[" setexpr "]|" atom)*        left-assoc
    atom     := "STOP" | "FAIL" | "?" ident ":" setexpr "->" atom
              | "(" term ")"
    setexpr  := setterm (("u"|"n"|"\\") setterm)*      left-assoc
    setterm  := "{" param ("," param)* "}" | "{}" | "Sigma" | "(" setexpr ")"
    param    := identifier                             event or bound variable

Events and variables share one lexical class; an identifier inside a set is
an event if it is declared in the alphabet, a variable if bound by an
enclosing ``?`` binder, and an error otherwise.  Binder names may not
collide with alphabet symbols.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UndeclaredEventError
from .terms import (
    Choice,
    Event,
    EventSetExpr,
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


@dataclass(frozen=True)
class SpecFile:
    alphabet: frozenset[str]
    root: Term


# --- lexer ----------------------------------------------------------------

# An event name, variable or keyword; ``cspmon monitor`` takes an event name
# only if it is one, so every name it echoes could be written in a spec.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<op>\|\[|\]\||\[\]|->|[{{}}(),?:\\])
    | (?P<ident>{IDENTIFIER.pattern})
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "op", "ident", "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


# --- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        # The declared events: read by ``parse_spec``, given to ``parse_term``.
        self.alphabet: frozenset[str] = frozenset()
        # How many enclosing binders bind each variable name.
        self.bound: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", tok.line, tok.column)
        return self.next()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            shown = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", tok.line, tok.column)
        return self.next()

    # Terms are parsed with raw identifiers and resolved against ``alphabet``
    # and ``bound`` on the fly.  ``parse_atom`` binds the names of its run of
    # binders and unbinds them when the atom ends.

    def parse_spec(self) -> SpecFile:
        self.expect("alphabet")
        self.expect("{")
        names = [self.expect_ident("event name").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_ident("event name").text)
        self.expect("}")
        self.alphabet = frozenset(names)
        self.expect("process")
        root = self.parse_term()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return SpecFile(self.alphabet, root)

    def parse_term(self) -> Term:
        term = self.parse_par()
        while self.peek().text == "[]":
            self.next()
            term = Choice(term, self.parse_par())
        return term

    def parse_par(self) -> Term:
        term = self.parse_atom()
        while self.peek().text == "|[":
            self.next()
            sync = self.parse_setexpr()
            self.expect("]|")
            term = Parallel(term, sync, self.parse_atom())
        return term

    def parse_atom(self) -> Term:
        binders = []
        while self.peek().text == "?":
            self.next()
            var_tok = self.expect_ident("binder variable")
            if var_tok.text in self.alphabet:
                raise ParseError(
                    f"binder {var_tok.text!r} collides with an alphabet symbol",
                    var_tok.line,
                    var_tok.column,
                )
            self.expect(":")
            events = self.parse_setexpr()
            self.expect("->")
            binders.append((EventVar(var_tok.text), events))
            self.bound[var_tok.text] = self.bound.get(var_tok.text, 0) + 1
        tok = self.next()
        if tok.text == "STOP":
            term = Stop()
        elif tok.text == "FAIL":
            term = Fail()
        elif tok.text == "(":
            term = self.parse_term()
            self.expect(")")
        else:
            shown = tok.text or "end of input"
            raise ParseError(f"expected a process term, found {shown!r}", tok.line, tok.column)
        for var, events in reversed(binders):
            term = Prefix(var, events, term)
            self.bound[var.name] -= 1
        return term

    def parse_setexpr(self) -> EventSetExpr:
        expr = self.parse_setterm()
        while self.peek().text in ("u", "n", "\\"):
            op = self.next().text
            rhs = self.parse_setterm()
            if op == "u":
                expr = SetUnion(expr, rhs)
            elif op == "n":
                expr = SetIntersection(expr, rhs)
            else:
                expr = SetDifference(expr, rhs)
        return expr

    def parse_setterm(self) -> EventSetExpr:
        tok = self.peek()
        if tok.text == "Sigma":
            self.next()
            return FullAlphabet()
        if tok.text == "(":
            self.next()
            expr = self.parse_setexpr()
            self.expect(")")
            return expr
        if tok.text == "{":
            self.next()
            if self.peek().text == "}":
                self.next()
                return Literal(())
            params = [self.parse_param()]
            while self.peek().text == ",":
                self.next()
                params.append(self.parse_param())
            self.expect("}")
            return Literal(tuple(params))
        shown = tok.text or "end of input"
        raise ParseError(
            f"expected an event set, found {shown!r}", tok.line, tok.column
        )

    def parse_param(self):
        tok = self.expect_ident("event or variable")
        if self.bound.get(tok.text):
            return EventVar(tok.text)
        if tok.text in self.alphabet:
            return Event(tok.text)
        raise UndeclaredEventError(tok.text, tok.line, tok.column)


def parse_spec(text: str) -> SpecFile:
    """Parse a complete spec file (alphabet declaration plus root term)."""
    return _Parser(text).parse_spec()


def parse_term(text: str, alphabet: frozenset[str]) -> Term:
    """Parse a bare closed term against an already-known alphabet."""
    parser = _Parser(text)
    parser.alphabet = alphabet
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return term


# --- pretty-printer -------------------------------------------------------

_CHOICE, _PAR, _ATOM = 0, 1, 2


def print_term(term: Term) -> str:
    """Parser-compatible text with minimal parentheses."""
    return _fmt(term, _CHOICE)


def _fmt(term: Term, level: int) -> str:
    if isinstance(term, Stop):
        return "STOP"
    if isinstance(term, Fail):
        return "FAIL"
    if isinstance(term, Prefix):
        # A prefix is itself an atom; only the body of its binder run may
        # need parentheses.  The run is printed in a loop, as it is parsed.
        heads = []
        while isinstance(term, Prefix):
            heads.append(f"?{term.var.name}:{print_set(term.events)} -> ")
            term = term.body
        return "".join(heads) + _fmt(term, _ATOM)
    if isinstance(term, Choice):
        text = f"{_fmt(term.left, _CHOICE)} [] {_fmt(term.right, _PAR)}"
        return f"({text})" if level > _CHOICE else text
    assert isinstance(term, Parallel)
    text = f"{_fmt(term.left, _PAR)} |[{print_set(term.sync)}]| {_fmt(term.right, _ATOM)}"
    return f"({text})" if level > _PAR else text


def print_set(expr: EventSetExpr) -> str:
    return _fmt_set(expr, top=True)


_SET_SYMBOLS = {SetUnion: "u", SetIntersection: "n", SetDifference: "\\"}


def _fmt_set(expr: EventSetExpr, top: bool) -> str:
    # A left-associative run of set operations is printed in a loop, as it
    # is parsed; only its right operands may need parentheses.
    tails = []
    while type(expr) in _SET_SYMBOLS:
        tails.append(f" {_SET_SYMBOLS[type(expr)]} {_fmt_set(expr.right, top=False)}")
        expr = expr.left
    if isinstance(expr, Literal):
        text = "{" + ",".join(p.name for p in expr.params) + "}"
    else:
        text = "Sigma"
    text += "".join(reversed(tails))
    return text if top or not tails else f"({text})"
