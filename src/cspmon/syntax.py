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

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<op>\|\[|\]\||\[\]|->|[{}(),?:\\])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
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

    # Terms are parsed with raw identifiers and resolved against the
    # alphabet and binder scope on the fly; ``scope`` is the tuple of
    # variable names bound by enclosing prefixes.

    def parse_spec(self) -> SpecFile:
        self.expect("alphabet")
        self.expect("{")
        names = [self.expect_ident("event name").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_ident("event name").text)
        self.expect("}")
        alphabet = frozenset(names)
        self.expect("process")
        root = self.parse_term(alphabet, ())
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return SpecFile(alphabet, root)

    def parse_term(self, alphabet, scope) -> Term:
        term = self.parse_par(alphabet, scope)
        while self.peek().text == "[]":
            self.next()
            term = Choice(term, self.parse_par(alphabet, scope))
        return term

    def parse_par(self, alphabet, scope) -> Term:
        term = self.parse_atom(alphabet, scope)
        while self.peek().text == "|[":
            self.next()
            sync = self.parse_setexpr(alphabet, scope)
            self.expect("]|")
            term = Parallel(term, sync, self.parse_atom(alphabet, scope))
        return term

    def parse_atom(self, alphabet, scope) -> Term:
        binders = []
        while self.peek().text == "?":
            self.next()
            var_tok = self.expect_ident("binder variable")
            if var_tok.text in alphabet:
                raise ParseError(
                    f"binder {var_tok.text!r} collides with an alphabet symbol",
                    var_tok.line,
                    var_tok.column,
                )
            self.expect(":")
            events = self.parse_setexpr(alphabet, scope)
            self.expect("->")
            binders.append((EventVar(var_tok.text), events))
            if var_tok.text not in scope:
                scope += (var_tok.text,)
        tok = self.next()
        if tok.text == "STOP":
            term = Stop()
        elif tok.text == "FAIL":
            term = Fail()
        elif tok.text == "(":
            term = self.parse_term(alphabet, scope)
            self.expect(")")
        else:
            shown = tok.text or "end of input"
            raise ParseError(f"expected a process term, found {shown!r}", tok.line, tok.column)
        for var, events in reversed(binders):
            term = Prefix(var, events, term)
        return term

    def parse_setexpr(self, alphabet, scope) -> EventSetExpr:
        expr = self.parse_setterm(alphabet, scope)
        while self.peek().text in ("u", "n", "\\"):
            op = self.next().text
            rhs = self.parse_setterm(alphabet, scope)
            if op == "u":
                expr = SetUnion(expr, rhs)
            elif op == "n":
                expr = SetIntersection(expr, rhs)
            else:
                expr = SetDifference(expr, rhs)
        return expr

    def parse_setterm(self, alphabet, scope) -> EventSetExpr:
        tok = self.peek()
        if tok.text == "Sigma":
            self.next()
            return FullAlphabet()
        if tok.text == "(":
            self.next()
            expr = self.parse_setexpr(alphabet, scope)
            self.expect(")")
            return expr
        if tok.text == "{":
            self.next()
            if self.peek().text == "}":
                self.next()
                return Literal(())
            params = [self.parse_param(alphabet, scope)]
            while self.peek().text == ",":
                self.next()
                params.append(self.parse_param(alphabet, scope))
            self.expect("}")
            return Literal(tuple(params))
        shown = tok.text or "end of input"
        raise ParseError(
            f"expected an event set, found {shown!r}", tok.line, tok.column
        )

    def parse_param(self, alphabet, scope):
        tok = self.expect_ident("event or variable")
        if tok.text in scope:
            return EventVar(tok.text)
        if tok.text in alphabet:
            return Event(tok.text)
        raise UndeclaredEventError(tok.text, tok.line, tok.column)


def parse_spec(text: str) -> SpecFile:
    """Parse a complete spec file (alphabet declaration plus root term)."""
    return _Parser(text).parse_spec()


def parse_term(text: str, alphabet: frozenset[str]) -> Term:
    """Parse a bare closed term against an already-known alphabet."""
    parser = _Parser(text)
    term = parser.parse_term(alphabet, ())
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
        # A prefix is itself an atom; only its body may need parentheses.
        return f"?{term.var.name}:{print_set(term.events)} -> {_fmt(term.body, _ATOM)}"
    if isinstance(term, Choice):
        text = f"{_fmt(term.left, _CHOICE)} [] {_fmt(term.right, _PAR)}"
        return f"({text})" if level > _CHOICE else text
    assert isinstance(term, Parallel)
    text = f"{_fmt(term.left, _PAR)} |[{print_set(term.sync)}]| {_fmt(term.right, _ATOM)}"
    return f"({text})" if level > _PAR else text


def print_set(expr: EventSetExpr) -> str:
    return _fmt_set(expr, top=True)


def _fmt_set(expr: EventSetExpr, top: bool) -> str:
    if isinstance(expr, Literal):
        return "{" + ",".join(p.name for p in expr.params) + "}"
    if isinstance(expr, FullAlphabet):
        return "Sigma"
    op = {SetUnion: "u", SetIntersection: "n", SetDifference: "\\"}[type(expr)]
    text = f"{_fmt_set(expr.left, top=True)} {op} {_fmt_set(expr.right, top=False)}"
    return text if top else f"({text})"


def format_spec(spec: SpecFile) -> str:
    names = ",".join(sorted(spec.alphabet))
    return f"alphabet {{{names}}} process {print_term(spec.root)}"
