"""Reading and writing terms in the canonical text syntax.

The surface syntax is the usual one: ``functor(arg,...)`` compounds, quoted
atoms where needed, ``[a,b|T]`` list notation, capitalised or ``_``-prefixed
variables, double-quoted strings.  A handful of infix operators are
recognised so clause files and goals stay readable:

    :-              clause neck                (loosest)
    ,               conjunction, right associated
    = < > >= =<     unification / integer comparison
    ? ??            remote call annotations (goal ? server_address)
    thread:proc@h   addresses embedded as terms  (tightest)

``parse_term`` accepts a single term (operators included), ``parse_clause``
additionally requires the terminating full stop, ``parse_goal`` accepts a
conjunction.  Parse errors carry the character offset they occurred at.
"""

from __future__ import annotations

import re
from typing import Optional

from .terms import (
    NIL,
    Atom,
    Compound,
    Int,
    Str,
    Term,
    Var,
    deref,
    variables,
    INT_MIN,
    INT_MAX,
)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str = ""):
        self.pos = pos
        snippet = text[pos : pos + 12]
        loc = f" at offset {pos}" + (f" near {snippet!r}" if snippet else "")
        super().__init__(message + loc)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<int>-?\d+)
  | (?P<atom>[a-z][a-zA-Z0-9_]*)
  | (?P<var>[_A-Z][a-zA-Z0-9_]*)
  | (?P<qatom>'(?:[^'\\]|\\.)*')
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<op>\?\?|:-|>=|=<|[()\[\],|.:@?<>=])
    """,
    re.VERBOSE,
)

_BARE_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_VAR_NAME_RE = re.compile(r"[_A-Z][a-zA-Z0-9_]*\Z")

_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {"\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _unescape(body: str, pos: int, text: str) -> str:
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
            if i >= len(body) or body[i] not in _ESCAPES:
                raise ParseError("unknown escape sequence", pos + i, text)
            out.append(_ESCAPES[body[i]])
        else:
            out.append(c)
        i += 1
    return "".join(out)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character", pos, text)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.vars: dict[str, Var] = {}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos, self.text)

    def at_op(self, *ops: str) -> Optional[str]:
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            return val
        return None

    # precedence levels, loosest first
    def expr(self, prio: int) -> Term:
        if prio >= 1200:
            left = self.expr(1000)
            if self.at_op(":-"):
                self.next()
                right = self.expr(1000)
                return Compound(":-", (left, right))
            return left
        if prio >= 1000:
            left = self.expr(700)
            if self.at_op(","):
                self.next()
                right = self.expr(1000)
                return Compound(",", (left, right))
            return left
        if prio >= 700:
            left = self.expr(500)
            op = self.at_op("=", "<", ">", ">=", "=<")
            if op:
                self.next()
                right = self.expr(500)
                return Compound(op, (left, right))
            return left
        if prio >= 500:
            left = self.expr(200)
            op = self.at_op("?", "??")
            if op:
                self.next()
                right = self.expr(200)
                return Compound(op, (left, right))
            return left
        # address level: primary [: primary [@ primary]]
        left = self.primary()
        if self.at_op(":"):
            self.next()
            mid = self.primary()
            if self.at_op("@"):
                self.next()
                host = self.primary()
                return Compound(":", (left, Compound("@", (mid, host))))
            return Compound(":", (left, mid))
        return left

    def primary(self) -> Term:
        kind, val, pos = self.next()
        if kind == "int":
            n = int(val)
            if not (INT_MIN <= n <= INT_MAX):
                raise ParseError("integer out of 64-bit range", pos, self.text)
            return Int(n)
        if kind == "str":
            return Str(_unescape(val[1:-1], pos + 1, self.text))
        if kind == "atom" or kind == "qatom":
            name = val if kind == "atom" else _unescape(val[1:-1], pos + 1, self.text)
            if self.at_op("("):
                return Compound(name, self.arglist())
            return Atom(name)
        if kind == "var":
            if val == "_":
                return Var()
            v = self.vars.get(val)
            if v is None:
                v = Var(val)
                self.vars[val] = v
            return v
        if kind == "op" and val == "[":
            return self.list_tail()
        if kind == "op" and val == "(":
            inner = self.expr(1200)
            self.expect_op(")")
            return inner
        raise ParseError("expected a term", pos, self.text)

    def arglist(self) -> tuple:
        self.expect_op("(")
        args = [self.expr(700)]
        while self.at_op(","):
            self.next()
            args.append(self.expr(700))
        self.expect_op(")")
        return tuple(args)

    def list_tail(self) -> Term:
        if self.at_op("]"):
            self.next()
            return NIL
        items = [self.expr(700)]
        while self.at_op(","):
            self.next()
            items.append(self.expr(700))
        tail: Term = NIL
        if self.at_op("|"):
            self.next()
            tail = self.expr(700)
        self.expect_op("]")
        for x in reversed(items):
            tail = Compound(".", (x, tail))
        return tail

    def finish(self, t: Term, require_stop: bool = False) -> Term:
        if require_stop:
            kind, val, pos = self.next()
            if kind != "op" or val != ".":
                raise ParseError("expected '.' at end of clause", pos, self.text)
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing input", pos, self.text)
        return t


def parse_term(text: str) -> Term:
    p = _Parser(text)
    return p.finish(p.expr(1200))


def parse_term_with_vars(text: str) -> tuple[Term, dict[str, Var]]:
    p = _Parser(text)
    t = p.finish(p.expr(1200))
    return t, p.vars


def parse_goal(text: str) -> Term:
    p = _Parser(text)
    return p.finish(p.expr(1000))


def parse_goal_with_vars(text: str) -> tuple[Term, dict[str, Var]]:
    p = _Parser(text)
    t = p.finish(p.expr(1000))
    return t, p.vars


def parse_clause(text: str) -> Term:
    """Parse ``Head :- Body.`` or ``Fact.`` (terminating full stop required)."""
    p = _Parser(text)
    return p.finish(p.expr(1200), require_stop=True)


# ---------------------------------------------------------------------------
# writing

_INFIX_PRIO = {
    ":-": 1200,
    ",": 1000,
    "=": 700,
    "<": 700,
    ">": 700,
    ">=": 700,
    "=<": 700,
    "?": 500,
    "??": 500,
}


def quote_atom(name: str) -> str:
    if name == "[]" or _BARE_ATOM_RE.match(name):
        return name
    body = []
    for c in name:
        if c == "'":
            body.append("\\'")
        else:
            body.append(_UNESCAPES.get(c, c))
    return "'" + "".join(body) + "'"


def _quote_str(value: str) -> str:
    body = []
    for c in value:
        if c == '"':
            body.append('\\"')
        else:
            body.append(_UNESCAPES.get(c, c))
    return '"' + "".join(body) + '"'


def format_term(t: Term) -> str:
    """Canonical text of t; bound variables are written as their values.

    Variables whose names are not identifier-shaped (possible in decoded
    foreign input) and unnamed variables are written under generated ``_G<n>``
    names, consistently within one call.  The writer is one loop over a stack
    of pending text and ``(term, max_prio)`` items, so any depth is safe.
    """
    vs = variables(t)
    display = {v: v.name for v in vs if v.name is not None and _VAR_NAME_RE.match(v.name)}
    used = set(display.values())
    n = 0
    for v in vs:
        if v not in display:
            n += 1
            while f"_G{n}" in used:
                n += 1
            display[v] = f"_G{n}"

    out: list[str] = []
    stack: list = [(t, 1200)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, max_prio = item
        x = deref(x)
        if type(x) is Var:
            out.append(display[x])
        elif type(x) is Atom:
            out.append(quote_atom(x.name))
        elif type(x) is Int:
            out.append(str(x.value))
        elif type(x) is Str:
            out.append(_quote_str(x.value))
        else:
            stack.extend(reversed(_pieces(x, max_prio)))
    return "".join(out)


def _pieces(x: Compound, max_prio: int) -> list:
    """The text of compound x, left to right, as strings and (term, prio) items."""
    if x.functor == "." and x.arity == 2:
        parts: list = ["["]
        node: Term = x
        while type(node) is Compound and node.functor == "." and node.arity == 2:
            parts += [(node.args[0], 700), ","]
            node = deref(node.args[1])
        if node == NIL:
            parts[-1] = "]"
        else:
            parts[-1] = "|"
            parts += [(node, 700), "]"]
        return parts
    if x.functor == ":" and x.arity == 2:
        # thread:process@host; ':' directly followed by a negative number
        # would re-tokenize as ':-', so that number is spaced off
        rhs = deref(x.args[1])
        if type(rhs) is Compound and rhs.functor == "@" and rhs.arity == 2:
            mid, host = deref(rhs.args[0]), ["@", (rhs.args[1], 0)]
        else:
            mid, host = rhs, []
        colon = ": " if type(mid) is Int and mid.value < 0 else ":"
        parts = [(x.args[0], 0), colon, (mid, 0), *host]
        return parts if max_prio >= 200 else ["(", *parts, ")"]
    prio = _INFIX_PRIO.get(x.functor) if x.arity == 2 else None
    if prio is not None:
        left, right = x.args
        if x.functor == ",":
            parts = [(left, 999), ",", (right, 1000)]
        elif x.functor == ":-":
            parts = [(left, 1199), " :- ", (right, 1199)]
        else:
            parts = [(left, prio - 1), x.functor, (right, prio - 1)]
        return parts if prio <= max_prio else ["(", *parts, ")"]
    # "[]" is only bare as the empty-list atom, never as a functor
    functor = "'[]'" if x.functor == "[]" else quote_atom(x.functor)
    parts = [functor + "("]
    for a in x.args:
        parts += [(a, 700), ","]
    parts[-1] = ")"
    return parts
