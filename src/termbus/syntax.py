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

The operators' priorities live in one table, ``_INFIX``, that the reader and
the writer share.  The reader is one operator-precedence loop over explicit
stacks and the writer one loop over a stack of pending pieces, so neither
uses the Python stack: any depth or length that fits in memory is safe.
"""

from __future__ import annotations

import re

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


# Infix operators: name -> (priority, left max, right max), where a max is
# the loosest priority an operand may have without parentheses.  The reader
# and the writer both read this table.  The arguments of ':' are primaries;
# '@' is not in it, because it is read only as the host part of an address,
# right after the part that follows ':'.
_INFIX = {
    ":-": (1200, 1199, 1199),
    ",": (1000, 999, 1000),
    "=": (700, 699, 699),
    "<": (700, 699, 699),
    ">": (700, 699, 699),
    ">=": (700, 699, 699),
    "=<": (700, 699, 699),
    "?": (500, 499, 499),
    "??": (500, 499, 499),
    ":": (200, 0, 0),
}
_TERM = _INFIX[":-"][0]  # the loosest priority: a whole term, or one in parentheses
_GOAL = _INFIX[","][0]  # a conjunction of goals
_ARG = _INFIX[","][1]  # an argument or list element, which a comma ends


def _parse(text: str, max_prio: int, require_stop: bool = False) -> tuple[Term, dict[str, Var]]:
    """One term of priority at most max_prio, and its named variables.

    One operator-precedence loop with explicit stacks: operands as
    (term, priority), operators as (name, priority, right max), and one
    frame per open '(', 'f(' or '[' recording where its operands and
    operators start.  So no nesting depth or length uses the Python stack.
    """
    tokens = _tokenize(text)
    names: dict[str, Var] = {}
    vals: list = []
    ops: list = []
    # [opener, max priority, ops base, vals base, functor]; the opener is
    # "text" for the whole input, "(", "f(", "[", or "|" once a list's
    # tail bar is read
    frames: list = [["text", max_prio, 0, 0, None]]
    i = 0

    def reduce() -> None:
        name, prio, _ = ops.pop()
        right, _ = vals.pop()
        vals[-1] = (Compound(name, (vals[-1][0], right)), prio)

    while True:
        # an operand: a primary, or the opening of a frame that ends in one
        kind, val, pos = tokens[i]
        i += 1
        if kind == "int":
            n = int(val)
            if not (INT_MIN <= n <= INT_MAX):
                raise ParseError("integer out of 64-bit range", pos, text)
            vals.append((Int(n), 0))
        elif kind == "str":
            vals.append((Str(_unescape(val[1:-1], pos + 1, text)), 0))
        elif kind == "atom" or kind == "qatom":
            name = val if kind == "atom" else _unescape(val[1:-1], pos + 1, text)
            if tokens[i][:2] == ("op", "("):
                i += 1
                frames.append(["f(", _ARG, len(ops), len(vals), name])
                continue
            vals.append((Atom(name), 0))
        elif kind == "var":
            if val == "_":
                v = Var()
            elif (v := names.get(val)) is None:
                v = names[val] = Var(val)
            vals.append((v, 0))
        elif kind == "op" and val == "[":
            if tokens[i][:2] == ("op", "]"):
                i += 1
                vals.append((NIL, 0))
            else:
                frames.append(["[", _ARG, len(ops), len(vals), None])
                continue
        elif kind == "op" and val == "(":
            frames.append(["(", _TERM, len(ops), len(vals), None])
            continue
        else:
            raise ParseError("expected a term", pos, text)

        # after an operand: an infix operator extends the expression; any
        # other token ends it and goes to the innermost frame
        while True:
            kind, val, pos = tokens[i]
            frame = frames[-1]
            opener, limit, base, vbase, functor = frame
            sep = val if kind == "op" else None
            if sep == "@" and len(ops) > base and ops[-1][0] == ":":
                ops.append(("@", 100, 0))
                i += 1
                break
            spec = _INFIX.get(sep)
            if spec is not None:
                prio, left_max, right_max = spec
                while len(ops) > base and ops[-1][2] < prio:
                    reduce()
                if len(ops) > base:
                    limit = ops[-1][2]
                if prio <= limit and vals[-1][1] <= left_max:
                    ops.append((sep, prio, right_max))
                    i += 1
                    break
            while len(ops) > base:
                reduce()
            if opener == "text":
                if require_stop:
                    if sep != ".":
                        raise ParseError("expected '.' at end of clause", pos, text)
                    i += 1
                if tokens[i][0] != "eof":
                    raise ParseError("unexpected trailing input", tokens[i][2], text)
                return vals[0][0], names
            i += 1
            if sep == "," and opener in ("f(", "[") or sep == "|" and opener == "[":
                if sep == "|":
                    frame[0] = "|"
                break
            closer = ")" if opener in ("(", "f(") else "]"
            if sep != closer:
                raise ParseError(f"expected {closer!r}", pos, text)
            frames.pop()
            if opener == "(":
                vals[-1] = (vals[-1][0], 0)
                continue
            items = [t for t, _ in vals[vbase:]]
            del vals[vbase:]
            if opener == "f(":
                vals.append((Compound(functor, tuple(items)), 0))
                continue
            tail = items.pop() if opener == "|" else NIL
            for x in reversed(items):
                tail = Compound(".", (x, tail))
            vals.append((tail, 0))


def parse_term(text: str) -> Term:
    return _parse(text, _TERM)[0]


def parse_term_with_vars(text: str) -> tuple[Term, dict[str, Var]]:
    return _parse(text, _TERM)


def parse_goal(text: str) -> Term:
    return _parse(text, _GOAL)[0]


def parse_goal_with_vars(text: str) -> tuple[Term, dict[str, Var]]:
    return _parse(text, _GOAL)


def parse_clause(text: str) -> Term:
    """Parse ``Head :- Body.`` or ``Fact.`` (terminating full stop required)."""
    return _parse(text, _TERM, require_stop=True)[0]


# ---------------------------------------------------------------------------
# writing

def quote_atom(name: str) -> str:
    if name == "[]" or _BARE_ATOM_RE.match(name):
        return name
    return _quoted(name, "'")


def _quoted(text: str, quote: str) -> str:
    """text between two quote characters, with quote and the characters in
    _UNESCAPES escaped."""
    body = "".join("\\" + c if c == quote else _UNESCAPES.get(c, c) for c in text)
    return quote + body + quote


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
    stack: list = [(t, _TERM)]
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
            out.append(_quoted(x.value, '"'))
        else:
            stack.extend(reversed(_pieces(x, max_prio)))
    return "".join(out)


def _pieces(x: Compound, max_prio: int) -> list:
    """The text of compound x, left to right, as strings and (term, prio) items."""
    if x.functor == "." and x.arity == 2:
        parts: list = ["["]
        node: Term = x
        while type(node) is Compound and node.functor == "." and node.arity == 2:
            parts += [(node.args[0], _ARG), ","]
            node = deref(node.args[1])
        if node == NIL:
            parts[-1] = "]"
        else:
            parts[-1] = "|"
            parts += [(node, _ARG), "]"]
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
        prio, left_max, right_max = _INFIX[":"]
        parts = [(x.args[0], left_max), colon, (mid, right_max), *host]
        return parts if prio <= max_prio else ["(", *parts, ")"]
    spec = _INFIX.get(x.functor) if x.arity == 2 else None
    if spec is not None:
        prio, left_max, right_max = spec
        op = " :- " if x.functor == ":-" else x.functor  # the neck is spaced
        parts = [(x.args[0], left_max), op, (x.args[1], right_max)]
        return parts if prio <= max_prio else ["(", *parts, ")"]
    # "[]" is only bare as the empty-list atom, never as a functor
    functor = "'[]'" if x.functor == "[]" else quote_atom(x.functor)
    parts = [functor + "("]
    for a in x.args:
        parts += [(a, _ARG), ","]
    parts[-1] = ")"
    return parts
