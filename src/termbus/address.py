"""Symbolic addresses: thread[:process[@host]].

The thread slot holds either a symbolic name or an integer thread id.  The
short forms leave process and host implicit: a bare thread means "same
process", thread:process means "same host"; resolve() fills the gaps from
the sending thread's own address.  The reserved one-part addresses ``self``
and ``creator`` denote the calling thread and the thread that forked it:
resolve() hands back the very address objects it is given for them, which
a node takes from the thread's handle and its creator's, as they are now.

Addresses double as match patterns: any slot (or the whole address) may be a
variable, and match_address unifies pattern slots against a concrete address
using the shared binding trail.  A None slot is a wildcard, and a pattern is
not resolved the way a destination is: the short form ``kid`` as a receive's
from_ matches thread kid of any process on any host.  Only ``self`` and
``creator`` in a pattern resolve, to the receiving thread's own address and
its creator's (Node._pat).

Addresses are frozen values, and each distinct address is shared rather
than rebuilt per message: parse_address, term_to_address and resolve take
every address without variable slots from one bounded memo of the three
slots, which the codec's header memo reads through parse_address, each node
thread keeps its own address on its handle, and resolve returns a qualified
address, ``self`` and ``creator`` as those objects and a short form naming
the calling thread as its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .terms import Atom, Compound, Int, Term, Trail, Var, deref, unify_into


class AddressError(ValueError):
    pass


class _Reserved:
    __slots__ = ("token",)

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return self.token


SELF = _Reserved("self")
CREATOR = _Reserved("creator")

ThreadPart = Union[str, int, Var, _Reserved]
NamePart = Union[str, Var]

# thread[:process[@host]]; a component is a letter, digit or underscore,
# then letters, digits, underscores, dots and hyphens
_ADDRESS_RE = re.compile(
    r"([A-Za-z0-9_][A-Za-z0-9_.\-]*)"
    r"(?::([A-Za-z0-9_][A-Za-z0-9_.\-]*)(?:@([A-Za-z0-9_][A-Za-z0-9_.\-]*))?)?"
)


@dataclass(frozen=True)
class Address:
    thread: Optional[ThreadPart] = None
    process: Optional[NamePart] = None
    host: Optional[NamePart] = None

    def qualified(self) -> bool:
        """True when all three slots are concrete values."""
        return (
            isinstance(self.thread, (str, int))
            and isinstance(self.process, str)
            and isinstance(self.host, str)
        )

    def __str__(self) -> str:
        return format_address(self)


# text -> its parsed Address, which is frozen and so safe to share; every
# frame header brings three texts, which may be any bytes, so the memo is
# emptied when it reaches its bound
_PARSED: dict[str, Address] = {}
_PARSED_MAX = 4096

# (thread, process, host) -> the one Address with those concrete slots that
# parse_address, resolve and term_to_address hand out; bounded in the same way
_SHARED: dict[tuple, Address] = {}


def _shared(thread, process=None, host=None) -> Address:
    key = (thread, process, host)
    a = _SHARED.get(key)
    if a is None:
        if len(_SHARED) >= _PARSED_MAX:
            _SHARED.clear()
        a = _SHARED[key] = Address(thread, process, host)
    return a


def parse_address(text: str) -> Address:
    """Parse thread[:process[@host]]; digit-only thread slots become ids."""
    a = _PARSED.get(text)
    if a is not None:
        return a
    if text in ("self", "creator"):
        a = Address(thread=SELF if text == "self" else CREATOR)
    else:
        m = _ADDRESS_RE.fullmatch(text)
        if m is None:
            raise AddressError(f"malformed address: {text!r}")
        t, process, host = m.groups()
        a = _shared(int(t) if t.isdigit() else t, process, host)
    if len(_PARSED) >= _PARSED_MAX:
        _PARSED.clear()
    _PARSED[text] = a
    return a


def _part_str(part) -> str:
    if isinstance(part, _Reserved):
        return part.token
    if isinstance(part, int):
        return str(part)
    if isinstance(part, Var):
        raise AddressError("cannot format an address with variable slots")
    return part


def format_address(a: Address) -> str:
    if a.thread is None:
        raise AddressError("address without thread slot")
    out = _part_str(a.thread)
    if a.process is not None:
        out += ":" + _part_str(a.process)
        if a.host is not None:
            out += "@" + _part_str(a.host)
    elif a.host is not None:
        raise AddressError("address has host but no process")
    return out


def resolve(a: Address, me: Address, creator: Address) -> Address:
    """Fully qualify a for the thread at me, whose creator is at creator.

    A qualified a comes back as itself, self as me and creator as creator,
    the very objects.  A short form takes me's process and host: one that
    names me comes back as me, any other as one shared qualified address.
    """
    if a.qualified():
        return a
    if isinstance(a.thread, _Reserved):
        if a.process is not None or a.host is not None:
            raise AddressError(f"reserved token {a.thread.token} takes no suffix")
        return me if a.thread is SELF else creator
    if a.thread is None or isinstance(a.thread, Var):
        raise AddressError("destination thread slot is not concrete")
    process = a.process if a.process is not None else me.process
    host = a.host if a.host is not None else me.host
    if isinstance(process, Var) or isinstance(host, Var):
        raise AddressError("destination has variable slots")
    if (a.thread, process, host) == (me.thread, me.process, me.host):
        return me
    return _shared(a.thread, process, host)


# ---------------------------------------------------------------------------
# addresses as terms, and matching

def _part_term(part) -> Term:
    if isinstance(part, Var):
        return part
    if isinstance(part, int):
        return Int(part)
    if isinstance(part, str):
        return Atom(part)
    raise AddressError(f"cannot embed address part {part!r} in a term")


def address_to_term(a: Address) -> Term:
    """Embed an address as a term: ':'(Thread, '@'(Process, Host))."""
    t = _part_term(a.thread) if a.thread is not None else Var()
    if a.process is None and a.host is None:
        return t
    p = _part_term(a.process) if a.process is not None else Var()
    if a.host is None:
        return Compound(":", (t, p))
    h = _part_term(a.host)
    return Compound(":", (t, Compound("@", (p, h))))


def _part_from_term(t: Term, allow_int: bool):
    t = deref(t)
    if isinstance(t, Var):
        return t
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Int) and allow_int:
        return t.value
    raise AddressError(f"term is not an address part: {t!r}")


def term_to_address(t: Term) -> Address:
    """Inverse of address_to_term; accepts the short forms too.  An address
    without variable slots is the shared one."""
    t = deref(t)
    if isinstance(t, (Atom, Int, Var)):
        parts = (_part_from_term(t, allow_int=True),)
    elif isinstance(t, Compound) and t.functor == ":" and t.arity == 2:
        parts = (_part_from_term(t.args[0], allow_int=True),)
        rhs = deref(t.args[1])
        if isinstance(rhs, Compound) and rhs.functor == "@" and rhs.arity == 2:
            parts += (_part_from_term(rhs.args[0], allow_int=False),
                      _part_from_term(rhs.args[1], allow_int=False))
        else:
            parts += (_part_from_term(rhs, allow_int=False),)
    else:
        raise AddressError(f"term is not an address: {t!r}")
    return Address(*parts) if Var in map(type, parts) else _shared(*parts)


def match_address(pattern, ground: Address, trail: Trail) -> bool:
    """Match a pattern against a concrete address, binding pattern slots.

    pattern may be None (matches anything), a Var (binds to the whole
    address as a term), or an Address whose slots are values, Vars, or None
    wildcards.  A value slot is compared with ==, which is what unifying
    the two slot terms decides, so a pattern without variables builds no
    term; a Var slot is unified.  Bindings go on the caller's trail; the
    caller unwinds on an overall failure.
    """
    if pattern is None:
        return True
    if isinstance(pattern, Var):
        return unify_into(pattern, address_to_term(ground), trail)
    if not isinstance(pattern, Address):
        raise AddressError(f"not an address pattern: {pattern!r}")
    for pat_part, got_part in (
        (pattern.thread, ground.thread),
        (pattern.process, ground.process),
        (pattern.host, ground.host),
    ):
        if pat_part is None or pat_part == got_part:
            continue
        if isinstance(pat_part, (str, int)) or got_part is None:
            return False
        if not unify_into(_part_term(pat_part), _part_term(got_part), trail):
            return False
    return True
