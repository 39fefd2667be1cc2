"""Wire envelopes and the two body codecs.

Frame layout (bit-exact; both process-to-router and router-to-router links
speak exactly this):

    4 bytes   big-endian length of everything that follows
    1 byte    version, currently 0x01
    1 byte    flags: bit0 = body is binary-encoded, bit1 = remember_names,
              bit2 = control frame (registration traffic)
    3 fields  destination, sender, reply-to address: each a varint byte
              count followed by that many UTF-8 bytes of canonical text
    rest      body: canonical term text (raw) or the binary term encoding

Binary term encoding, tag byte first:

    0x01 Atom      varint length + UTF-8 name
    0x02 Int       zigzag + varint (64-bit signed)
    0x03 Str       varint length + UTF-8 value
    0x04 Var       varint name length + UTF-8 name; an unnamed variable is
                   length 0 followed by a varint serial, serials numbering
                   first occurrences within one term so sharing survives
    0x05 Compound  functor as an Atom payload, varint arity, then the
                   argument terms in order

Varints are unsigned LEB128.  Decoding is bounds-checked against the frame
length and never reads past it; truncation, version mismatch and body parse
failures raise distinct error types.  Encoding and decoding a term are each
one loop over an explicit stack, so the codec takes any length or nesting
depth.

A list has no tag of its own: each cell is the compound '.'/2, so a list of
n elements is n cell headers ``05 01 2e 02``, each followed by that cell's
head, and then the tail.  Both loops treat it as one run.  The encoder
walks the spine once and stacks every head behind its cell header; the
decoder opens one frame for the whole list, collects the heads while a
canonical header follows each one, and builds the cells back to front once
the tail is read.  A cell header spelled with a longer varint is read as
any compound is and gives the same term.

A router relays frames unchanged and validates only the header (length,
version, flags and the three addresses): decode_envelope(frame, body=False)
skips a data frame's body.  A bad body therefore travels on and surfaces at
the receiving node, whose full decode rejects it.  A header seen before is
read with one lookup in a bounded memo of checked headers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from . import syntax
from .address import Address, format_address, parse_address
from .terms import CONS, INT_MAX, INT_MIN, Atom, Compound, Int, Str, Term, Var, deref

VERSION = 0x01
MAX_FRAME = 64 * 1024 * 1024
RECV_SIZE = 64 * 1024  # bytes asked of one socket read cut by cut_frames

TAG_ATOM = 0x01
TAG_INT = 0x02
TAG_STR = 0x03
TAG_VAR = 0x04
TAG_COMPOUND = 0x05

# the header of a list cell, '.'/2, in its canonical spelling
_CELL = bytes([TAG_COMPOUND, 1, ord(CONS), 2])

# a decoded value is a bare instance whose slots are written through their
# descriptors, as the classes' own __init__ does, without a Python frame
_new = object.__new__
_set_name = Atom.name.__set__
_set_int = Int.value.__set__
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__


class CodecError(Exception):
    pass


class VersionMismatchError(CodecError):
    pass


class TruncatedFrameError(CodecError):
    pass


class BodyParseError(CodecError):
    pass


class UnqualifiedAddressError(CodecError):
    pass


@dataclass(frozen=True)
class Flags:
    """The flags byte of a frame (see the layout above).  Encoding writes
    the byte in line, and decoding reads _FLAGS[byte & 0x07]: unknown high
    bits are ignored for forward compatibility."""

    encoded: bool = False
    remember_names: bool = False
    control: bool = False


# every Flags value, indexed by its byte
_FLAGS = tuple(Flags(bool(b & 0x01), bool(b & 0x02), bool(b & 0x04)) for b in range(8))


@dataclass(frozen=True, init=False)
class Envelope:
    """One message in flight: payload plus destination, sender and reply-to.

    reply_to defaults to the sender when not given explicitly.  payload is
    None only in a data frame's header read by decode_envelope(body=False).
    The fields are written in one step, by __init__ or, in decode_envelope,
    into a bare instance's __dict__, so building one runs one frame or none.
    """

    payload: Optional[Term]
    to: Address
    sender: Address
    reply_to: Optional[Address] = None
    flags: Flags = _FLAGS[0]

    def __init__(self, payload, to, sender, reply_to=None, flags=_FLAGS[0]):
        self.__dict__.update(payload=payload, to=to, sender=sender, flags=flags,
                             reply_to=sender if reply_to is None else reply_to)


# ---------------------------------------------------------------------------
# varints


def _put_varint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def encode_varint(n: int) -> bytes:
    if n < 0:
        raise ValueError("varint is unsigned")
    out = bytearray()
    _put_varint(out, n)
    return bytes(out)


def zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def _get_varint(data, pos: int, end: int) -> tuple[int, int]:
    """The varint at data[pos:end] and the position after it."""
    value = shift = 0
    while True:
        if pos >= end:
            raise TruncatedFrameError("unexpected end of frame")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise BodyParseError("varint too long")


def _utf8(raw) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise BodyParseError(f"bad UTF-8: {e}") from None


def _put_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _put_varint(out, len(raw))
    out += raw


# ---------------------------------------------------------------------------
# binary term codec

# atom and functor text -> its varint length and UTF-8 bytes; the texts come
# from terms of any origin, so the cache is emptied when it reaches its bound
_HEADS: dict[str, bytes] = {}
_HEADS_MAX = 4096


# the inverse, for the decoder: atom and functor UTF-8 bytes -> their text,
# bounded in the same way
_TEXTS: dict[bytes, str] = {}


def _text(raw: bytes) -> str:
    text = _utf8(raw)
    if len(_TEXTS) >= _HEADS_MAX:
        _TEXTS.clear()
    _TEXTS[raw] = text
    return text


def _head(text: str) -> bytes:
    raw = text.encode("utf-8")
    head = encode_varint(len(raw)) + raw
    if len(_HEADS) >= _HEADS_MAX:
        _HEADS.clear()
    _HEADS[text] = head
    return head


def _encode_term(out: bytearray, t: Term) -> None:
    """Append the binary encoding of t to out, in one pre-order pass.

    A list's spine is walked once, following bound tails: its tail and then
    each head with its cell's header (the _CELL object itself, which no
    term is) go on the stack, back to front, so cells and heads are written
    in the same pre-order as any compound's.
    """
    put = out.append
    head = _HEADS.get
    serials: dict[int, int] = {}
    stack = [t]
    pop, push = stack.pop, stack.extend
    while stack:
        x = pop()
        kind = type(x)
        if kind is Compound:
            if len(x.args) == 2 and x.functor == CONS:
                items = []
                while type(x) is Compound and len(x.args) == 2 and x.functor == CONS:
                    items.append(x.args[0])
                    x = x.args[1]
                    while type(x) is Var and x.ref is not None:
                        x = x.ref
                stack.append(x)
                run = [_CELL] * (2 * len(items))
                run[::2] = items[::-1]  # the last head, its header, ... the first header
                push(run)
                continue
            put(TAG_COMPOUND)
            out += head(x.functor) or _head(x.functor)
            n = len(x.args)
            if n < 0x80:
                put(n)
            else:
                _put_varint(out, n)
            push(reversed(x.args))
        elif x is _CELL:
            out += _CELL
        elif kind is Int:
            z = (x.value << 1) ^ (x.value >> 63)
            put(TAG_INT)
            while z > 0x7F:
                put((z & 0x7F) | 0x80)
                z >>= 7
            put(z)
        elif kind is Atom:
            put(TAG_ATOM)
            out += head(x.name) or _head(x.name)
        elif kind is Var:
            if x.ref is not None:  # a bound variable is written as its value
                stack.append(x.ref)
            elif x.name is None:
                put(TAG_VAR)
                put(0)
                _put_varint(out, serials.setdefault(x.id, len(serials)))
            else:
                put(TAG_VAR)
                _put_text(out, x.name)
        elif kind is Str:
            put(TAG_STR)
            _put_text(out, x.value)
        else:
            raise CodecError(f"not a term: {x!r}")


def encode_term_binary(t: Term) -> bytes:
    """The binary encoding of t."""
    out = bytearray()
    _encode_term(out, t)
    return bytes(out)


def _decode_term(data, pos: int, end: int) -> tuple[Term, int]:
    """The binary term at data[pos:end] and the position after it.

    One loop reads one node a turn.  Every tag is followed by a varint (an
    Int's value, else a text length), read in line: a byte below 0x80 at
    once, a longer one byte by byte.  A compound is opened when its header
    is read and closed when its last argument is: ``functor``, ``need`` and
    ``args`` are the innermost compound still collecting arguments, and
    ``open_`` holds those around it.  A list is one open run (``need`` 0)
    that collects the heads of its cells: after each head, a canonical cell
    header continues the run, and anything else is the tail (``need`` -1),
    from which the cells are built back to front.  An atom or functor
    text is decoded from UTF-8 once while the bounded _TEXTS memo holds
    it.  Every read is checked against end.
    """
    named: dict[str, Var] = {}
    by_serial: dict[int, Var] = {}
    text_of = _TEXTS.get
    open_: list[tuple] = []
    functor, need, args = None, 0, None
    cell = data.startswith
    while True:
        if pos >= end:
            raise TruncatedFrameError("unexpected end of frame")
        tag = data[pos]
        pos += 1
        if pos < end and data[pos] < 0x80:
            n = data[pos]
            pos += 1
        elif TAG_ATOM <= tag <= TAG_COMPOUND:
            n = shift = 0
            while True:
                if pos >= end:
                    raise TruncatedFrameError("unexpected end of frame")
                b = data[pos]
                pos += 1
                n |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
                if shift > 70:
                    raise BodyParseError("varint too long")
        if tag == TAG_INT:
            value = (n >> 1) ^ -(n & 1)
            if not INT_MIN <= value <= INT_MAX:
                raise BodyParseError(f"integer out of 64-bit range: {value}")
            term = _new(Int)
            _set_int(term, value)
        elif tag == TAG_COMPOUND or tag == TAG_ATOM:
            stop = pos + n
            if stop > end:
                raise TruncatedFrameError("unexpected end of frame")
            raw = data[pos:stop]
            pos = stop
            text = text_of(raw) or _text(raw)
            if tag == TAG_ATOM:
                term = _new(Atom)
                _set_name(term, text)
            else:
                if pos < end and data[pos] < 0x80:
                    arity = data[pos]
                    pos += 1
                else:
                    arity, pos = _get_varint(data, pos, end)
                if arity == 0:
                    raise BodyParseError("compound with zero arity")
                open_.append((functor, need, args))
                functor, need, args = text, arity, []
                if arity == 2 and text == CONS and cell(_CELL, pos - 4):
                    need = 0  # a list run
                continue
        elif tag == TAG_STR or tag == TAG_VAR:
            stop = pos + n
            if stop > end:
                raise TruncatedFrameError("unexpected end of frame")
            text = _utf8(data[pos:stop]) if n else ""
            pos = stop
            if tag == TAG_STR:
                term = Str(text)
            elif text:
                term = named.get(text)
                if term is None:
                    term = named[text] = Var(text)
            else:
                serial, pos = _get_varint(data, pos, end)
                term = by_serial.get(serial)
                if term is None:
                    term = by_serial[serial] = Var()
        else:
            raise BodyParseError(f"unknown term tag 0x{tag:02x}")
        while args is not None:
            if need > 0:
                args.append(term)
                if len(args) < need:
                    break
                term = _new(Compound)
                _set_functor(term, functor)
                _set_args(term, tuple(args))
            elif need == 0:  # term is the head of a list cell
                args.append(term)
                if cell(_CELL, pos, end):
                    pos += 4
                else:
                    need = -1
                break
            else:  # term is the list's tail
                for h in reversed(args):
                    tail, term = term, _new(Compound)
                    _set_functor(term, CONS)
                    _set_args(term, (h, tail))
            functor, need, args = open_.pop()
        else:
            return term, pos


def decode_term_binary(data: bytes) -> Term:
    t, pos = _decode_term(data, 0, len(data))
    if pos != len(data):
        raise BodyParseError("trailing bytes after term")
    return t


# ---------------------------------------------------------------------------
# envelopes and frames

# id of a qualified address -> (the address, its header field: the varint
# length and UTF-8 bytes of its canonical text).  Addresses are shared
# objects, so the id finds one without running the dataclass __hash__; the
# entry holds the address, so its id is not reused while the entry lives.
# Emptied when it reaches its bound, as _HEADS is.
_FIELDS: dict[int, tuple[Address, bytes]] = {}
_FIELDS_MAX = 4096


def _field(a: Address, slot: str) -> bytes:
    if not a.qualified():
        raise UnqualifiedAddressError(f"{slot} address not fully qualified: {a!r}")
    raw = format_address(a).encode("utf-8")
    field = encode_varint(len(raw)) + raw
    if len(_FIELDS) >= _FIELDS_MAX:
        _FIELDS.clear()
    _FIELDS[id(a)] = (a, field)
    return field


def encode_envelope(env: Envelope) -> bytes:
    out = bytearray(4)  # the length prefix, written last
    out.append(VERSION)
    f = env.flags
    out.append((1 if f.encoded else 0) | (2 if f.remember_names else 0) | (4 if f.control else 0))
    memo = _FIELDS.get
    for slot, a in (("to", env.to), ("sender", env.sender), ("reply_to", env.reply_to)):
        hit = memo(id(a))
        out += hit[1] if hit is not None else _field(a, slot)
    if f.encoded:
        _encode_term(out, env.payload)
    else:
        out += syntax.format_term(env.payload).encode("utf-8")
    struct.pack_into(">I", out, 0, len(out) - 4)
    return bytes(out)


# a header field's UTF-8 bytes -> its Address, checked qualified: a frame
# names few distinct addresses, so each is decoded, parsed and checked once
# and every frame naming it shares the one object; only addresses that
# passed are kept, and the memo is emptied when it reaches its bound
_HEADER: dict[bytes, Address] = {}
_HEADER_MAX = 4096

# a whole header, the flags byte and three fields whose lengths take one
# byte each -> (Flags, to, sender, reply_to); kept only once the fields
# above have checked it, and bounded in the same way
_WHOLE_HEADER: dict[bytes, tuple] = {}


def _get_address(data, pos: int, end: int, what: str) -> tuple[Address, int]:
    n, pos = _get_varint(data, pos, end)
    stop = pos + n
    if stop > end:
        raise TruncatedFrameError("unexpected end of frame")
    raw = data[pos:stop]
    a = _HEADER.get(raw)
    if a is not None:
        return a, stop
    text = _utf8(raw)
    try:
        a = parse_address(text)
    except Exception as e:
        raise BodyParseError(f"bad {what} address {text!r}: {e}") from None
    if not a.qualified():
        raise BodyParseError(f"{what} address not fully qualified: {text!r}")
    if len(_HEADER) >= _HEADER_MAX:
        _HEADER.clear()
    _HEADER[raw] = a
    return a, stop


def decode_envelope(frame: bytes, body: bool = True) -> Envelope:
    """Decode one complete frame (length prefix included).

    With body=False the body of a data frame is not read and the result's
    payload is None: the header (length, version, flags and the three
    addresses) is all a router needs to relay the frame unchanged, so a bad
    data body only surfaces at the node that decodes it in full.  A control
    frame's body is always decoded, since the body is what it says.

    A header seen before, each field with a one-byte length, is one lookup
    in _WHOLE_HEADER; any other header is read field by field through
    _get_address and the _HEADER memo.
    """
    if len(frame) < 4:
        raise TruncatedFrameError("frame shorter than its length prefix")
    (length,) = struct.unpack_from(">I", frame, 0)
    if length > MAX_FRAME:
        raise BodyParseError(f"frame length {length} exceeds limit")
    if len(frame) - 4 < length:
        raise TruncatedFrameError("frame body shorter than declared length")
    if len(frame) - 4 > length:
        raise BodyParseError("trailing bytes after frame")
    end = 4 + length
    if end < 5:
        raise TruncatedFrameError("unexpected end of frame")
    version = frame[4]
    if version != VERSION:
        raise VersionMismatchError(f"unsupported version 0x{version:02x}")
    if end < 6:
        raise TruncatedFrameError("unexpected end of frame")
    try:  # the header ends at pos when each field's length takes one byte
        i = 7 + frame[6]
        j = i + 1 + frame[i]
        pos = j + 1 + frame[j]
        head = frame[5:pos] if (frame[6] | frame[i] | frame[j]) < 0x80 else None
    except IndexError:
        head = None
    hit = _WHOLE_HEADER.get(head)
    if hit is not None:
        flags, to, sender, reply_to = hit
    else:
        flags = _FLAGS[frame[5] & 0x07]
        to, pos = _get_address(frame, 6, end, "destination")
        sender, pos = _get_address(frame, pos, end, "sender")
        reply_to, pos = _get_address(frame, pos, end, "reply-to")
        if head is not None:  # checked, and every length took one byte
            if len(_WHOLE_HEADER) >= _HEADER_MAX:
                _WHOLE_HEADER.clear()
            _WHOLE_HEADER[head] = (flags, to, sender, reply_to)
    if not (body or flags.control):
        payload = None
    elif flags.encoded:
        payload, pos = _decode_term(frame, pos, end)
        if pos != end:
            raise BodyParseError("trailing bytes after body term")
    else:
        try:
            payload = syntax.parse_term(str(frame[pos:end], "utf-8"))
        except UnicodeDecodeError as e:
            raise BodyParseError(f"bad UTF-8 in body: {e}") from None
        except syntax.ParseError as e:
            raise BodyParseError(f"body parse failure: {e}") from None
    env = _new(Envelope)
    env.__dict__.update(payload=payload, to=to, sender=sender, reply_to=reply_to, flags=flags)
    return env


def cut_frames(buf: bytearray) -> list[bytes]:
    """Remove the complete frames at the front of buf and return them in order.

    What stays in buf is the start of a frame still arriving.  A length
    prefix over MAX_FRAME raises BodyParseError: no frame can follow it.
    """
    frames = []
    pos, n = 0, len(buf)
    with memoryview(buf) as view:  # one copy per frame, not two
        while n - pos >= 4:
            (length,) = struct.unpack_from(">I", view, pos)
            if length > MAX_FRAME:
                raise BodyParseError(f"frame length {length} exceeds limit")
            if pos + 4 + length > n:
                break
            frames.append(bytes(view[pos : pos + 4 + length]))
            pos += 4 + length
    del buf[:pos]
    return frames


def split_frames(data: bytes) -> Iterator[bytes]:
    """Iterate the complete frames in a byte string, in order.

    Frames are self-delimiting, so concatenating N encoded envelopes and
    splitting yields exactly N byte chunks.  A trailing partial frame raises
    TruncatedFrameError.
    """
    rest = bytearray(data)
    yield from cut_frames(rest)
    if rest:
        raise TruncatedFrameError("partial length prefix" if len(rest) < 4 else "partial frame")


# ---------------------------------------------------------------------------
# control frames

ROUTER_PROCESS = "router"
_CTL_THREAD = "ctl"


def control_address(process: str, host: str) -> Address:
    return Address(_CTL_THREAD, process, host)


def make_register(process: str, host: str) -> Envelope:
    me = control_address(process, host)
    return Envelope(
        payload=Compound("register", (Atom(process),)),
        to=control_address(ROUTER_PROCESS, host),
        sender=me,
        flags=Flags(control=True),
    )


def make_register_ack(process: str, host: str) -> Envelope:
    return Envelope(
        payload=Atom("register_ack"),
        to=control_address(process, host),
        sender=control_address(ROUTER_PROCESS, host),
        flags=Flags(control=True),
    )


def register_payload_name(env: Envelope) -> Optional[str]:
    """The process name carried by a REGISTER control frame, if it is one."""
    p = deref(env.payload)
    if (
        env.flags.control
        and isinstance(p, Compound)
        and p.functor == "register"
        and p.arity == 1
    ):
        name = deref(p.args[0])
        if isinstance(name, Atom):
            return name.name
    return None


def is_register_ack(env: Envelope) -> bool:
    p = deref(env.payload)
    return env.flags.control and isinstance(p, Atom) and p.name == "register_ack"
