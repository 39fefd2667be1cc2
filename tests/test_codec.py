import hashlib
import random

import pytest
from hypothesis import given

import termbus.codec
from termbus.address import Address
from termbus.codec import (
    BodyParseError,
    CodecError,
    Envelope,
    Flags,
    TruncatedFrameError,
    UnqualifiedAddressError,
    VersionMismatchError,
    decode_envelope,
    decode_term_binary,
    encode_envelope,
    encode_term_binary,
    encode_varint,
    is_register_ack,
    make_register,
    make_register_ack,
    register_payload_name,
    split_frames,
    unzigzag,
    zigzag,
)
from termbus.syntax import format_term
from termbus.terms import (
    Atom,
    Compound,
    Int,
    Str,
    Var,
    deref,
    list_parts,
    mk,
    mklist,
    variant,
    INT_MIN,
    INT_MAX,
)

from termgen import gen_list_term, gen_term

A = Address("t", "p", "h")
B = Address("u", "q", "h")


def test_atom_binary_layout():
    assert encode_term_binary(Atom("a")) == b"\x01\x01a"


_X, _Y = Var(), Var()

# the binary layout of every other tag, byte for byte
GOLDEN = [
    (Int(-5), "02 09"),
    (Int(300), "02 d8 04"),
    (Int(INT_MIN), "02 ff ff ff ff ff ff ff ff ff 01"),
    (Int(INT_MAX), "02 fe ff ff ff ff ff ff ff ff 01"),
    (Str("h\u00e9llo"), "03 06 68 c3 a9 6c 6c 6f"),
    (Var("N"), "04 01 4e"),
    (mk("f", _X, _Y, _X, _Y), "05 01 66 04 04 00 00 04 00 01 04 00 00 04 00 01"),
    (mk("f", mk("g", Atom("a"), Str("")), Int(1)), "05 01 66 02 05 01 67 02 01 01 61 03 00 02 02"),
    (mklist([Int(1), Atom("b")]), "05 01 2e 02 02 02 05 01 2e 02 01 01 62 01 02 5b 5d"),
    # lengths and arities of 128 and more take a two-byte varint
    (Str("ab" * 100), "03 c8 01" + " 61 62" * 100),
    (mk("f", *[Int(1)] * 130), "05 01 66 82 01" + " 02 02" * 130),
]


@pytest.mark.parametrize("term,golden", GOLDEN)
def test_binary_layout_is_pinned(term, golden):
    data = bytes.fromhex(golden)
    assert encode_term_binary(term) == data
    assert variant(decode_term_binary(data), term)


def test_envelope_layout_is_pinned():
    env = Envelope(mk("f", Int(1)), A, B, flags=Flags(encoded=True))
    assert encode_envelope(env) == bytes.fromhex(
        "0000001a 01 01 05 743a7040 68 05 753a7140 68 05 753a7140 68 05 01 66 01 02 02"
    )


def test_atom_and_functor_byte_cache_stays_bounded():
    for i in range(termbus.codec._HEADS_MAX + 10):
        t = mk(f"f{i}", Atom(f"a{i}"))
        assert decode_term_binary(encode_term_binary(t)) == t
    assert len(termbus.codec._HEADS) <= termbus.codec._HEADS_MAX
    assert len(termbus.codec._TEXTS) <= termbus.codec._HEADS_MAX


def test_address_field_memo_stays_bounded():
    for i in range(termbus.codec._FIELDS_MAX + 10):
        env = Envelope(Atom("x"), Address(f"t{i}", "p", "h"), B)
        assert decode_envelope(encode_envelope(env)).to == env.to
    assert len(termbus.codec._FIELDS) <= termbus.codec._FIELDS_MAX
    for unqualified in (Address("t"), Address("t", "p")):
        with pytest.raises(UnqualifiedAddressError):
            encode_envelope(Envelope(Atom("x"), A, B, reply_to=unqualified))
        assert id(unqualified) not in termbus.codec._FIELDS


def _frame(to: bytes, sender: bytes, reply_to: bytes) -> bytes:
    """A frame whose header fields are the given raw texts, with body 'x'."""
    rest = bytes([0x01, 0x00])
    for raw in (to, sender, reply_to):
        rest += encode_varint(len(raw)) + raw
    rest += b"x"
    return len(rest).to_bytes(4, "big") + rest


def test_header_memo_decodes_every_destination_and_stays_bounded():
    for i in range(5000):
        to = Address(f"t{i}", "p", "h") if i % 2 else Address(i, f"p{i}", "h")
        assert decode_envelope(encode_envelope(Envelope(Atom("x"), to, B))).to == to
    assert len(termbus.codec._HEADER) <= termbus.codec._HEADER_MAX


@pytest.mark.parametrize("sender", [b"u:q", b"u", b"self", b"u:q@h!", b"", b"\xff:q@h"])
def test_a_bad_sender_field_is_rejected_on_every_frame(sender):
    good = _frame(b"t:p@h", b"u:q@h", b"u:q@h")
    bad = _frame(b"t:p@h", sender, b"u:q@h")
    for _ in range(3):
        assert decode_envelope(good).to == A
        with pytest.raises(BodyParseError):
            decode_envelope(bad)
        with pytest.raises(BodyParseError):
            decode_envelope(bad, body=False)
    assert sender not in termbus.codec._HEADER


def _head(frame: bytes) -> bytes:
    """A frame's whole header, the memo's key, when each length takes one byte."""
    i = 7 + frame[6]
    j = i + 1 + frame[i]
    return frame[5 : j + 1 + frame[j]]


def test_whole_header_memo_holds_what_it_read_and_stays_bounded():
    frames = [
        encode_envelope(Envelope(Atom("x"), Address(f"t{i}", "p", "h"), B))
        for i in range(termbus.codec._HEADER_MAX + 10)
    ]
    for frame in frames:
        env = decode_envelope(frame, body=False)
        assert termbus.codec._WHOLE_HEADER[_head(frame)] == (env.flags, env.to, B, B)
        assert len(termbus.codec._WHOLE_HEADER) <= termbus.codec._HEADER_MAX
    for frame in frames[-3:]:  # a hit decodes as the miss did
        hit = decode_envelope(frame)
        assert (hit.to, hit.sender, hit.reply_to, hit.payload) == (
            decode_envelope(frame).to, B, B, Atom("x"))


def test_a_field_longer_than_127_bytes_decodes_through_the_fields():
    long = Address("t" * 200, "p", "h")
    memo = termbus.codec._WHOLE_HEADER
    for env in (Envelope(mk("f", Int(1)), long, B, flags=Flags(encoded=True)),
                Envelope(Atom("x"), A, long), Envelope(Atom("x"), A, B, reply_to=long)):
        frame = encode_envelope(env)
        size = len(memo)
        for _ in range(2):
            got = decode_envelope(frame)
            assert (got.to, got.sender, got.reply_to, got.flags) == (
                env.to, env.sender, env.reply_to, env.flags)
            assert got.payload == env.payload and len(memo) <= size
        assert not any(long in hit for hit in memo.values())


@pytest.mark.parametrize("frame", [
    _frame(b"t:p@h", b"u:q", b"u:q@h"),  # an unqualified sender
    _frame(b"t:p@h", b"u:q@h", b"u:q@h!"),  # a malformed reply-to
    _frame(b"t:p@h", b"u:q@h", b"\xff:q@h"),  # bad UTF-8
    _frame(b"self", b"u:q@h", b"u:q@h"),  # a reserved destination
])
def test_a_header_that_fails_its_checks_never_enters_the_memo(frame):
    memo = termbus.codec._WHOLE_HEADER
    for _ in range(2):
        with pytest.raises(CodecError):
            decode_envelope(frame, body=False)
        assert _head(frame) not in memo


def test_one_address_decodes_to_one_shared_object():
    frame = encode_envelope(Envelope(Atom("x"), A, B, reply_to=A))
    first, second = decode_envelope(frame), decode_envelope(frame, body=False)
    assert first.to is second.to is first.reply_to
    assert first.sender is second.sender


def test_an_address_with_a_variable_slot_is_an_unqualified_address():
    for slot in range(3):
        parts = ["t", "p", "h"]
        parts[slot] = Var()
        with pytest.raises(UnqualifiedAddressError, match="reply_to address"):
            encode_envelope(Envelope(Atom("x"), A, A, reply_to=Address(*parts)))


def test_a_non_term_is_refused():
    # the encoder's stack carries the cell header bytes beside terms
    for bad in (b"x", bytes.fromhex("05012e02"), "x", 1, None, mklist([1])):
        with pytest.raises(CodecError):
            encode_term_binary(bad)


def test_varint_edges():
    assert encode_varint(0) == b"\x00"
    assert encode_varint(127) == b"\x7f"
    assert encode_varint(128) == b"\x80\x01"


def test_zigzag_edges():
    for n in (0, -1, 1, INT_MIN, INT_MAX):
        assert unzigzag(zigzag(n)) == n
    assert zigzag(0) == 0 and zigzag(-1) == 1 and zigzag(1) == 2


def test_raw_body_is_canonical_text():
    env = Envelope(Atom("connect"), A, B)
    frame = encode_envelope(env)
    assert frame.endswith(b"connect")
    back = decode_envelope(frame)
    assert back.payload == Atom("connect")
    assert back.to == A and back.sender == B and back.reply_to == B


def test_flags_byte_position():
    env = Envelope(Atom("x"), A, B, flags=Flags(encoded=True, remember_names=True))
    frame = encode_envelope(env)
    assert frame[4] == 0x01  # version
    assert frame[5] == 0x03  # encoded | remember_names


def test_reply_to_defaults_to_sender():
    env = Envelope(Atom("x"), A, B)
    assert env.reply_to == B


def test_unqualified_address_rejected():
    with pytest.raises(Exception):
        encode_envelope(Envelope(Atom("x"), Address("t"), B))


def test_version_mismatch_detected():
    frame = bytearray(encode_envelope(Envelope(Atom("x"), A, B)))
    frame[4] = 0x02
    with pytest.raises(VersionMismatchError):
        decode_envelope(bytes(frame))


def test_truncation_detected():
    frame = encode_envelope(Envelope(mk("f", Atom("abc"), Int(12)), A, B))
    with pytest.raises(TruncatedFrameError):
        decode_envelope(frame[:-1])
    with pytest.raises(TruncatedFrameError):
        decode_envelope(frame[:3])


def test_trailing_junk_rejected():
    frame = encode_envelope(Envelope(Atom("x"), A, B))
    with pytest.raises(BodyParseError):
        decode_envelope(frame + b"junk")


def test_frames_are_self_delimiting():
    envs = [Envelope(Int(i), A, B, flags=Flags(encoded=bool(i % 2))) for i in range(5)]
    blob = b"".join(encode_envelope(e) for e in envs)
    frames = list(split_frames(blob))
    assert len(frames) == 5
    for env, frame in zip(envs, frames):
        assert decode_envelope(frame).payload == env.payload
    with pytest.raises(TruncatedFrameError):
        list(split_frames(blob[:-2]))


def test_binary_shared_variables_decode_shared():
    x = Var()
    t = mk("f", x, x, Var("N"), Var("N"))
    out = decode_term_binary(encode_term_binary(t))
    assert deref(out.args[0]) is deref(out.args[1])
    assert deref(out.args[2]) is deref(out.args[3])
    assert deref(out.args[2]).name == "N"
    assert deref(out.args[0]).name is None


def test_binary_follows_bindings():
    x = Var("X")
    x.ref = mk("g", Int(2))
    out = decode_term_binary(encode_term_binary(mk("f", x)))
    x.ref = None
    assert out == mk("f", mk("g", Int(2)))


def test_binary_rejects_unknown_tag_and_truncation():
    with pytest.raises(BodyParseError):
        decode_term_binary(b"\x09\x01a")
    with pytest.raises(TruncatedFrameError):
        decode_term_binary(b"\x01\x05ab")
    with pytest.raises(BodyParseError):
        decode_term_binary(encode_term_binary(Atom("a")) + b"\x01")


def test_encoded_sizes_directional():
    # structure overhead favours text, numeric leaves favour binary; a term
    # with multi-digit numeric leaves comes out smaller in binary
    t = mk(
        "metrics",
        mk("window", Int(100000), Int(200000)),
        mk("stats", Int(123456789), Int(-987654321)),
        mk("totals", Int(111222333), Int(444555666)),
    )
    text_len = len(format_term(t).encode())
    bin_len = len(encode_term_binary(t))
    assert bin_len < text_len


def test_control_register_roundtrip():
    reg = make_register("linda_server", "hosta")
    back = decode_envelope(encode_envelope(reg))
    assert back.flags.control
    assert register_payload_name(back) == "linda_server"
    ack = decode_envelope(encode_envelope(make_register_ack("linda_server", "hosta")))
    assert is_register_ack(ack)
    assert register_payload_name(back) and not is_register_ack(back)


def _roundtrip(t, encoded):
    env = Envelope(t, A, B, flags=Flags(encoded=encoded))
    back = decode_envelope(encode_envelope(env))
    assert variant(t, back.payload)
    assert back.flags.encoded == encoded
    return back


def test_roundtrip_seeded_both_codecs():
    rng = random.Random(99)
    for i in range(400):
        t = gen_term(rng)
        _roundtrip(t, encoded=bool(i % 2))


# Lists are written from one walk of their spine and read as one run of
# cells.  The digest pins the bytes of 1000 list-heavy terms; it was taken
# from an encoder that wrote every cell as a compound of its own.
LIST_TERMS_SHA256 = "84e26e3ae9482aa3ddd01a9987c6b9a4b3d11af41ed96eae217fb05fed6f4d07"


def _list_terms():
    rng = random.Random(2024)
    return [gen_list_term(rng) for _ in range(1000)]


def test_list_heavy_bytes_are_pinned():
    digest = hashlib.sha256()
    for t in _list_terms():
        digest.update(encode_term_binary(t))
    assert digest.hexdigest() == LIST_TERMS_SHA256


def test_list_heavy_terms_round_trip():
    for t in _list_terms():
        data = encode_term_binary(t)
        back = decode_term_binary(data)
        assert variant(back, t)
        assert encode_term_binary(back) == data


@pytest.mark.parametrize("spelled", [
    "05 01 2e 82 00 02 02 05 01 2e 02 02 04 01 02 5b 5d",  # first arity in two bytes
    "05 81 00 2e 02 02 02 05 01 2e 02 02 04 01 02 5b 5d",  # first length in two bytes
    "05 01 2e 02 02 02 05 01 2e 82 00 02 04 01 02 5b 5d",  # second arity in two bytes
])
def test_a_cell_spelled_longer_decodes_to_the_same_list(spelled):
    assert decode_term_binary(bytes.fromhex(spelled)) == mklist([Int(1), Int(2)])


def test_a_functor_ending_in_cell_header_bytes_is_no_list():
    t = mk("\x05\x01.", Int(1), Int(2))
    assert encode_term_binary(t).endswith(bytes.fromhex("05 01 2e 02 02 02 02 04"))
    assert decode_term_binary(encode_term_binary(t)) == t


def test_an_int_past_64_bits_in_a_list_is_a_parse_error():
    body = bytes.fromhex("05 01 2e 02 02 02 05 01 2e 02 02") + encode_varint(2**64) + bytes.fromhex("01 02 5b 5d")
    with pytest.raises(BodyParseError, match=r"^integer out of 64-bit range: 9223372036854775808$"):
        decode_term_binary(body)


def test_binary_preserves_sharing_raw_renames_consistently():
    u = Var()
    t = mk("f", u, u)
    for encoded in (True, False):
        back = _roundtrip(t, encoded)
        assert deref(back.payload.args[0]) is deref(back.payload.args[1])


def test_header_only_decode_skips_a_data_body():
    env = Envelope(mk("f", Int(1)), A, B, flags=Flags(encoded=True))
    frame = encode_envelope(env)
    garbage = frame[:-6] + b"\x09" * 6
    for f in (frame, garbage):
        head = decode_envelope(f, body=False)
        assert head.payload is None
        assert head.to == A and head.sender == B and head.reply_to == B
        assert head.flags == env.flags
    with pytest.raises(BodyParseError):
        decode_envelope(garbage)


def test_header_only_decode_still_checks_the_header():
    frame = encode_envelope(Envelope(Atom("x"), A, B, flags=Flags(encoded=True)))
    bad_version = frame[:4] + b"\x02" + frame[5:]
    with pytest.raises(VersionMismatchError):
        decode_envelope(bad_version, body=False)
    with pytest.raises(TruncatedFrameError):
        decode_envelope(frame[:-1], body=False)
    with pytest.raises(BodyParseError):
        decode_envelope(frame + b"x", body=False)


def test_header_only_decode_reads_a_control_body():
    back = decode_envelope(encode_envelope(make_register("svc", "h")), body=False)
    assert register_payload_name(back) == "svc"


DEEP = 100_000


def _reencodes(t, data):
    # variant() and == recurse, so the check is that the decoded term encodes
    # back to the very same bytes
    assert encode_term_binary(t) == data


def test_long_list_round_trips_without_recursion():
    t = mklist(Int(i) for i in range(DEEP))
    data = encode_term_binary(t)
    back = decode_term_binary(data)
    items, tail = list_parts(back)
    assert tail == Atom("[]") and [x.value for x in items] == list(range(DEEP))
    _reencodes(back, data)
    frame = encode_envelope(Envelope(t, A, B, flags=Flags(encoded=True)))
    env = decode_envelope(frame)
    _reencodes(env.payload, data)
    assert encode_envelope(env) == frame


def test_deep_nest_round_trips_without_recursion():
    t = Atom("leaf")
    for _ in range(DEEP):
        t = Compound("s", (t,))
    data = encode_term_binary(t)
    back = decode_term_binary(data)
    depth = 0
    while isinstance(back, Compound):
        back = back.args[0]
        depth += 1
    assert depth == DEEP and back == Atom("leaf")
    frame = encode_envelope(Envelope(t, A, B, flags=Flags(encoded=True)))
    assert encode_envelope(decode_envelope(frame)) == frame


# Malformed input is refused with codec errors alone.  The decoder reads
# single-byte varints, lengths and arities in line; these pin that every read
# is still checked against the end of the data.

def _bodies(seed, count):
    rng = random.Random(seed)
    return [encode_term_binary(gen_term(rng)) for _ in range(count)]


def _long_list_bodies(seed, count):
    rng = random.Random(seed)
    return [encode_term_binary(gen_list_term(rng, depth=1, length=300)) for _ in range(count)]


def test_every_strict_prefix_of_a_body_is_truncated():
    for body in _bodies(7, 200) + _long_list_bodies(7, 1):
        for k in range(len(body)):
            with pytest.raises(TruncatedFrameError):
                decode_term_binary(body[:k])


def _corruptions(data, rng):
    """data with one byte replaced, for every position and a spread of values."""
    for i, b in enumerate(data):
        for v in {0x00, 0x01, 0x05, 0x06, 0x7F, 0x80, 0xFF, b ^ 0x01, b ^ 0x80, rng.randrange(256)}:
            if v != b:
                yield data[:i] + bytes([v]) + data[i + 1:]


def test_a_corrupt_byte_decodes_or_raises_a_codec_error():
    rng = random.Random(11)
    tried = 0
    for body in _bodies(8, 40):
        for bad in _corruptions(body, rng):
            tried += 1
            try:
                decode_term_binary(bad)
            except CodecError:
                pass
        for encoded in (True, False):
            frame = encode_envelope(Envelope(decode_term_binary(body), A, B, flags=Flags(encoded=encoded)))
            for bad in _corruptions(frame, rng):
                tried += 1
                try:
                    decode_envelope(bad)
                except CodecError:
                    pass
    assert tried > 10_000


def test_a_corrupt_byte_in_a_long_list_decodes_or_raises_a_codec_error():
    rng = random.Random(12)
    for body in _long_list_bodies(9, 2):
        for bad in rng.sample(list(_corruptions(body, rng)), 800):
            try:
                decode_term_binary(bad)
            except CodecError:
                pass
