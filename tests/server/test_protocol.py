"""Wire-protocol tests: framing, reassembly, interleaving, malformed frames."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.net.network import (
    MAX_PAYLOAD_WORDS,
    Packet,
    PacketNetwork,
    TYPE_CONTROL,
    TYPE_DATA,
    TYPE_END_OF_FILE,
)
from repro.server.protocol import (
    HEADER_WORDS,
    MAGIC_REQUEST,
    MAX_FRAME_PAYLOAD_WORDS,
    OP_CLOSE,
    OP_LIST,
    OP_NAMES,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    FrameAssembler,
    Request,
    Response,
    ST_BUSY,
    ST_NAMES,
    ST_OK,
    decode_name,
    decode_names,
    encode_name,
    encode_names,
    encode_request,
    encode_response,
    relay,
)


def assemble(packets):
    """Feed packets into a fresh assembler; return the completed frames."""
    assembler = FrameAssembler()
    frames = []
    for packet in packets:
        completed = assembler.feed(packet)
        if completed is not None:
            frames.append(completed)
    return frames


# -- roundtrips ---------------------------------------------------------------


@pytest.mark.parametrize("request_frame", [
    Request(OP_OPEN, request_id=1, arg0=1, payload=(4, 0x6162, 0x6300, 0, 0)),
    Request(OP_READ, request_id=2, handle=5, arg0=1, arg1=8),
    Request(OP_WRITE, request_id=3, handle=5, arg0=2, arg1=512,
            payload=tuple(range(256))),
    Request(OP_CLOSE, request_id=4, handle=5),
    Request(OP_LIST, request_id=0xFFFF),
])
def test_request_roundtrip(request_frame):
    packets = encode_request(request_frame, "ws", "srv")
    frames = assemble(packets)
    assert frames == [("ws", request_frame)]


@pytest.mark.parametrize("response_frame", [
    Response(ST_OK, request_id=1, handle=3, result0=2, result1=100),
    Response(ST_BUSY, request_id=2),
    Response(ST_OK, request_id=3, payload=tuple(range(700))),
])
def test_response_roundtrip(response_frame):
    packets = encode_response(response_frame, "srv", "ws")
    frames = assemble(packets)
    assert frames == [("srv", response_frame)]


def test_large_payload_spans_continuation_packets():
    """A READ batch of 8 pages is 2048 payload words: one header packet
    plus continuations, each within the network's packet limit."""
    payload = tuple(w & 0xFFFF for w in range(2048))
    packets = encode_response(Response(ST_OK, request_id=9, payload=payload),
                              "srv", "ws")
    assert len(packets) > 1
    assert packets[0].ptype == TYPE_CONTROL
    assert all(p.ptype == TYPE_DATA for p in packets[1:])
    assert all(len(p.payload) <= MAX_PAYLOAD_WORDS for p in packets)
    [(_, frame)] = assemble(packets)
    assert frame.payload == payload


def test_frames_from_different_hosts_interleave():
    a = encode_request(Request(OP_WRITE, request_id=1, handle=1, arg1=512,
                               payload=tuple(range(256))), "a", "srv")
    b = encode_request(Request(OP_WRITE, request_id=2, handle=1, arg1=512,
                               payload=tuple(range(256))), "b", "srv")
    interleaved = [p for pair in zip(a, b) for p in pair]
    frames = assemble(interleaved)
    assert [source for source, _ in frames] == ["a", "b"]
    assert frames[0][1].request_id == 1
    assert frames[1][1].request_id == 2


def test_packets_survive_a_real_network_hop():
    net = PacketNetwork()
    net.attach("ws")
    net.attach("srv")
    request = Request(OP_WRITE, request_id=7, handle=2, arg0=3, arg1=512,
                      payload=tuple(range(256)))
    for packet in encode_request(request, "ws", "srv"):
        assert net.send(packet)
    arrived = []
    while True:
        packet = net.receive("srv")
        if packet is None:
            break
        arrived.append(packet)
    [(source, frame)] = assemble(arrived)
    assert source == "ws" and frame == request


# -- malformed frames ---------------------------------------------------------


def test_new_header_abandons_incomplete_frame():
    request = Request(OP_WRITE, request_id=1, handle=1, arg1=512,
                      payload=tuple(range(256)))
    first = encode_request(request, "ws", "srv")
    assert len(first) > 1
    assembler = FrameAssembler()
    assert assembler.feed(first[0]) is None        # frame now incomplete
    replacement = encode_request(Request(OP_LIST, request_id=2), "ws", "srv")
    completed = assembler.feed(replacement[0])
    assert completed is not None and completed[1].op == OP_LIST
    assert assembler.abandoned == 1


def test_stray_continuation_is_counted_and_ignored():
    assembler = FrameAssembler()
    stray = Packet("ws", "srv", TYPE_DATA, (1, 2, 3))
    assert assembler.feed(stray) is None
    assert assembler.stray == 1


def test_unknown_packet_type_is_stray():
    assembler = FrameAssembler()
    assert assembler.feed(Packet("ws", "srv", TYPE_END_OF_FILE, ())) is None
    assert assembler.stray == 1


def test_short_header_raises():
    assembler = FrameAssembler()
    with pytest.raises(ProtocolError):
        assembler.feed(Packet("ws", "srv", TYPE_CONTROL, (MAGIC_REQUEST, 1)))


def test_bad_magic_raises():
    assembler = FrameAssembler()
    with pytest.raises(ProtocolError):
        assembler.feed(Packet("ws", "srv", TYPE_CONTROL,
                              (0x1234,) + (0,) * (HEADER_WORDS - 1)))


def test_payload_overrun_raises_and_clears_the_partial():
    request = Request(OP_WRITE, request_id=1, handle=1, arg1=512,
                      payload=tuple(range(256)))
    packets = encode_request(request, "ws", "srv")
    assembler = FrameAssembler()
    assembler.feed(packets[0])
    oversized = Packet("ws", "srv", TYPE_DATA, tuple(range(100)))
    with pytest.raises(ProtocolError):
        assembler.feed(oversized)
    # The partial is gone: the next continuation is a stray, not an overrun.
    assert assembler.feed(Packet("ws", "srv", TYPE_DATA, (1,))) is None
    assert assembler.stray == 1


# -- frame validation ---------------------------------------------------------


def test_unknown_opcode_rejected():
    with pytest.raises(ProtocolError):
        Request(99, request_id=1)


def test_request_id_zero_rejected():
    with pytest.raises(ProtocolError):
        Request(OP_LIST, request_id=0)


def test_oversized_frame_payload_rejected():
    with pytest.raises(ProtocolError):
        Request(OP_WRITE, request_id=1,
                payload=tuple([0] * (MAX_FRAME_PAYLOAD_WORDS + 1)))


@pytest.mark.parametrize("request_id", [-1, 0x10000])
def test_a_response_id_that_is_not_a_word_is_refused_where_it_is_built(request_id):
    with pytest.raises(ValueError, match="header word must fit in 16 bits"):
        Response(ST_OK, request_id=request_id)


def test_a_float_payload_word_is_refused_where_the_request_is_built():
    with pytest.raises(ValueError, match="payload word must be an int, got float"):
        Request(OP_WRITE, 1, payload=(1.5,))


def test_a_float_equal_to_a_known_op_is_refused():
    with pytest.raises(ValueError, match="header word must be an int, got float"):
        Request(float(OP_READ), 1)


def test_a_list_payload_is_held_as_the_tuple_that_was_checked():
    words = [1, 2]
    request = Request(OP_WRITE, 1, payload=words)
    words[0] = 1.5
    assert request.payload == (1, 2)


def test_only_a_frame_is_encoded():
    """The encoders skip the per-word check because a frame made it, so
    anything with a frame's fields that is not one is refused."""
    impostor = SimpleNamespace(op=OP_WRITE, request_id=1, handle=0, arg0=1,
                               arg1=2, payload=(1.5,))
    with pytest.raises(TypeError, match="not a Request: SimpleNamespace"):
        encode_request(impostor, "ws", "srv")


# -- OPEN names and LIST name lists -------------------------------------------

names = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1, max_size=255)


@given(st.lists(names, max_size=20))
def test_name_lists_round_trip(listed):
    assert decode_names(encode_names(listed)) == listed
    for name in listed:
        assert decode_name(encode_name(name)) == name


@pytest.mark.parametrize("payload", [(), (0x0000,), (0x0541,), (0x01FF,)],
                         ids=["no-words", "empty", "length-past-data", "non-ascii"])
def test_a_bad_name_raises_protocol_error(payload):
    with pytest.raises(ProtocolError):
        decode_name(payload)


# (3, 0x0141) would read as ["A"] if the count were not checked.
@pytest.mark.parametrize("payload", [(3, 0x0141), (1,), (1, 0x0000), (1, 0x01FF)],
                         ids=["count-past-payload", "count-without-name",
                              "empty-name", "non-ascii"])
def test_a_bad_name_list_raises_protocol_error(payload):
    with pytest.raises(ProtocolError):
        decode_names(payload)


@given(st.lists(st.integers(0, 0xFFFF), max_size=40))
def test_decoding_any_words_raises_only_protocol_error(words):
    for decode in (decode_name, decode_names):
        try:
            decode(tuple(words))
        except ProtocolError:
            pass


# -- relaying -------------------------------------------------------------------


words = st.integers(0, 0xFFFF)


@st.composite
def wire_frames(draw):
    """A request or response whose payload spans 1-4 packets."""
    packets = draw(st.integers(1, 4))
    room = MAX_PAYLOAD_WORDS - HEADER_WORDS
    fewest = 0 if packets == 1 else room + (packets - 2) * MAX_PAYLOAD_WORDS + 1
    count = draw(st.integers(fewest, room + (packets - 1) * MAX_PAYLOAD_WORDS))
    rng = draw(st.randoms(use_true_random=False))
    payload = tuple(rng.randrange(0x10000) for _ in range(count))
    request_id, handle, word4, word5 = draw(
        st.tuples(st.integers(1, 0xFFFF), words, words, words))
    if draw(st.booleans()):
        return Request(draw(st.sampled_from(sorted(OP_NAMES))), request_id,
                       handle, word4, word5, payload)
    return Response(draw(st.sampled_from(sorted(ST_NAMES))), request_id,
                    handle, word4, word5, payload)


@given(frame=wire_frames(), handle=st.one_of(st.none(), words))
def test_relaying_a_frame_equals_encoding_it_with_the_new_handle(frame, handle):
    encode = encode_request if isinstance(frame, Request) else encode_response
    [(_, received)] = assemble(encode(frame, "ws", "router"))
    if handle is not None:
        frame = replace(frame, handle=handle)
    assert relay(received, "router", "shard", handle) == encode(frame, "router",
                                                               "shard")


def test_only_a_frame_off_the_wire_can_be_relayed():
    frame = Request(OP_LIST, request_id=1)
    with pytest.raises(ValueError, match="FrameAssembler"):
        relay(frame, "router", "shard")
    [(_, received)] = assemble(encode_request(frame, "ws", "router"))
    assert received.packets and not replace(received).packets
