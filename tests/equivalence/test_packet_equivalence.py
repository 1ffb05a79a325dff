"""Packet's inline word check == the call-per-word check it replaced.

``Packet.__post_init__`` hands its payload to
:func:`repro.words.check_words`, which tests each word inline and calls
:func:`repro.words.check_word` only for a word that fails that test.  The
property below holds it to the replaced body, kept verbatim as the oracle:
the same exception class and message for every rejected payload, and for
every accepted one the payload object stored as given.

A packet stores its fields in slots, so however it is built -- constructed,
encoded, or relayed -- it takes no more memory than the plain frozen
dataclass it replaced, ``DataclassPacket`` below.
"""

import tracemalloc
from dataclasses import dataclass
from typing import Tuple

from hypothesis import example, given, settings, strategies as st

from repro.net.network import (MAX_PAYLOAD_WORDS, TYPE_CONTROL, TYPE_DATA,
                               NetworkError, Packet)
from repro.server.protocol import MAGIC_REQUEST, OP_READ, Request, encode_request
from repro.words import WORD_MASK, check_word
from tests.word_strategies import Register, bad, good


class OraclePacket:
    """The replaced check, one ``check_word`` call per payload word."""

    def __init__(self, payload):
        self.payload = payload
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD_WORDS:
            raise NetworkError(f"payload of {len(self.payload)} words exceeds {MAX_PAYLOAD_WORDS}")
        for w in self.payload:
            check_word(w, "payload word")


@st.composite
def payloads(draw):
    """0-257 words, mostly good, with a few bad ones planted anywhere."""
    count = draw(st.integers(0, MAX_PAYLOAD_WORDS + 1))
    words = draw(st.lists(good, min_size=count, max_size=count))
    if words:
        for at, value in draw(st.lists(st.tuples(st.integers(0, count - 1), bad),
                                       max_size=3)):
            words[at] = value
    return draw(st.sampled_from([tuple, list]))(words)


def outcome(make, payload):
    """What constructing a packet did: accepted, or the error it raised."""
    snapshot = list(payload)
    try:
        packet = make(payload)
    except Exception as exc:  # noqa: BLE001 - the class is the comparison
        return type(exc), str(exc)
    assert packet.payload is payload and list(payload) == snapshot
    return "accepted"


@settings(deadline=None)
@given(payloads())
@example((True, Register.TOP, 0, WORD_MASK))
@example((1, 3.0, None))
@example((WORD_MASK + 1, -1))
@example(tuple([0] * MAX_PAYLOAD_WORDS))
@example((None,) * (MAX_PAYLOAD_WORDS + 1))
def test_inline_check_matches_the_call_per_word_check(payload):
    expected = outcome(OraclePacket, payload)
    assert outcome(lambda p: Packet("a", "b", TYPE_DATA, p), payload) == expected


@dataclass(frozen=True)
class DataclassPacket:
    """The packet as a plain frozen dataclass, the layout it replaced."""

    source: str
    destination: str
    ptype: int
    payload: Tuple[int, ...] = ()


def bytes_each(make, count=10_000):
    """Memory each of *count* packets from *make* holds, on average."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [make() for _ in range(count)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == count
    return held / count


def test_packets_take_no_more_memory_than_dataclass_built_ones():
    words = (MAGIC_REQUEST, OP_READ, 1, 2, 3, 4, 0)
    request = Request(OP_READ, 1, 2, 3, 4)
    header = Packet("ws", "router", TYPE_CONTROL, words)
    # Sharing one payload tuple, as a relay does.
    shared = bytes_each(lambda: DataclassPacket("ws", "srv", TYPE_CONTROL, words))
    assert bytes_each(lambda: Packet("ws", "srv", TYPE_CONTROL, words)) <= shared
    assert bytes_each(lambda: header.relayed("router", "shard")) <= shared
    # With a fresh payload tuple each, as an encode builds.
    fresh = bytes_each(lambda: DataclassPacket("ws", "srv", TYPE_CONTROL,
                                               tuple(list(words))))
    assert bytes_each(lambda: encode_request(request, "ws", "srv")[0]) <= fresh
