"""Request and Response built field by field into their slots == the
dataclass-built frames they replaced, with the word checks a frame makes.

``Request`` and ``Response`` store each field through its slot's setter in
their own ``__init__``.  The oracles below are the frozen dataclasses they
were, generated ``__init__`` and ``__post_init__`` checks and all, with
the checks that make a frame the protocol's word door spelled out one
word at a time: the op or status and the four header words, then each
payload word (:func:`repro.words.check_word`).  The property holds the two
to the same dataclass API: the same fields and values, ``==``, hash and
repr, the same ``replace``, and the same exception class and message for
a bad op or status, a header word that is not a word, an out-of-range
request id, an oversized payload and a payload word that is not a word.
"""

from dataclasses import dataclass, fields, replace
from typing import Tuple

from hypothesis import example, given, settings, strategies as st

from repro.errors import ProtocolError
from repro.server.protocol import (MAX_FRAME_PAYLOAD_WORDS, OP_NAMES,
                                   ST_NAMES, Request, Response)
from repro.words import check_word
from tests.word_strategies import bad


def check_frame(code, names, kind, header, payload):
    """The checks a frame makes, in order, one word at a time."""
    if code not in names:
        raise ProtocolError(f"unknown {kind} {code}")
    for word in (code, *header):
        check_word(word, "header word")
    if not 1 <= header[0] <= 0xFFFF:
        raise ProtocolError(f"request id must be 1..65535, got {header[0]}")
    if len(payload) > MAX_FRAME_PAYLOAD_WORDS:
        raise ProtocolError(f"payload of {len(payload)} words exceeds "
                            f"{MAX_FRAME_PAYLOAD_WORDS}")
    for word in payload:
        check_word(word, "payload word")


@dataclass(frozen=True)
class OracleRequest:
    op: int
    request_id: int
    handle: int = 0
    arg0: int = 0
    arg1: int = 0
    payload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_frame(self.op, OP_NAMES, "opcode",
                    (self.request_id, self.handle, self.arg0, self.arg1),
                    self.payload)


@dataclass(frozen=True)
class OracleResponse:
    status: int
    request_id: int
    handle: int = 0
    result0: int = 0
    result1: int = 0
    payload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_frame(self.status, ST_NAMES, "status",
                    (self.request_id, self.handle, self.result0, self.result1),
                    self.payload)


PAIRS = ((Request, OracleRequest), (Response, OracleResponse))

#: Header and payload words: mostly words, some not.
words = st.one_of(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), bad)
#: Kinds and request ids: mostly valid, some just outside, some far, and
#: a float equal to a known op and status.
kinds = st.one_of(st.integers(0, 9), st.integers(-2, 2 ** 17), st.just(1.0))
request_ids = st.one_of(st.integers(1, 0xFFFF),
                        st.sampled_from([0, -1, 0x10000, 2 ** 40, 1.5]))
payloads = st.one_of(
    st.lists(st.integers(0, 0xFFFF), max_size=12).map(tuple),
    st.lists(words, max_size=3).map(tuple),
    st.sampled_from([(0,) * MAX_FRAME_PAYLOAD_WORDS,
                     (0,) * (MAX_FRAME_PAYLOAD_WORDS + 1)]))
arguments = st.tuples(kinds, request_ids, words, words, words, payloads)


def outcome(cls, args, changes=None):
    """What building (then replacing fields of) a frame did: its field
    names and values, hash and repr (class name aside), or the error it
    raised."""
    try:
        frame = cls(*args)
        if changes is not None:
            frame = replace(frame, **changes)
    except Exception as exc:  # noqa: BLE001 - the class is the comparison
        return type(exc), str(exc)
    names = [field.name for field in fields(frame)]
    return (names, [getattr(frame, name) for name in names], hash(frame),
            repr(frame).replace("Oracle", "", 1))


#: Field changes for ``replace``, valid or not.
changes = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["request_id", "handle", "payload"]),
    st.one_of(request_ids, payloads), max_size=2))


@settings(deadline=None)
@given(st.sampled_from(PAIRS), arguments, arguments, changes)
@example(PAIRS[0], (9, 1, 0, 0, 0, ()), (1, 1, 0, 0, 0, ()), None)
@example(PAIRS[1], (8, 1, 0, 0, 0, ()), (0, 1, 0, 0, 0, ()), None)
@example(PAIRS[0], (1, 0x10000, 0, 0, 0, ()), (1, 0, 0, 0, 0, ()), None)
@example(PAIRS[1], (0, -1, 0, 0, 0, ()), (0, 0x10000, 0, 0, 0, ()), None)
@example(PAIRS[0], (3, 1, 0, 0, 0, (1.5,)), (1.0, 1, 0, 0, 0, ()), None)
@example(PAIRS[1], (0, 1, 0, 0, 0, ()), (0, 1, 0, 0, 0, ()),
         {"payload": (0,) * (MAX_FRAME_PAYLOAD_WORDS + 1)})
def test_frames_match_the_dataclass_built_ones(pair, args, other, changes):
    cls, oracle = pair
    assert [(f.name, f.default) for f in fields(cls)] == \
        [(f.name, f.default) for f in fields(oracle)]
    assert outcome(cls, args) == outcome(oracle, args)
    if changes is not None:
        assert outcome(cls, args, changes) == outcome(oracle, args, changes)
    try:
        frames = cls(*args), cls(*other)
        oracles = oracle(*args), oracle(*other)
    except (ProtocolError, ValueError):
        return
    assert (frames[0] == frames[1]) == (oracles[0] == oracles[1])
    assert frames[0] == cls(*args) and frames[0] != oracles[0]
    # Not a field: every frame built here has none, and replace drops any.
    assert frames[0].packets == () and replace(frames[0]).packets == ()
