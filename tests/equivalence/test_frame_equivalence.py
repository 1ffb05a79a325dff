"""Request and Response built field by field into their slots == the
dataclass-built frames they replaced.

``Request`` and ``Response`` store each field through its slot's setter in
their own ``__init__``.  The oracles below are the frozen dataclasses they
were, generated ``__init__`` and ``__post_init__`` checks and all, kept
verbatim.  The property holds the two to the same dataclass API: the same
fields and values, ``==``, hash and repr, the same ``replace``, and the
same exception class and message for a bad op or status, an out-of-range
request id, and an oversized payload.
"""

from dataclasses import dataclass, fields, replace
from typing import Tuple

from hypothesis import example, given, settings, strategies as st

from repro.errors import ProtocolError
from repro.server.protocol import (MAX_FRAME_PAYLOAD_WORDS, OP_NAMES,
                                   ST_NAMES, Request, Response)


@dataclass(frozen=True)
class OracleRequest:
    op: int
    request_id: int
    handle: int = 0
    arg0: int = 0
    arg1: int = 0
    payload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in OP_NAMES:
            raise ProtocolError(f"unknown opcode {self.op}")
        if not 1 <= self.request_id <= 0xFFFF:
            raise ProtocolError(f"request id must be 1..65535, got {self.request_id}")
        if len(self.payload) > MAX_FRAME_PAYLOAD_WORDS:
            raise ProtocolError(f"payload of {len(self.payload)} words exceeds "
                                f"{MAX_FRAME_PAYLOAD_WORDS}")


@dataclass(frozen=True)
class OracleResponse:
    status: int
    request_id: int
    handle: int = 0
    result0: int = 0
    result1: int = 0
    payload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in ST_NAMES:
            raise ProtocolError(f"unknown status {self.status}")
        if len(self.payload) > MAX_FRAME_PAYLOAD_WORDS:
            raise ProtocolError(f"payload of {len(self.payload)} words exceeds "
                                f"{MAX_FRAME_PAYLOAD_WORDS}")


PAIRS = ((Request, OracleRequest), (Response, OracleResponse))

words = st.integers(0, 0xFFFF)
#: Kinds and request ids: mostly valid, some just outside, some far.
kinds = st.one_of(st.integers(0, 9), st.integers(-2, 2 ** 17))
request_ids = st.one_of(st.integers(1, 0xFFFF),
                        st.sampled_from([0, -1, 0x10000, 2 ** 40]))
payloads = st.one_of(
    st.lists(words, max_size=12).map(tuple),
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
    except ProtocolError:
        return
    assert (frames[0] == frames[1]) == (oracles[0] == oracles[1])
    assert frames[0] == cls(*args) and frames[0] != oracles[0]
    # Not a field: every frame built here has none, and replace drops any.
    assert frames[0].packets == () and replace(frames[0]).packets == ()
