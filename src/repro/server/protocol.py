"""The file-server wire protocol: explicit request/response framing.

A frame is one header packet (``TYPE_CONTROL``) optionally followed by
continuation packets (``TYPE_DATA``) carrying the rest of the payload
words.  The header packet starts with a fixed seven-word layout:

====  =================  =====================================================
word  name               meaning
====  =================  =====================================================
0     magic              ``MAGIC_REQUEST`` (0x4652) or ``MAGIC_RESPONSE``
                         (0x4653) -- distinguishes the two frame kinds
1     op / status        request opcode (``OP_*``) or response status
                         (``ST_*``)
2     request id         client-chosen, echoed verbatim in the response;
                         the server's at-most-once replay cache is keyed
                         on it, so a retried id never re-executes
3     handle             open-file handle (0 when not applicable)
4     arg0 / result0     OPEN: flags; READ/WRITE: page number;
                         responses: op-specific result (see SERVER.md)
5     arg1 / result1     READ: page count; WRITE: byte length;
                         responses: op-specific result
6     payload words      total payload length in words, across all packets
====  =================  =====================================================

Payload words follow in the same packet (up to the packet limit) and then
in continuation packets.  Frames from one host are reassembled in order by
:class:`FrameAssembler`; frames from different hosts may interleave at
packet granularity.  See ``SERVER.md`` for the full specification.

A frame checks its words where it is built (:mod:`repro.words`), so the
encoders cut its packets unchecked; the assembler, READ answers and a
client's WRITEs build through ``_frame``, which skips only the payload's.

>>> from repro.net import PacketNetwork
>>> from repro.server.protocol import (FrameAssembler, OP_LIST, Request,
...                                    encode_request)
>>> net = PacketNetwork(); net.attach("ws"); net.attach("srv")
>>> for packet in encode_request(Request(OP_LIST, request_id=7), "ws", "srv"):
...     _ = net.send(packet)
>>> assembler = FrameAssembler()
>>> source, frame = assembler.feed(net.receive("srv"))
>>> source, frame.op == OP_LIST, frame.request_id
('ws', True, 7)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..net.network import (MAX_PAYLOAD_WORDS, Packet, TYPE_CONTROL, TYPE_DATA,
                           _packet)
from ..words import check_words, string_to_words, words_to_string

#: Frame-kind discriminators (ASCII "FR" / "FS", both nonzero 16-bit words).
MAGIC_REQUEST = 0x4652
MAGIC_RESPONSE = 0x4653

#: Fixed header words before the payload.
HEADER_WORDS = 7

#: The header word that holds the handle: the one word a relay rewrites.
HANDLE_WORD = 3

#: Request opcodes.
OP_OPEN = 1
OP_READ = 2
OP_WRITE = 3
OP_CLOSE = 4
OP_LIST = 5

OP_NAMES = {OP_OPEN: "open", OP_READ: "read", OP_WRITE: "write",
            OP_CLOSE: "close", OP_LIST: "list"}

#: Response status codes.
ST_OK = 0
ST_BAD_REQUEST = 1          #: malformed frame or out-of-range arguments
ST_NOT_FOUND = 2            #: OPEN without ``FLAG_CREATE`` on a missing name
ST_BAD_HANDLE = 3           #: handle unknown to this session
ST_BUSY = 4                 #: admission queue full -- back off and retry
ST_BAD_PAGE = 5             #: READ/WRITE page outside the writable window
ST_TOO_LARGE = 6            #: payload exceeds the protocol limit
ST_ERROR = 7                #: server-side failure (disk full, I/O error)

ST_NAMES = {ST_OK: "ok", ST_BAD_REQUEST: "bad-request", ST_NOT_FOUND: "not-found",
            ST_BAD_HANDLE: "bad-handle", ST_BUSY: "busy", ST_BAD_PAGE: "bad-page",
            ST_TOO_LARGE: "too-large", ST_ERROR: "error"}

#: OPEN flag: create the file when the name does not exist.
FLAG_CREATE = 1

#: Most pages one READ request may ask for (request batching limit).
MAX_BATCH_PAGES = 8

#: Hard payload bound: the count field is one 16-bit word.
MAX_FRAME_PAYLOAD_WORDS = 0xFFFF


class _Frame:
    """What a request and a response frame share besides their fields."""

    #: The packets a :class:`FrameAssembler` built the frame from, for
    #: :func:`relay`; ``()`` for a frame built any other way.  Not a field:
    #: no part of equality, and ``replace`` drops it.
    __slots__ = ("packets",)


@dataclass(frozen=True, slots=True)
class Request(_Frame):
    """One decoded request frame; building one checks every word it is
    handed (a word door).

    >>> Request(OP_READ, request_id=3, handle=1, arg0=1, arg1=4).op == OP_READ
    True
    """

    op: int
    request_id: int
    handle: int = 0
    arg0: int = 0
    arg1: int = 0
    payload: Tuple[int, ...] = ()

    def __init__(self, op: int, request_id: int, handle: int = 0,
                 arg0: int = 0, arg1: int = 0,
                 payload: Tuple[int, ...] = ()) -> None:
        _fill(self, op, request_id, handle, arg0, arg1, payload)
        check_words(self.payload, "payload word")

    @property
    def op_name(self) -> str:
        return OP_NAMES[self.op]


@dataclass(frozen=True, slots=True)
class Response(_Frame):
    """One decoded response frame, checked as a :class:`Request` is.

    >>> Response(ST_OK, request_id=3).ok
    True
    >>> Response(ST_BUSY, request_id=3).status_name
    'busy'
    """

    status: int
    request_id: int
    handle: int = 0
    result0: int = 0
    result1: int = 0
    payload: Tuple[int, ...] = ()

    def __init__(self, status: int, request_id: int, handle: int = 0,
                 result0: int = 0, result1: int = 0,
                 payload: Tuple[int, ...] = ()) -> None:
        _fill(self, status, request_id, handle, result0, result1, payload)
        check_words(self.payload, "payload word")

    @property
    def ok(self) -> bool:
        return self.status == ST_OK

    @property
    def status_name(self) -> str:
        return ST_NAMES[self.status]


_new = object.__new__
_set_packets = _Frame.packets.__set__

#: Frame class -> (its known codes, what a code is called, then each
#: field's slot setter in field order).
_LAYOUTS = {cls: (names, kind, *(cls.__dict__[name].__set__
                                 for name in cls.__slots__))
            for cls, names, kind in ((Request, OP_NAMES, "opcode"),
                                     (Response, ST_NAMES, "status"))}


def _fill(frame, code: int, request_id: int, handle: int, word0: int,
          word1: int, payload: Sequence[int]) -> None:
    """Check and store *frame*'s fields by their slots' setters: every
    check but the payload's words.  The op or status is a header word too
    (``1.0`` equals a known op), and the payload is kept as a tuple so no
    word changes once checked."""
    (names, kind, set_code, set_id, set_handle, set_word0, set_word1,
     set_payload) = _LAYOUTS[type(frame)]
    if code not in names:
        raise ProtocolError(f"unknown {kind} {code}")
    check_words((code, request_id, handle, word0, word1), "header word")
    if not request_id:
        raise ProtocolError(f"request id must be 1..65535, got {request_id}")
    if type(payload) is not tuple:
        payload = tuple(payload)
    if len(payload) > MAX_FRAME_PAYLOAD_WORDS:
        raise ProtocolError(f"payload of {len(payload)} words exceeds "
                            f"{MAX_FRAME_PAYLOAD_WORDS}")
    set_code(frame, code)
    set_id(frame, request_id)
    set_handle(frame, handle)
    set_word0(frame, word0)
    set_word1(frame, word1)
    set_payload(frame, payload)
    _set_packets(frame, ())


def _frame(cls, code: int, request_id: int, handle: int, word0: int,
           word1: int, payload: Tuple[int, ...]):
    """``cls(...)`` without the check of payload words already past a
    door; its callers are pinned in ``tests/test_private_builders.py``."""
    frame = _new(cls)
    _fill(frame, code, request_id, handle, word0, word1, payload)
    return frame


def encode_name(name: str) -> Tuple[int, ...]:
    """An OPEN payload: *name* as a BCPL string (length byte, then ASCII).

    >>> encode_name("ab")
    (609, 25088)
    """
    return tuple(string_to_words(name))


def decode_name(words: Sequence[int]) -> str:
    """The file name *words* carry; the inverse of :func:`encode_name`.

    Raises :class:`~repro.errors.ProtocolError` unless *words* hold a
    nonempty ASCII BCPL string whose length byte stays inside them.

    >>> decode_name(encode_name("memo.txt"))
    'memo.txt'
    >>> decode_name((0x0541,))
    Traceback (most recent call last):
    ...
    repro.errors.ProtocolError: bad name: corrupt BCPL string: length byte 5, only 1 bytes follow
    """
    try:
        name = words_to_string(words)
    except ValueError as exc:  # a length byte past the data, or non-ASCII
        raise ProtocolError(f"bad name: {exc}") from None
    if not name:
        raise ProtocolError("empty name")
    return name


def encode_names(names: Iterable[str]) -> Tuple[int, ...]:
    """A LIST answer's payload: for each name, its word count, then
    :func:`encode_name`'s words.

    >>> encode_names(["ab", "c"])
    (2, 609, 25088, 1, 355)
    """
    payload: List[int] = []
    for name in names:
        words = encode_name(name)
        payload.append(len(words))
        payload.extend(words)
    return tuple(payload)


def decode_names(payload: Sequence[int]) -> List[str]:
    """The names a LIST answer carries; the inverse of :func:`encode_names`.

    Raises :class:`~repro.errors.ProtocolError` when a word count runs
    past the payload or an entry is not a name.

    >>> decode_names(encode_names(["ab", "c"]))
    ['ab', 'c']
    >>> decode_names((9, 609))
    Traceback (most recent call last):
    ...
    repro.errors.ProtocolError: a 9-word name runs past the 2-word payload
    """
    names, index = [], 0
    while index < len(payload):
        end = index + 1 + payload[index]
        if end > len(payload):
            raise ProtocolError(f"a {payload[index]}-word name runs past "
                                f"the {len(payload)}-word payload")
        names.append(decode_name(payload[index + 1:end]))
        index = end
    return names


def _encode(frame, cls, header: Tuple[int, ...],
            source: str, destination: str) -> List[Packet]:
    """*frame*'s packets, *header* first, unchecked: a frame checked its
    words where it was built."""
    if type(frame) is not cls:
        raise TypeError(f"not a {cls.__name__}: {type(frame).__name__}")
    payload = frame.payload
    room = MAX_PAYLOAD_WORDS - HEADER_WORDS
    packets = [_packet(source, destination, TYPE_CONTROL,
                       header + (len(payload),) + payload[:room])]
    for base in range(room, len(payload), MAX_PAYLOAD_WORDS):
        packets.append(_packet(source, destination, TYPE_DATA,
                               payload[base: base + MAX_PAYLOAD_WORDS]))
    return packets


def encode_request(request: Request, source: str, destination: str) -> List[Packet]:
    """Encode *request* as its packet sequence (header + continuations).

    >>> packets = encode_request(Request(OP_LIST, request_id=1), "ws", "srv")
    >>> len(packets), packets[0].payload[:3]
    (1, (18002, 5, 1))
    """
    return _encode(request, Request,
                   (MAGIC_REQUEST, request.op, request.request_id,
                    request.handle, request.arg0, request.arg1),
                   source, destination)


def encode_response(response: Response, source: str, destination: str) -> List[Packet]:
    """Encode *response* as its packet sequence (header + continuations).

    >>> packets = encode_response(Response(ST_OK, request_id=9), "srv", "ws")
    >>> len(packets), packets[0].payload[1:3]
    (1, (0, 9))
    """
    return _encode(response, Response,
                   (MAGIC_RESPONSE, response.status, response.request_id,
                    response.handle, response.result0, response.result1),
                   source, destination)


def relay(frame, source: str, destination: str,
          handle: Optional[int] = None) -> List[Packet]:
    """Send *frame* on as the packets it arrived in, from *source* to
    *destination*, with the header's handle word set to *handle* if given.

    Only that word is checked again (:meth:`~repro.net.network.Packet.relayed`);
    every other word was checked where the frame was first built.

    >>> packets = encode_request(Request(OP_READ, request_id=4, handle=2,
    ...                                  arg0=1, arg1=1), "ws", "router")
    >>> _, frame = FrameAssembler().feed(packets[0])
    >>> [packet] = relay(frame, "router", "shard", handle=9)
    >>> packet == encode_request(Request(OP_READ, request_id=4, handle=9,
    ...                                  arg0=1, arg1=1), "router", "shard")[0]
    True
    """
    if not frame.packets:
        raise ValueError("only a frame FrameAssembler built can be relayed")
    header, *rest = frame.packets
    if handle is None:
        first = header.relayed(source, destination)
    else:
        first = header.relayed(source, destination, HANDLE_WORD, handle)
    return [first] + [packet.relayed(source, destination) for packet in rest]


def _build(words: Tuple[int, ...], payload: Tuple[int, ...],
           packets: Tuple[Packet, ...]):
    """The frame whose header packet carries *words*; the payload's words
    came in by a door, a ``Packet`` or a frame."""
    frame = _frame(Request if words[0] == MAGIC_REQUEST else Response,
                   words[1], words[2], words[3], words[4], words[5], payload)
    _set_packets(frame, packets)
    return frame


class FrameAssembler:
    """Reassembles frames from a packet stream, keyed by source host.

    A new header packet from a host discards any incomplete frame from the
    same host (the ``abandoned`` counter records it); packets from
    different hosts may interleave freely.

    >>> from repro.net import PacketNetwork
    >>> net = PacketNetwork(); net.attach("a"); net.attach("srv")
    >>> data = tuple(range(300))                    # forces a continuation
    >>> request = Request(OP_WRITE, request_id=2, handle=1, payload=data)
    >>> packets = [net.receive("srv")
    ...            for p in encode_request(request, "a", "srv")
    ...            if net.send(p)]
    >>> assembler = FrameAssembler()
    >>> frames = [f for f in map(assembler.feed, packets) if f is not None]
    >>> frames[0][1].payload == data
    True
    """

    def __init__(self) -> None:
        #: Per source host, the packets of its frame so far and the payload
        #: words still owed.
        self._partials: Dict[str, Tuple[List[Packet], int]] = {}
        #: Frames discarded because a new header arrived mid-frame.
        self.abandoned = 0
        #: Packets ignored because they belong to no frame.
        self.stray = 0

    def feed(self, packet: Packet) -> Optional[Tuple[str, object]]:
        """Consume one packet; return ``(source, frame)`` when one completes."""
        source = packet.source
        ptype = packet.ptype
        partials = self._partials
        if ptype == TYPE_CONTROL:
            if source in partials:
                self.abandoned += 1
                del partials[source]
            words = packet.payload
            if len(words) < HEADER_WORDS:
                raise ProtocolError(f"header packet has only {len(words)} "
                                    f"words, need {HEADER_WORDS}")
            if words[0] not in (MAGIC_REQUEST, MAGIC_RESPONSE):
                raise ProtocolError(f"bad frame magic {words[0]:#x}")
            expected = words[6]  # the announced payload length
            carried = len(words) - HEADER_WORDS
            if carried > expected:
                raise ProtocolError(
                    f"frame announced {expected} payload words but the header "
                    f"packet already carries {carried}")
            if carried == expected:  # a one-packet frame
                return source, _build(words, words[HEADER_WORDS:], (packet,))
            partials[source] = ([packet], expected - carried)
            return None
        partial = partials.get(source) if ptype == TYPE_DATA else None
        if partial is None:  # not a continuation of a frame in progress
            self.stray += 1
            return None
        packets, owed = partial
        owed -= len(packet.payload)
        if owed < 0:
            del partials[source]
            raise ProtocolError(
                f"frame from {source!r} overran its announced "
                f"{packets[0].payload[6]} payload words")
        packets.append(packet)
        if owed:
            partials[source] = (packets, owed)
            return None
        del partials[source]
        # Complete: the header packet's words past the header, then each
        # continuation's, gathered in one list, as pairwise joins would
        # copy a long frame's words once per packet.
        words = packets[0].payload
        joined = list(words[HEADER_WORDS:])
        for continuation in packets[1:]:
            joined.extend(continuation.payload)
        return source, _build(words, tuple(joined), tuple(packets))
