"""A minimal packet network (the substrate for section 4's printing server).

The Alto's Ethernet carried PUP packets between hosts; the printing server
"accepts files from a local communications network and prints them".  This
module gives the reproduction the same shape: named hosts, word-payload
packets, per-host receive queues, and delivery statistics -- enough to
exercise the activity-switching world-swap discipline without modelling
CSMA/CD.

>>> net = PacketNetwork()
>>> net.attach("alto"); net.attach("printserver")
>>> net.send(Packet("alto", "printserver", TYPE_DATA, (1, 2, 3)))
True
>>> net.receive("printserver").payload
(1, 2, 3)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..clock import SimClock
from ..errors import ReproError
from ..words import check_word, check_words


class NetworkError(ReproError):
    """Malformed packet or unknown host."""


#: Packet types used by the printing protocol (and free for others).
TYPE_DATA = 1
TYPE_END_OF_FILE = 2
TYPE_CONTROL = 3

#: Maximum payload words per packet (a PUP carried up to 266 words; we use a
#: page-friendly 256).
MAX_PAYLOAD_WORDS = 256


@dataclass(frozen=True, slots=True)
class Packet:
    """One packet: addressing, a type word, and a word payload.

    Payload words must fit a 16-bit word, and at most
    :data:`MAX_PAYLOAD_WORDS` of them fit one packet:

    >>> Packet("a", "b", TYPE_DATA, (65535,)).destination
    'b'
    >>> Packet("a", "b", TYPE_DATA, tuple([0] * 257))
    Traceback (most recent call last):
        ...
    repro.net.network.NetworkError: payload of 257 words exceeds 256
    """

    source: str
    destination: str
    ptype: int
    payload: Tuple[int, ...] = ()

    def __init__(self, source: str, destination: str, ptype: int,
                 payload: Tuple[int, ...] = ()) -> None:
        # The dataclass's own __init__, with each field stored by its slot's
        # setter, bound once below, instead of a frozen-class
        # ``object.__setattr__`` call.
        _set_source(self, source)
        _set_destination(self, destination)
        _set_ptype(self, ptype)
        _set_payload(self, payload)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD_WORDS:
            raise NetworkError(f"payload of {len(self.payload)} words exceeds {MAX_PAYLOAD_WORDS}")
        check_words(self.payload, "payload word")

    def relayed(self, source: str, destination: str,
                at: Optional[int] = None, word: int = 0) -> "Packet":
        """This packet sent on from *source* to *destination*, with payload
        word *at* replaced by *word* when *at* is given.

        Only *word* is checked: every other word passed a door before this
        packet was built, and a tuple payload cannot have changed since (a
        list payload could have, so it is checked again).

        >>> header = Packet("ws", "router", TYPE_CONTROL, (1, 2, 3))
        >>> header.relayed("router", "shard", at=1, word=7)
        Packet(source='router', destination='shard', ptype=3, payload=(1, 7, 3))
        """
        payload = self.payload
        if type(payload) is not tuple:
            return Packet(source, destination, self.ptype,
                          tuple(payload)).relayed(source, destination, at, word)
        if at is not None:
            check_word(word, "payload word")
            if not 0 <= at < len(payload):
                raise NetworkError(f"no word {at} in a {len(payload)}-word payload")
            payload = payload[:at] + (word,) + payload[at + 1:]
        return _packet(source, destination, self.ptype, payload)


_new = object.__new__
_set_source, _set_destination, _set_ptype, _set_payload = (
    Packet.__dict__[name].__set__ for name in Packet.__slots__)


def _packet(source: str, destination: str, ptype: int,
            payload: Tuple[int, ...]) -> Packet:
    """``Packet(...)`` without the check, for a tuple of at most
    :data:`MAX_PAYLOAD_WORDS` words already past a door; its callers are
    pinned in ``tests/test_private_builders.py``."""
    packet = _new(Packet)
    _set_source(packet, source)
    _set_destination(packet, destination)
    _set_ptype(packet, ptype)
    _set_payload(packet, payload)
    return packet


class PacketNetwork:
    """Hosts with receive queues; delivery charges simulated wire time.

    >>> net = PacketNetwork()
    >>> net.attach("a"); net.attach("b", queue_limit=1)
    >>> net.send(Packet("a", "b", TYPE_DATA, (7,)))
    True
    >>> net.send(Packet("a", "b", TYPE_DATA, (8,)))   # queue full: dropped
    False
    >>> net.delivered, net.dropped
    (1, 1)
    """

    #: 3 Mbit/s Ethernet ~ 5.3 us per word of payload; round up generously
    #: to cover framing.
    WIRE_US_PER_WORD = 6

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._queues: Dict[str, Deque[Packet]] = {}
        self._limits: Dict[str, int] = {}
        self._clocks: Dict[str, SimClock] = {}
        self.delivered = 0
        self.dropped = 0

    # -- membership -----------------------------------------------------------------

    def attach(self, host: str, queue_limit: int = 1024,
               clock: Optional[SimClock] = None) -> None:
        """Join *host* to the network with a bounded receive queue.

        A host may bind its own *clock* -- the model of a machine with its
        own link to the switch.  Wire time for a packet is then charged on
        the destination's bound clock (its inbound link), else the
        source's (its outbound link), else the network clock -- so
        transfers between differently-bound hosts proceed in parallel
        simulated time, and everything else keeps the single shared-wire
        behaviour.

        >>> net = PacketNetwork()
        >>> net.attach("alto")
        >>> net.attach("alto")
        Traceback (most recent call last):
            ...
        repro.net.network.NetworkError: host 'alto' already attached
        """
        if host in self._queues:
            raise NetworkError(f"host {host!r} already attached")
        self._queues[host] = deque()
        self._limits[host] = queue_limit
        if clock is not None:
            self._clocks[host] = clock

    def detach(self, host: str) -> int:
        """Unplug *host*: its queue (and clock binding) are dropped.

        Returns how many undelivered packets died with the queue.  After
        a detach, sends to the host raise :class:`NetworkError` again --
        the server's eviction path (``server.sessions_evicted``) is what
        keeps a disconnected client's queued requests from pinning
        admission slots forever.

        >>> net = PacketNetwork()
        >>> net.attach("a"); net.attach("b")
        >>> _ = net.send(Packet("a", "b", TYPE_DATA, (1,)))
        >>> net.detach("b")
        1
        >>> net.attached("b")
        False
        """
        queue = self._queues.pop(host, None)
        if queue is None:
            raise NetworkError(f"unknown host {host!r}")
        self._limits.pop(host, None)
        self._clocks.pop(host, None)
        return len(queue)

    def attached(self, host: str) -> bool:
        """True while *host* has a live receive queue.

        >>> net = PacketNetwork()
        >>> net.attach("a")
        >>> net.attached("a"), net.attached("ghost")
        (True, False)
        """
        return host in self._queues

    def host_clock(self, host: str) -> Optional[SimClock]:
        """The clock bound at :meth:`attach` time, or None.

        >>> from repro.clock import SimClock
        >>> net = PacketNetwork()
        >>> net.attach("a", clock=net.clock)
        >>> net.host_clock("a") is net.clock
        True
        """
        return self._clocks.get(host)

    def hosts(self) -> List[str]:
        """The attached host names, sorted.

        >>> net = PacketNetwork()
        >>> net.attach("b"); net.attach("a")
        >>> net.hosts()
        ['a', 'b']
        """
        return sorted(self._queues)

    # -- sending and receiving ---------------------------------------------------------

    def send(self, packet: Packet, clock: Optional[SimClock] = None) -> bool:
        """Deliver a packet; returns False (and counts a drop) when the
        destination queue is full -- datagram semantics, no backpressure.

        Wire time lands on the first of: the explicit *clock* argument, the
        destination host's bound clock, the source host's bound clock, the
        network clock.  It is charged whether or not the packet is
        delivered:

        >>> net = PacketNetwork()
        >>> net.attach("a"); net.attach("b")
        >>> _ = net.send(Packet("a", "b", TYPE_DATA, (1, 2)))
        >>> net.clock.now_us                            # (2 + 4 words) * 6 us
        36
        """
        queue = self._queues.get(packet.destination)
        if queue is None:
            raise NetworkError(f"unknown destination {packet.destination!r}")
        if clock is None:
            clock = self._clocks.get(packet.destination)
        if clock is None:
            clock = self._clocks.get(packet.source)
        if clock is None:
            clock = self.clock
        clock.advance_us(
            (len(packet.payload) + 4) * self.WIRE_US_PER_WORD, "net.wire"
        )
        if len(queue) >= self._limits[packet.destination]:
            self.dropped += 1
            return False
        queue.append(packet)
        self.delivered += 1
        return True

    def receive(self, host: str) -> Optional[Packet]:
        """The next pending packet for *host*, or None.

        >>> net = PacketNetwork()
        >>> net.attach("a")
        >>> net.receive("a") is None
        True
        """
        queue = self._queues.get(host)
        if queue is None:
            raise NetworkError(f"unknown host {host!r}")
        return queue.popleft() if queue else None

    def pending(self, host: str) -> int:
        """How many packets are queued for *host*.

        >>> net = PacketNetwork()
        >>> net.attach("a"); net.attach("b")
        >>> _ = net.send(Packet("a", "b", TYPE_DATA, ()))
        >>> net.pending("b")
        1
        """
        queue = self._queues.get(host)
        if queue is None:
            raise NetworkError(f"unknown host {host!r}")
        return len(queue)


def send_file(
    network: PacketNetwork,
    source: str,
    destination: str,
    title: str,
    data: bytes,
    chunk_words: int = MAX_PAYLOAD_WORDS,
) -> int:
    """Transmit *data* as a print job: data packets then an end marker whose
    payload is the job title (BCPL string).  Returns packets sent.

    >>> net = PacketNetwork()
    >>> net.attach("alto"); net.attach("printserver")
    >>> send_file(net, "alto", "printserver", "memo", b"x" * 1024)
    3
    >>> net.receive("printserver").ptype == TYPE_DATA
    True
    """
    from ..words import bytes_to_words, string_to_words

    words = bytes_to_words(data)
    sent = 0
    for base in range(0, max(len(words), 1), chunk_words):
        chunk = tuple(words[base : base + chunk_words])
        network.send(Packet(source, destination, TYPE_DATA, chunk))
        sent += 1
    trailer = tuple(string_to_words(title)) + (len(data) >> 16, len(data) & 0xFFFF)
    network.send(Packet(source, destination, TYPE_END_OF_FILE, trailer))
    return sent + 1
