"""Hot-standby replication: a second machine that can take over the pack.

Section 5.2's file server is one machine and one spindle; when it stops,
the service stops.  This module keeps a warm spare: a **standby** machine
holds a byte-identical copy of the primary's pack and tracks it over the
network, so a crashed primary can be replaced by *promoting* the standby
instead of waiting out a repair and a full offline scavenge of the
original pack.

The protocol has two halves, both riding :mod:`repro.net`:

**Snapshot** (the bootstrap).  Like the Alto's ``OutLoad`` shipping a
core image to a boot server, the primary ships its whole pack image once:
the standby's :class:`~repro.disk.image.DiskImage` is overwritten from a
flushed snapshot of the primary's, and both machines are charged the
wire time of the transfer.  After this instant the packs are identical.

**Sector journal** (the stream).  The primary's drive exposes a
``journal_tap`` -- a callback fired after every part-write lands on the
platter (:meth:`repro.disk.drive.DiskDrive._write_part`).  The tap is the
durability point itself, so the journal is exactly the sequence of
platter mutations, in order, with a sequence number each.  Records are
encoded as words::

    [seq_hi, seq_lo, address, part_code, nwords, word0 .. wordN-1]

and the concatenated record stream is chunked into packets of at most
:data:`~repro.net.network.MAX_PAYLOAD_WORDS` payload words (a value
record is 5 + 256 words -- bigger than one packet -- so the stream, not
the record, is the framing unit).  Each data packet carries its stream
offset; the standby reassembles in order, applies every *complete*
record to its image, and acknowledges the highest applied sequence
number on the reverse path.  A torn tail -- a record cut off by the
primary's crash -- is simply never applied: the standby stops at the
longest whole-record prefix, exactly the discipline
:mod:`repro.fs.journal` uses for directory journals on disk.

**Zero acknowledged loss.**  :class:`ReplicatedFileServer` withholds the
cycle's responses until the standby has acknowledged every journal
record the cycle produced (the *barrier*): a client only sees ``ST_OK``
for a write once that write is on two packs.  Retries of a still-gated
response are suppressed rather than replayed -- the response is released
exactly once, when the ack arrives.  The cost is one extra poll cycle of
response latency (well inside the client's retry timeout); the payoff is
that a primary crash at *any* instant loses no acknowledged write.

**Promotion.**  :func:`promote` drains the journal tail still sitting on
the link, runs the scavenger over the standby pack (the pack is a
write-boundary-consistent prefix of the primary's, which is precisely
the state the scavenger is built to recover), mounts it, and returns a
fresh :class:`~repro.server.engine.FileServer` serving it.  Behind a
:class:`~repro.server.router.ShardRouter`, ``promote_shard`` then swaps
the dead shard for the promoted server; the router's own per-client
replay caches survive, so at-most-once holds across the failover.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient
>>> from repro.server.replica import ReplicaStandby, ReplicatedFileServer
>>> net = PacketNetwork()
>>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> net.attach("fileserver", clock=fs.drive.clock)
>>> standby = ReplicaStandby(net, tiny_test_disk())
>>> server = ReplicatedFileServer(fs, net, standby)
>>> _ = server.replication.bootstrap()
>>> net.attach("ws")
>>> client = FileClient(net, "ws",
...                     pump=lambda: (server.poll(), standby.poll())[0])
>>> _ = client.write_file("memo.txt", b"on two packs")
>>> server.replication.standby_lag
0
>>> standby.image.digest() == fs.drive.image.digest()
True
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Set, Tuple

from ..clock import SimClock
from ..disk.drive import DiskDrive
from ..disk.geometry import DiskShape
from ..disk.image import DiskImage
from ..fs.filesystem import FileSystem
from ..fs.scavenger import ScavengeReport, scavenge
from ..net.network import (
    MAX_PAYLOAD_WORDS,
    Packet,
    PacketNetwork,
    TYPE_CONTROL,
    TYPE_DATA,
    _packet,
)
from .engine import FileServer
from .protocol import ST_BUSY, Response, encode_response

#: Words of record header before the part's data words.
RECORD_HEADER_WORDS = 5

#: Journal part codes (the ``part_code`` header word).
PART_CODES = {"header": 0, "label": 1, "value": 2}
_CODE_PARTS = {code: part for part, code in PART_CODES.items()}

#: Data words per journal packet: the stream-offset header takes two.
CHUNK_WORDS = MAX_PAYLOAD_WORDS - 2

#: Simulated CPU the standby charges per applied journal record.
APPLY_CPU_US = 40

#: Words per sector a snapshot ships (header + label + value).
_SECTOR_WORDS = 2 + 7 + 256


# ----------------------------------------------------------------------------
# The journal wire format (pure functions -- also the property-test surface)
# ----------------------------------------------------------------------------

def encode_record(seq: int, address: int, part: str,
                  words: Sequence[int]) -> List[int]:
    """One journal record as words: 5-word header, then the part's data.

    >>> encode_record(1, 9, "label", [7] * 7)[:5]
    [0, 1, 9, 1, 7]
    """
    return [(seq >> 16) & 0xFFFF, seq & 0xFFFF, address,
            PART_CODES[part], len(words), *words]


def decode_stream(words: Sequence[int]) -> Tuple[List[tuple], int]:
    """Parse the longest whole-record prefix of a journal word stream.

    Returns ``(records, consumed)`` where each record is
    ``(seq, address, part, data_words)`` and *consumed* is how many words
    the complete records cover.  A torn tail -- a record the stream cuts
    off mid-way -- is left unconsumed, never half-applied.

    >>> stream = encode_record(1, 5, "header", [1, 2])
    >>> records, consumed = decode_stream(stream + [0, 2, 6])   # torn tail
    >>> records
    [(1, 5, 'header', [1, 2])]
    >>> consumed == len(stream)
    True
    """
    records: List[tuple] = []
    index, total = 0, len(words)
    while total - index >= RECORD_HEADER_WORDS:
        seq = (words[index] << 16) | words[index + 1]
        address = words[index + 2]
        part = _CODE_PARTS.get(words[index + 3])
        nwords = words[index + 4]
        if part is None:
            raise ValueError(
                f"corrupt journal record at stream word {index}: "
                f"part code {words[index + 3]}")
        start = index + RECORD_HEADER_WORDS
        if total - start < nwords:
            break
        records.append((seq, address, part, list(words[start:start + nwords])))
        index = start + nwords
    return records, index


def apply_record(image: DiskImage, address: int, part: str,
                 words: Sequence[int]) -> None:
    """Apply one journal record to *image*, raw (no drive, no timing).

    A record is the absolute post-write state of one sector part, so
    applying it is idempotent; a successful write also heals any torn
    checksum the part carried (mirroring the primary, where a rewrite is
    how a torn part recovers).
    """
    sector = image.sector(address)
    if part == "header":
        sector.set_header_words(list(words))
    elif part == "label":
        sector.set_label_words(list(words))
    elif part == "value":
        sector.value = words
    else:
        raise ValueError(f"unknown journal part {part!r}")
    image.checksum_bad.discard((address, part))


# ----------------------------------------------------------------------------
# The standby machine
# ----------------------------------------------------------------------------

class ReplicaStandby:
    """The warm spare: a pack image kept current from the journal stream.

    The standby is its own machine -- its own clock, its own network
    host -- holding a bare :class:`~repro.disk.image.DiskImage` (no
    mounted file system: mounting happens at promotion, after a
    scavenge).  :meth:`poll` drains the link, applies whole records, and
    acknowledges the highest applied sequence number.
    """

    def __init__(
        self,
        network: PacketNetwork,
        shape: Optional[DiskShape] = None,
        clock: Optional[SimClock] = None,
        host: str = "standby",
    ) -> None:
        self.network = network
        self.clock = clock if clock is not None else SimClock()
        self.obs = self.clock.obs
        self.host = host
        network.attach(host, queue_limit=4096, clock=self.clock)
        self.image = DiskImage(shape)
        #: The primary's replication host, learned at connect time.
        self.primary_host: Optional[str] = None
        #: Highest journal sequence number applied to the image.
        self.applied_seq = 0
        self._expect = 0                 # next stream word offset
        self._buffer: List[int] = []     # reassembled, not yet whole records
        registry = self.obs.registry
        self._c_applied = registry.counter("replica.applied")
        self._c_stream_words = registry.counter("replica.stream_words")
        self._c_out_of_order = registry.counter("replica.out_of_order")
        self._g_applied_seq = registry.gauge("replica.applied_seq")

    def connect(self, primary_host: str) -> None:
        """Learn where acknowledgements go."""
        self.primary_host = primary_host

    def install(self, snapshot: DiskImage, seq: int) -> None:
        """Adopt a pack snapshot current through journal sequence *seq*."""
        self.image.restore(snapshot)
        self.applied_seq = seq
        self._g_applied_seq.set(seq)

    def poll(self) -> int:
        """Drain the link, apply whole records, ack; returns records applied.

        Only journal data from the connected primary is read: any other
        packet, from any host, is dropped and counted in
        ``replica.rejected``, so no third host can write this pack or
        spend its stream offsets.  Packets must arrive in stream order
        (the network is a FIFO per host); a gap -- a dropped journal
        packet -- stalls the stream and counts ``replica.out_of_order``,
        leaving the primary's lag gauge to tell the story.
        """
        while True:
            packet = self.network.receive(self.host)
            if packet is None:
                break
            if (packet.source != self.primary_host or packet.ptype != TYPE_DATA
                    or len(packet.payload) < 2):
                self.obs.registry.counter("replica.rejected").inc()
                continue
            offset = (packet.payload[0] << 16) | packet.payload[1]
            chunk = packet.payload[2:]
            if offset != self._expect:
                self._c_out_of_order.inc()
                continue
            self._buffer.extend(chunk)
            self._expect += len(chunk)
            self._c_stream_words.inc(len(chunk))
        records, consumed = decode_stream(self._buffer)
        if not consumed:
            return 0
        del self._buffer[:consumed]
        applied = 0
        with self.obs.span("replica.apply", "replica", records=len(records)):
            for seq, address, part, words in records:
                if seq <= self.applied_seq:
                    continue        # pre-snapshot overlap: already state
                apply_record(self.image, address, part, words)
                self.applied_seq = seq
                applied += 1
        if applied:
            self.clock.advance_us(APPLY_CPU_US * applied, "replica.apply")
            self._c_applied.inc(applied)
            self._g_applied_seq.set(self.applied_seq)
            if self.primary_host is not None:
                self.network.send(Packet(
                    self.host, self.primary_host, TYPE_CONTROL,
                    ((self.applied_seq >> 16) & 0xFFFF,
                     self.applied_seq & 0xFFFF)))
        return applied

    def __repr__(self) -> str:
        return (f"ReplicaStandby({self.host!r}, "
                f"applied_seq={self.applied_seq})")


# ----------------------------------------------------------------------------
# The primary's half of the link
# ----------------------------------------------------------------------------

class ReplicationPrimary:
    """Captures the primary's platter writes and ships them to a standby.

    Installed by :class:`ReplicatedFileServer`; usable standalone around
    any drive whose mutations should be mirrored.  The tap assigns
    sequence numbers at write time; :meth:`ship` (called once per poll
    cycle, after the flush) moves the accumulated records onto the wire.
    """

    def __init__(self, server: FileServer, network: PacketNetwork,
                 standby: ReplicaStandby) -> None:
        self.server = server
        self.network = network
        self.standby = standby
        self.host = f"{server.host}!repl"
        network.attach(self.host, queue_limit=4096, clock=server.clock)
        standby.connect(self.host)
        #: Sequence number of the newest journaled write.
        self.last_seq = 0
        #: Highest sequence number the standby has acknowledged.
        self.acked_seq = 0
        self._pending: List[List[int]] = []   # encoded, unshipped records
        self._shipped_words = 0               # cumulative stream offset
        registry = server.obs.registry
        self._c_records = registry.counter("replica.records")
        self._c_shipped_words = registry.counter("replica.shipped_words")
        self._c_snapshot_words = registry.counter("replica.snapshot_words")
        self._c_acks = registry.counter("replica.acks")
        self._c_link_drops = registry.counter("replica.link_drops")
        self._g_lag = registry.gauge("replica.standby_lag")
        server.fs.drive.journal_tap = self._tap

    @property
    def standby_lag(self) -> int:
        """Journal records written but not yet acknowledged by the standby."""
        return self.last_seq - self.acked_seq

    def _tap(self, address: int, part: str, data: Sequence[int]) -> None:
        """The drive's durability point: journal one landed part-write."""
        self.last_seq += 1
        self._pending.append(encode_record(self.last_seq, address, part, data))
        self._c_records.inc()

    def bootstrap(self) -> int:
        """Ship the atomic pack snapshot; returns words transferred.

        The primary's cache is flushed first so the snapshot is the
        platter truth, then the standby adopts a copy and both machines
        are charged the bulk transfer's wire time (an ``OutLoad``, not a
        packet stream: the pack moves as one unit, atomically).  Records
        journaled before the snapshot are superseded by it and dropped
        from the ship queue.
        """
        self.server.fs.flush()
        snapshot = self.server.fs.drive.image.snapshot()
        materialized = sum(
            1 for s in snapshot._sectors if s is not None)
        words = materialized * _SECTOR_WORDS
        self._pending.clear()
        self.standby.install(snapshot, self.last_seq)
        self.acked_seq = self.last_seq
        wire_us = words * PacketNetwork.WIRE_US_PER_WORD
        self.server.clock.advance_us(wire_us, "replica.snapshot")
        self.standby.clock.advance_us(wire_us, "replica.snapshot")
        self._c_snapshot_words.inc(words)
        self._g_lag.set(0)
        return words

    def ship(self) -> int:
        """Move accumulated journal records onto the wire; returns words sent.

        Called after the poll cycle's flush, so every shipped record is
        already durable on the primary's own platter -- the journal can
        never run ahead of the pack it describes.
        """
        if not self._pending:
            self._g_lag.set(self.standby_lag)
            return 0
        words: List[int] = []
        for record in self._pending:
            words.extend(record)
        self._pending.clear()
        with self.server.obs.span("replica.ship", "replica",
                                  words=len(words)):
            for start in range(0, len(words), CHUNK_WORDS):
                offset = self._shipped_words + start
                payload = ((offset >> 16) & 0xFFFF, offset & 0xFFFF,
                           *words[start:start + CHUNK_WORDS])
                # Words the drive's journal tap saw land: not rechecked.
                delivered = self.network.send(_packet(
                    self.host, self.standby.host, TYPE_DATA, payload))
                if not delivered:
                    self._c_link_drops.inc()
        self._shipped_words += len(words)
        self._c_shipped_words.inc(len(words))
        self._g_lag.set(self.standby_lag)
        return len(words)

    def pump_acks(self) -> None:
        """Drain acknowledgements from the standby; update the lag gauge.

        An ack counts only when it is a 2-word control packet from the
        standby's host naming a record already journaled; anything else is
        dropped and counted in ``replica.rejected``, so no third host can
        release a response the standby has not applied.
        """
        while True:
            packet = self.network.receive(self.host)
            if packet is None:
                break
            payload = packet.payload
            seq = ((payload[0] << 16) | payload[1]) if len(payload) == 2 else None
            if (packet.source != self.standby.host or packet.ptype != TYPE_CONTROL
                    or seq is None or seq > self.last_seq):
                self.server.obs.registry.counter("replica.rejected").inc()
                continue
            if seq > self.acked_seq:
                self.acked_seq = seq
                self._c_acks.inc()
        self._g_lag.set(self.standby_lag)


# ----------------------------------------------------------------------------
# The replicated server: responses gated on standby acknowledgement
# ----------------------------------------------------------------------------

@dataclass
class _HeldResponse:
    """One response awaiting the standby's acknowledgement."""

    barrier: int            #: release when acked_seq reaches this
    client: str
    request_id: int
    packets: List[Packet]


class ReplicatedFileServer(FileServer):
    """A :class:`~repro.server.engine.FileServer` that acknowledges a
    request only once the standby holds every platter write it caused.

    Each poll cycle's responses are buffered rather than sent; after the
    cycle's flush and journal ship, they are released if the standby has
    already acknowledged the cycle's final sequence number (the barrier),
    else held until the ack arrives on a later poll.  ``ST_BUSY``
    rejections bypass the gate -- they promise nothing about state.
    Retries of a held response are suppressed: at-most-once delivery of
    the release is the session replay cache's invariant, extended across
    the gate.
    """

    def __init__(
        self,
        fs,
        network: PacketNetwork,
        standby: ReplicaStandby,
        host: str = "fileserver",
        **kwargs,
    ) -> None:
        super().__init__(fs, network, host=host, **kwargs)
        self.replication = ReplicationPrimary(self, network, standby)
        self._held: Deque[_HeldResponse] = deque()
        self._held_rids: Set[Tuple[str, int]] = set()
        self._cycle: List[_HeldResponse] = []
        registry = self.obs.registry
        self._c_released = registry.counter("server.repl.released")
        self._c_suppressed = registry.counter("server.repl.suppressed")
        self._g_held = registry.gauge("server.repl.held")

    # The standby ack is just another event in the engine's cycle: the
    # pre-cycle hook pumps acknowledgements off the link and releases
    # whatever they unlock, the post-cycle hook ships the cycle's journal
    # and sets the barrier.  The post hook is skipped when the cycle
    # raises (the engine's contract), so a crashed primary never ships a
    # journal tail for work it did not acknowledge -- the same property
    # the old hand-rolled poll() override had.

    def _before_cycle(self) -> None:
        self.replication.pump_acks()
        self._release_ready()

    def _after_cycle(self) -> None:
        self.replication.ship()
        barrier = self.replication.last_seq
        for held in self._cycle:
            held.barrier = barrier
            self._held.append(held)
            self._held_rids.add((held.client, held.request_id))
        self._cycle.clear()
        self._release_ready()

    def has_work(self) -> bool:
        """Idle only when nothing is gated: no held responses, no
        unacked journal, no acks waiting on the replication link."""
        return bool(super().has_work()
                    or self._held
                    or self.replication.standby_lag > 0
                    or self.network.pending(self.replication.host))

    def _release_ready(self) -> None:
        """Send every held response whose barrier the standby has acked."""
        acked = self.replication.acked_seq
        while self._held and self._held[0].barrier <= acked:
            held = self._held.popleft()
            self._held_rids.discard((held.client, held.request_id))
            if self.network.attached(held.client):
                for packet in held.packets:
                    self.network.send(packet)
            self._c_released.inc()
        self._g_held.set(len(self._held))

    def _respond(self, client: str, response: Response) -> List[Packet]:
        packets = encode_response(response, self.host, client)
        if self._in_cycle and response.status != ST_BUSY:
            self._cycle.append(_HeldResponse(0, client, response.request_id,
                                             packets))
        else:
            for packet in packets:
                self.network.send(packet)
        return packets

    def _resend(self, client: str, request_id: int,
                packets: List[Packet]) -> None:
        if (client, request_id) in self._held_rids:
            # The original is still gated; releasing it once, on ack, is
            # the at-most-once answer.  The retry gets nothing.
            self._c_suppressed.inc()
            return
        super()._resend(client, request_id, packets)


# ----------------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------------

@dataclass
class PromotionReport:
    """What promoting a standby took."""

    server: FileServer           #: the promoted, serving file server
    tail_records: int            #: journal records replayed from the link
    applied_seq: int             #: standby sequence number at promotion
    scavenge: ScavengeReport     #: the recovery pass over the standby pack
    elapsed_us: int              #: simulated promotion time, drain to mount


def promote(
    standby: ReplicaStandby,
    host: Optional[str] = None,
) -> PromotionReport:
    """Turn *standby* into a serving primary.

    Replays the journal tail still queued on the link (shipped by the
    primary but not yet applied), scavenges the standby pack -- it is a
    write-boundary-consistent prefix of the primary's platter, exactly
    the crash state the scavenger recovers -- mounts it, and starts a
    fresh server on the standby's machine.  *host* defaults to the
    standby's own host name; routed clusters then swap the promoted
    server in with :meth:`~repro.server.router.ShardRouter.promote_shard`,
    which repoints the front door without any client noticing.
    """
    clock = standby.clock
    registry = clock.obs.registry
    start_us = clock.now_us
    with clock.obs.span("replica.promote", "replica"):
        tail = standby.poll()
        drive = DiskDrive(standby.image, clock=clock)
        report = scavenge(drive)
        fs = FileSystem.mount(drive)
        serve_host = host if host is not None else standby.host
        if serve_host not in standby.network.hosts():
            standby.network.attach(serve_host, queue_limit=4096, clock=clock)
        server = FileServer(fs, standby.network, host=serve_host)
    registry.counter("replica.promotions").inc()
    registry.counter("replica.tail_replayed").inc(tail)
    return PromotionReport(server=server, tail_records=tail,
                           applied_seq=standby.applied_seq,
                           scavenge=report,
                           elapsed_us=clock.now_us - start_us)
