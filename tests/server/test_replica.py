"""Hot-standby replication: the journal link, the ack gate, promotion.

The invariant under test is the module's one-line contract: **a response
released to a client implies the write is on two packs**.  Everything
here corners a piece of that -- the wire format's torn-tail discipline,
the response gate and its retry suppression, the standby's idempotent
apply, and promotion recovering a serving file system from the standby
image alone.
"""

import pytest

from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
from repro.errors import RequestTimeout
from repro.net import PacketNetwork, network
from repro.net.network import Packet, TYPE_CONTROL, TYPE_DATA
from repro.server import FileClient, FileServer
from repro.server.replica import (
    CHUNK_WORDS,
    RECORD_HEADER_WORDS,
    ReplicaStandby,
    ReplicatedFileServer,
    apply_record,
    decode_stream,
    encode_record,
    promote,
)


def build_pair(host="fileserver"):
    """A replicated server and its standby on one network, bootstrapped."""
    net = PacketNetwork()
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    net.attach(host, clock=fs.drive.clock)
    standby = ReplicaStandby(net, tiny_test_disk())
    server = ReplicatedFileServer(fs, net, standby, host=host)
    server.replication.bootstrap()
    net.attach("ws")
    return net, fs, standby, server


def pump_both(server, standby):
    def pump():
        server.poll()
        standby.poll()
    return pump


# ----------------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------------

def test_encode_decode_roundtrip():
    stream = []
    records = [(1, 5, "header", [1, 2]),
               (2, 9, "label", list(range(7))),
               (3, 5, "value", list(range(256)))]
    for seq, address, part, words in records:
        stream.extend(encode_record(seq, address, part, words))
    decoded, consumed = decode_stream(stream)
    assert decoded == records
    assert consumed == len(stream)


def test_decode_stops_at_torn_tail():
    whole = encode_record(7, 3, "label", [0] * 7)
    for cut in range(1, len(whole)):
        decoded, consumed = decode_stream(whole * 2 + whole[:cut])
        assert decoded == [(7, 3, "label", [0] * 7)] * 2
        assert consumed == 2 * len(whole)


def test_decode_rejects_corrupt_part_code():
    with pytest.raises(ValueError):
        decode_stream([0, 1, 5, 9, 0])      # part code 9 does not exist


def test_apply_record_is_idempotent_and_heals_torn_checksums():
    image = DiskImage(tiny_test_disk())
    image.checksum_bad.add((4, "label"))
    words = [1, 2, 3, 4, 5, 6, 7]
    apply_record(image, 4, "label", words)
    once = image.digest()
    assert (4, "label") not in image.checksum_bad
    apply_record(image, 4, "label", words)
    assert image.digest() == once


# ----------------------------------------------------------------------------
# The standby machine
# ----------------------------------------------------------------------------

def test_standby_reassembles_across_chunks_and_acks():
    net = PacketNetwork()
    standby = ReplicaStandby(net, tiny_test_disk())
    net.attach("primary")
    standby.connect("primary")
    # A value record (261 words) cannot fit one packet: it must survive
    # chunked shipment with stream-offset headers.
    words = encode_record(1, 6, "value", list(range(256)))
    for start in range(0, len(words), CHUNK_WORDS):
        payload = ((start >> 16) & 0xFFFF, start & 0xFFFF,
                   *words[start:start + CHUNK_WORDS])
        assert net.send(Packet("primary", standby.host, TYPE_DATA, payload))
    assert standby.poll() == 1
    assert standby.applied_seq == 1
    assert standby.image.sector(6).value == tuple(range(256))
    ack = net.receive("primary")
    assert ack is not None and ack.payload == (0, 1)


def test_shipped_journal_words_skip_the_word_rule(monkeypatch):
    """Journal records are the part-writes the drive's tap saw land, so
    their packets hand the word rule nothing, and the standby applies them."""
    net, fs, standby, server = build_pair()
    client = FileClient(net, "ws", pump=pump_both(server, standby))
    client.write_file("memo.txt", b"x" * 700)
    fs.drive.write_label_value(40, fs.drive.read_label(40), list(range(256)))
    checked = []
    monkeypatch.setattr(network, "check_words",
                        lambda words, what="word": checked.append(len(words)))
    monkeypatch.setattr(network, "check_word",
                        lambda word, what="word": checked.append(1))
    assert server.replication.ship() == 2 * RECORD_HEADER_WORDS + 7 + 256
    assert checked == []
    assert standby.poll() == 2
    assert standby.image.digest() == fs.drive.image.digest()


def test_bootstrap_shares_the_primary_value_tuples():
    _net, fs, standby, _server = build_pair()
    primary = fs.drive.image
    assert all(standby.image.sector(address).value is primary.sector(address).value
               for address in range(len(primary)))


def test_standby_drops_out_of_order_chunks():
    net = PacketNetwork()
    standby = ReplicaStandby(net, tiny_test_disk())
    standby.connect("x")
    words = encode_record(1, 6, "header", [9, 9])
    # Stream offset 100 when 0 is expected: a gap from a dropped packet.
    net.send(Packet("x", standby.host, TYPE_DATA, (0, 100, *words)))
    assert standby.poll() == 0
    assert standby.obs.registry.counter("replica.out_of_order").value == 1
    assert standby.applied_seq == 0


def test_standby_skips_records_already_covered_by_snapshot():
    net = PacketNetwork()
    standby = ReplicaStandby(net, tiny_test_disk())
    net.attach("x")
    standby.connect("x")
    standby.install(DiskImage(tiny_test_disk()).snapshot(), seq=5)
    stale = encode_record(4, 6, "header", [1, 1])
    fresh = encode_record(6, 6, "header", [2, 2])
    net.send(Packet("x", standby.host, TYPE_DATA,
                    (0, 0, *stale, *fresh)))
    assert standby.poll() == 1                 # only the post-snapshot record
    assert standby.applied_seq == 6
    assert standby.image.sector(6).header_words() == [2, 2]


# ----------------------------------------------------------------------------
# The replicated server: two packs or no answer
# ----------------------------------------------------------------------------

def test_served_writes_reach_both_packs():
    net, fs, standby, server = build_pair()
    client = FileClient(net, "ws", pump=pump_both(server, standby))
    client.write_file("memo.txt", b"x" * 700)
    assert client.read_file("memo.txt") == b"x" * 700
    assert server.replication.standby_lag == 0
    assert standby.image.digest() == fs.drive.image.digest()
    stats = server.obs.registry
    assert stats.counter("replica.records").value > 0
    assert stats.counter("server.repl.released").value > 0


def test_reads_are_not_delayed_by_the_gate():
    net, fs, standby, server = build_pair()
    # The standby never polls: acks never arrive.  A LIST causes no
    # journal writes, so its barrier is already acked and it answers.
    client = FileClient(net, "ws", pump=server.poll)
    assert "SysDir" in client.listdir()


def test_write_response_is_withheld_until_ack_and_retries_suppressed():
    net, fs, standby, server = build_pair()
    client = FileClient(net, "ws", pump=server.poll, max_retries=3)
    # The standby never polls, so the create's journal barrier is never
    # acked: the response stays gated and the client's retries die.
    with pytest.raises(RequestTimeout):
        client.write_file("gated.txt", b"never acked")
    registry = server.obs.registry
    assert registry.counter("server.repl.released").value == 0
    assert registry.counter("server.repl.suppressed").value >= 1
    assert len(server._held) == 1
    assert server.replication.standby_lag > 0
    # The ack arrives late: the held response is released exactly once.
    standby.poll()
    server.poll()
    assert registry.counter("server.repl.released").value == 1
    assert not server._held
    assert server.replication.standby_lag == 0


# ----------------------------------------------------------------------------
# The link answers only to its peer
# ----------------------------------------------------------------------------

def rejected(registry):
    return registry.snapshot().get("replica.rejected", 0)


def test_a_forged_ack_releases_nothing():
    net, fs, standby, server = build_pair()
    replication = server.replication
    client = FileClient(net, "ws", pump=server.poll, max_retries=3)
    with pytest.raises(RequestTimeout):
        client.write_file("gated.txt", b"never acked")
    acked, lag = replication.acked_seq, replication.standby_lag
    assert len(server._held) == 1 and lag > 0
    net.attach("mallory")
    # An ack from a third host, and one from the standby's own host naming
    # a record the primary never journaled.
    net.send(Packet("mallory", replication.host, TYPE_CONTROL, (0, 60000)))
    net.send(Packet(standby.host, replication.host, TYPE_CONTROL,
                    (0, replication.last_seq + 1)))
    server.poll()
    assert replication.acked_seq == acked
    assert replication.standby_lag == lag
    assert len(server._held) == 1
    assert server.obs.registry.counter("server.repl.released").value == 0
    assert rejected(server.obs.registry) == 2
    # The real ack still releases the held response, once.
    standby.poll()
    server.poll()
    assert not server._held
    assert server.obs.registry.counter("server.repl.released").value == 1


def test_forged_journal_packets_are_not_applied():
    net, fs, standby, server = build_pair()
    client = FileClient(net, "ws", pump=pump_both(server, standby))
    client.write_file("before.txt", b"clean")
    # A clean exchange creates no rejection counter on either machine.
    assert "replica.rejected" not in server.obs.registry.snapshot()
    assert "replica.rejected" not in standby.obs.registry.snapshot()
    image_before = standby.image.digest()
    applied = standby.applied_seq
    # Journal-shaped packets from a third host, at the stream offset the
    # standby expects next: a value record overwriting sector 5.
    net.attach("mallory")
    forged = encode_record(applied + 1, 5, "value", [0xBEEF] * 256)
    offset = server.replication._shipped_words
    for start in range(0, len(forged), CHUNK_WORDS):
        at = offset + start
        net.send(Packet("mallory", standby.host, TYPE_DATA,
                        ((at >> 16) & 0xFFFF, at & 0xFFFF,
                         *forged[start:start + CHUNK_WORDS])))
    assert standby.poll() == 0
    assert standby.image.digest() == image_before
    assert standby.applied_seq == applied
    assert rejected(standby.obs.registry) == 2
    # The forgery spent no stream offset: the next real write replicates.
    client.write_file("after.txt", b"still on two packs")
    assert client.read_file("after.txt") == b"still on two packs"
    assert server.replication.standby_lag == 0
    assert standby.image.digest() == fs.drive.image.digest()
    assert standby.obs.registry.counter("replica.out_of_order").value == 0


# ----------------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------------

def test_promotion_serves_the_replicated_files():
    net, fs, standby, server = build_pair()
    client = FileClient(net, "ws", pump=pump_both(server, standby))
    client.write_file("keep.txt", b"survives the failover")
    # The primary dies; the standby had acked everything, so promotion
    # replays no tail and the file is simply there.
    promo = promote(standby)
    assert promo.server.host == standby.host
    assert promo.applied_seq == standby.applied_seq
    after = FileClient(net, "ws2", server=standby.host,
                       pump=promo.server.poll)
    net.attach("ws2")
    assert after.read_file("keep.txt") == b"survives the failover"


def test_promotion_replays_the_journal_tail():
    net, fs, standby, server = build_pair()
    # Serve a write but never let the standby poll: the journal sits
    # shipped-but-unapplied on the link, exactly the crash window.
    client = FileClient(net, "ws", pump=server.poll, max_retries=2)
    with pytest.raises(RequestTimeout):
        client.write_file("tail.txt", b"in flight")
    promo = promote(standby)
    assert promo.tail_records > 0
    after = FileClient(net, "ws2", server=standby.host,
                       pump=promo.server.poll)
    net.attach("ws2")
    # The client died waiting on the gated OPEN, so only the create was
    # ever journaled -- and the tail replay recovered exactly that: the
    # file exists (empty), never a half-applied record.
    assert "tail.txt" in after.listdir()
    assert after.read_file("tail.txt") == b""
