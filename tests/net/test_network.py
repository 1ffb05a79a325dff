"""Packet network tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.net import (
    MAX_PAYLOAD_WORDS,
    NetworkError,
    Packet,
    PacketNetwork,
    TYPE_CONTROL,
    TYPE_DATA,
    TYPE_END_OF_FILE,
    send_file,
)
from repro.words import words_to_bytes, words_to_string
from tests.word_strategies import bad, good


@pytest.fixture
def net():
    network = PacketNetwork()
    network.attach("a")
    network.attach("b")
    return network


class TestDelivery:
    def test_send_receive(self, net):
        net.send(Packet("a", "b", TYPE_DATA, (1, 2, 3)))
        packet = net.receive("b")
        assert packet.payload == (1, 2, 3)
        assert packet.source == "a"
        assert net.receive("b") is None

    def test_fifo_order(self, net):
        for i in range(5):
            net.send(Packet("a", "b", TYPE_DATA, (i,)))
        assert [net.receive("b").payload[0] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_unknown_host(self, net):
        with pytest.raises(NetworkError):
            net.send(Packet("a", "nowhere", TYPE_DATA))
        with pytest.raises(NetworkError):
            net.receive("nowhere")
        with pytest.raises(NetworkError):
            net.pending("nowhere")

    def test_double_attach(self, net):
        with pytest.raises(NetworkError):
            net.attach("a")

    def test_queue_limit_drops(self):
        network = PacketNetwork()
        network.attach("x", queue_limit=2)
        network.attach("y")
        assert network.send(Packet("y", "x", TYPE_DATA))
        assert network.send(Packet("y", "x", TYPE_DATA))
        assert not network.send(Packet("y", "x", TYPE_DATA))
        assert network.dropped == 1
        assert network.delivered == 2

    def test_wire_time_charged(self):
        clock = SimClock()
        network = PacketNetwork(clock=clock)
        network.attach("a")
        network.attach("b")
        network.send(Packet("a", "b", TYPE_DATA, tuple(range(100))))
        assert clock.tally_us("net.wire") > 0


class TestPackets:
    def test_payload_limit(self):
        with pytest.raises(NetworkError):
            Packet("a", "b", TYPE_DATA, tuple(range(MAX_PAYLOAD_WORDS + 1)))

    def test_payload_word_range(self):
        with pytest.raises(ValueError):
            Packet("a", "b", TYPE_DATA, (0x10000,))


def outcome(make):
    """The packet *make* built, or the error it raised."""
    try:
        return make()
    except Exception as exc:  # noqa: BLE001 - the class is the comparison
        return type(exc), str(exc)


class TestRelayed:
    HEADER = Packet("ws", "router", TYPE_CONTROL, (0x4652, 2, 1, 5, 1, 1, 0))

    @settings(deadline=None)
    @given(word=st.one_of(good, bad), at=st.integers(0, 6))
    def test_a_written_word_is_checked_as_the_constructor_checks_it(self, word, at):
        words = self.HEADER.payload
        spliced = words[:at] + (word,) + words[at + 1:]
        expected = outcome(lambda: Packet("router", "shard", TYPE_CONTROL, spliced))
        assert outcome(lambda: self.HEADER.relayed("router", "shard", at, word)) == expected

    def test_readdressing_shares_the_checked_payload(self):
        copy = self.HEADER.relayed("router", "shard")
        assert copy == Packet("router", "shard", TYPE_CONTROL, self.HEADER.payload)
        assert copy.payload is self.HEADER.payload

    def test_a_list_payload_is_checked_again(self):
        words = [1, 2, 3]
        packet = Packet("a", "b", TYPE_DATA, words)
        words[1] = 0x10000                   # changed after it was checked
        with pytest.raises(ValueError, match="16 bits"):
            packet.relayed("b", "c")

    def test_a_word_past_the_payload_is_refused(self):
        with pytest.raises(NetworkError, match="no word 7"):
            self.HEADER.relayed("router", "shard", 7, 0)


class TestSendFile:
    def test_chunking_and_trailer(self, net):
        data = bytes(range(256)) * 3  # 768 bytes = 384 words: 2 packets + EOF
        count = send_file(net, "a", "b", "report", data)
        assert count == 3
        first = net.receive("b")
        assert first.ptype == TYPE_DATA and len(first.payload) == MAX_PAYLOAD_WORDS
        second = net.receive("b")
        assert second.ptype == TYPE_DATA
        trailer = net.receive("b")
        assert trailer.ptype == TYPE_END_OF_FILE
        assert words_to_string(list(trailer.payload[:-2])) == "report"
        nbytes = (trailer.payload[-2] << 16) | trailer.payload[-1]
        assert nbytes == 768

    def test_empty_file(self, net):
        send_file(net, "a", "b", "empty", b"")
        assert net.receive("b").ptype == TYPE_DATA  # one empty data packet
        assert net.receive("b").ptype == TYPE_END_OF_FILE
