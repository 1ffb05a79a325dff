"""Client retry-machinery tests: timeout, resend, backoff, loss recovery."""

from dataclasses import replace

import pytest

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.errors import ProtocolError, RequestFailed, RequestTimeout
from repro.fs import FileSystem
from repro.net import TYPE_CONTROL, Packet, PacketNetwork
from repro.server import ST_BAD_HANDLE, FileClient, FileServer, build_system
from repro.server.client import PAGE_WORDS


def make_pair(**client_kw):
    image = DiskImage(tiny_test_disk(cylinders=24))
    fs = FileSystem.format(DiskDrive(image))
    network = PacketNetwork(clock=fs.drive.clock)
    network.attach("fileserver", queue_limit=4096)
    network.attach("ws")
    server = FileServer(fs, network)
    client = FileClient(network, "ws", **client_kw)
    return network, server, client


def drain(network, host):
    """Drop every packet queued for *host* (simulated loss)."""
    dropped = 0
    while network.receive(host) is not None:
        dropped += 1
    return dropped


def test_timeout_resends_the_same_request_id():
    network, server, client = make_pair(timeout_us=10_000)
    pending = client.submit(client.build_list())
    drain(network, "fileserver")                        # request lost
    assert client.step(pending) is None
    client.clock.advance_us(11_000, "test.wait")
    assert client.step(pending) is None                 # timed out -> resent
    assert pending.attempts == 2
    server.poll()
    response = client.step(pending)
    assert response is not None and response.ok
    assert response.request_id == pending.request.request_id
    assert client.clock.obs.stats()["server.client.retries"] == 1


def test_wait_returns_a_failed_answer_that_transact_raises():
    network, server, client = make_pair()
    client.pump = server.poll
    response = client.wait(client.submit(client.build_close(7)))
    assert response.status == ST_BAD_HANDLE
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_close(7))
    assert excinfo.value.status == ST_BAD_HANDLE


def test_a_malformed_packet_is_counted_and_the_answer_still_awaited():
    system = build_system(clients=1, tiny=True)
    [client] = system.clients
    client.pump = system.server.poll
    listed = client.listdir()
    assert "server.client.errors" not in system.stats()
    # A header packet too short to hold a header, then one with a bad magic.
    for payload in [(7,), (0xBEEF,) * 7]:
        system.network.send(Packet("ghost", client.host, TYPE_CONTROL, payload))
    assert client.listdir() == listed
    assert system.stats()["server.client.errors"] == 2


def test_lost_response_is_replayed_not_reexecuted():
    network, server, client = make_pair(timeout_us=10_000)
    handle = client_open(server, client, "loss.txt")
    pending = client.submit(client.build_write(handle, 1, b"append once"))
    server.poll()                                       # executed; response queued
    assert drain(network, "ws") > 0                     # ...and lost
    client.clock.advance_us(11_000, "test.wait")
    assert client.step(pending) is None                 # resend fires
    server.poll()                                       # replay cache answers
    response = client.step(pending)
    assert response is not None and response.ok
    stats = server.stats()
    assert stats["server.replayed"] == 1
    assert stats["server.pages_written"] == 1           # the write ran once


def client_open(server, client, name):
    pending = client.submit(client.build_open(name, create=True))
    server.poll()
    return client.step(pending).handle


def test_retries_exhaust_into_request_timeout():
    network, server, client = make_pair(timeout_us=5_000, max_retries=2)
    pending = client.submit(client.build_list())
    with pytest.raises(RequestTimeout):
        for _ in range(10):
            drain(network, "fileserver")                # every attempt lost
            client.clock.advance_us(6_000, "test.wait")
            client.step(pending)
    assert pending.attempts == 3                        # initial + 2 retries


def test_busy_backoff_grows_exponentially():
    network, server, client = make_pair(backoff_us=4_000, backoff_factor=2)
    pending = client.submit(client.build_list())
    now = client.clock.now_us
    client._schedule_resend(pending, now)
    assert pending.resend_at_us == now + 4_000
    assert pending.backoff_us == 8_000                  # doubled for next time
    client.clock.advance_us(4_000, "test.wait")
    client.step(pending)                                # fires the resend
    assert pending.resend_at_us is None and pending.attempts == 2
    client._schedule_resend(pending, client.clock.now_us)
    assert pending.resend_at_us == client.clock.now_us + 8_000


def test_stale_response_is_discarded_by_id():
    network, server, client = make_pair()
    abandoned = client.submit(client.build_list())
    server.poll()                                       # answer now queued
    del abandoned                                       # client gave up on it
    fresh = client.submit(client.build_list())
    server.poll()
    response = client.step(fresh)
    assert response is not None
    assert response.request_id == fresh.request.request_id
    assert client.clock.obs.stats()["server.client.stale_replies"] == 1


def test_request_ids_cycle_without_zero():
    network, server, client = make_pair()
    client._next_id = 0xFFFF
    first = client.build_list()
    second = client.build_list()
    assert first.request_id == 0xFFFF
    assert second.request_id == 1                       # wraps past zero


def test_a_write_with_a_float_handle_is_refused_where_it_is_built():
    network, server, client = make_pair()
    with pytest.raises(ValueError, match="header word must be an int, got float"):
        client.build_write(1.5, 1, b"ab")


def test_read_batching_uses_few_requests():
    network, server, client = make_pair()
    client.pump = server.poll
    data = bytes(i & 0xFF for i in range(512 * 6 + 40))     # 7 pages
    client.write_file("big.dat", data)
    stats_before = client.clock.obs.stats()["server.client.requests"]
    assert client.read_file("big.dat") == data
    requests = client.clock.obs.stats()["server.client.requests"] - stats_before
    assert requests == 3                                # open + 1 batched read + close


@pytest.mark.parametrize("answer", [
    lambda response: replace(response, payload=()),
    lambda response: replace(response, result0=response.result0 + 1,
                             payload=response.payload + (0,) * PAGE_WORDS),
], ids=["fewer words than its pages", "more pages than asked"])
def test_a_read_answer_that_breaks_its_page_count_is_a_protocol_error(
        monkeypatch, answer):
    """An ST_OK READ answer must carry a full page of words for each page
    it claims, and claim no more pages than were asked: anything else is
    counted and raised as a ProtocolError, not a bare ValueError from the
    byte conversion, nor silently read past."""
    network, server, client = make_pair()
    client.pump = server.poll
    client.write_file("pages.dat", bytes(range(256)) * 3)      # 2 pages
    read = FileServer._do_read
    monkeypatch.setattr(FileServer, "_do_read",
                        lambda self, session, request:
                        answer(read(self, session, request)))
    with pytest.raises(ProtocolError):
        client.read_file("pages.dat")
    assert client.clock.obs.stats()["server.client.errors"] == 1
