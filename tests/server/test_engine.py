"""Engine tests: the five operations, error codes, replay, fairness,
backpressure, and the one-flush-per-poll batching discipline."""

from dataclasses import replace

import pytest

from repro.disk import CachedDrive, DiskDrive, DiskImage, tiny_test_disk
from repro.errors import RequestFailed
from repro.fs import FileSystem
from repro.net import PacketNetwork
from repro.server import (
    FileClient,
    FileServer,
    OP_LIST,
    Request,
    ST_BAD_HANDLE,
    ST_BAD_PAGE,
    ST_BAD_REQUEST,
    ST_BUSY,
    ST_ERROR,
    ST_NOT_FOUND,
    ST_OK,
)
from repro.server.session import MAX_HANDLE


def make_served(clients=("ws",), cached=False, **server_kw):
    """A formatted pack, its server, and one FileClient per name."""
    image = DiskImage(tiny_test_disk(cylinders=24))
    drive = CachedDrive(image) if cached else DiskDrive(image)
    fs = FileSystem.format(drive)
    network = PacketNetwork(clock=drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = FileServer(fs, network, **server_kw)
    stations = [FileClient(network, host, pump=server.poll)
                for host in clients if network.attach(host) or True]
    return fs, server, stations


# -- the five operations ------------------------------------------------------


def test_write_read_roundtrip():
    fs, server, [client] = make_served()
    data = bytes(range(256)) * 5                       # 1280 bytes: 3 pages
    assert client.write_file("data.bin", data) == len(data)
    assert client.read_file("data.bin") == data
    # The served file is a real file on the served FileSystem.
    assert fs.open_file("data.bin").read_data() == data


def test_open_reports_size_and_close_releases():
    _, server, [client] = make_served()
    client.write_file("f.txt", b"x" * 700)
    handle, size = client.open("f.txt")
    assert size == 700
    client.close(handle)
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_close(handle))
    assert excinfo.value.status == ST_BAD_HANDLE


def test_open_with_every_handle_held_is_an_error_and_opens_nothing():
    fs, server, [client] = make_served()
    client.write_file("held.txt", b"x")
    server.sessions[client.host].handles.update(
        dict.fromkeys(range(1, MAX_HANDLE + 1), "held"))
    errors = server.stats()["server.errors"]
    with pytest.raises(RequestFailed) as excinfo:
        client.open("new.txt", create=True)
    assert excinfo.value.status == ST_ERROR
    assert server.stats()["server.errors"] == errors + 1
    assert "new.txt" not in fs.list_files()


def test_list_returns_served_names():
    _, server, [client] = make_served()
    client.write_file("one.txt", b"1")
    client.write_file("two.txt", b"22")
    names = client.listdir()
    assert "one.txt" in names and "two.txt" in names
    assert "SysDir" in names                            # the real directory


def test_read_past_eof_returns_zero_pages():
    _, server, [client] = make_served()
    client.write_file("short.txt", b"tiny")
    handle, _ = client.open("short.txt")
    response = client.transact(client.build_read(handle, 99, 1))
    assert response.status == ST_OK and response.result0 == 0
    client.close(handle)


def test_rewrite_shrinks_and_grows():
    _, server, [client] = make_served()
    client.write_file("f.dat", bytes(range(200)) * 10)  # 2000 bytes
    client.write_file("f.dat", b"now small")
    assert client.read_file("f.dat") == b"now small"
    big = bytes(reversed(range(256))) * 9               # 2304 bytes
    client.write_file("f.dat", big)
    assert client.read_file("f.dat") == big


# -- error codes --------------------------------------------------------------


def test_open_missing_without_create_is_not_found():
    _, server, [client] = make_served()
    with pytest.raises(RequestFailed) as excinfo:
        client.open("no-such-file.txt")
    assert excinfo.value.status == ST_NOT_FOUND


def test_read_with_unknown_handle_is_bad_handle():
    _, server, [client] = make_served()
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_read(77, 1, 1))
    assert excinfo.value.status == ST_BAD_HANDLE


def test_read_with_bad_batch_count_is_bad_request():
    _, server, [client] = make_served()
    client.write_file("f.txt", b"data")
    handle, _ = client.open("f.txt")
    for first, count in ((0, 1), (1, 0), (1, 99)):
        with pytest.raises(RequestFailed) as excinfo:
            client.transact(client.build_read(handle, first, count))
        assert excinfo.value.status == ST_BAD_REQUEST


def test_write_with_page_gap_is_bad_page():
    _, server, [client] = make_served()
    handle, _ = client.open("gap.txt", create=True)
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_write(handle, 5, b"skipped ahead"))
    assert excinfo.value.status == ST_BAD_PAGE


def oversized_write(client, handle, page):
    """A WRITE of a 400-byte tail carried in 300 words, where a page holds 256."""
    return replace(client.build_write(handle, page, b"x" * 400), payload=(0x4142,) * 300)


def test_refused_oversized_append_leaks_no_page():
    fs, server, [client] = make_served()
    client.write_file("grow.txt", b"eleven byte")
    handle, _ = client.open("grow.txt")
    free = fs.allocator.count_free()
    for _ in range(5):
        with pytest.raises(RequestFailed) as excinfo:
            client.transact(oversized_write(client, handle, page=2))
        assert excinfo.value.status == ST_BAD_REQUEST
    assert fs.allocator.count_free() == free


# One page: the tail write would change its L.  Three pages: it would
# first truncate the two pages after page 1.
@pytest.mark.parametrize("data", [b"eleven byte", bytes(range(256)) * 5],
                         ids=["one-page", "three-pages"])
def test_refused_oversized_tail_write_leaves_the_file_unchanged(data):
    fs, server, [client] = make_served()
    client.write_file("tail.txt", data)
    handle, _ = client.open("tail.txt")
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(oversized_write(client, handle, page=1))
    assert excinfo.value.status == ST_BAD_REQUEST
    client.close(handle)
    handle, size = client.open("tail.txt")
    assert size == len(data)
    client.close(handle)
    assert client.read_file("tail.txt") == data


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_a_full_page_write_lands_as_its_payload_tuple(cached):
    """A full-page WRITE's payload words passed the frame's door, so the
    page value is the frame's own tuple, on the platter and, through a
    cache, in the entry the flush writes: no word is copied."""
    fs, server, [client] = make_served(cached=cached)
    client.write_file("f.dat", bytes(1024))            # pages 1 and 2 full
    handle, _ = client.open("f.dat")
    payloads = []
    do_write = server._do_write

    def spy(session, request):
        payloads.append(request.payload)
        return do_write(session, request)

    server._do_write = spy
    for page in (1, 3, 4):            # interior, staged tail, appended
        client.transact(client.build_write(handle, page, bytes(range(256)) * 2))
        address = fs.open_file("f.dat").page_name(page).address
        assert fs.drive.image.sector(address).value is payloads[-1]


def test_open_with_empty_name_is_bad_request():
    _, server, [client] = make_served()
    with pytest.raises(RequestFailed) as excinfo:
        client.open("")
    assert excinfo.value.status == ST_BAD_REQUEST


# A non-empty name that does not decode: a BCPL length byte claiming five
# characters where one follows, and a byte outside ASCII.
@pytest.mark.parametrize("payload", [(0x0541,), (0x01FF,)],
                         ids=["length-past-data", "non-ascii"])
def test_open_with_malformed_name_is_bad_request(payload):
    _, server, [client] = make_served()
    request = replace(client.build_open("x", create=True), payload=payload)
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(request)
    assert excinfo.value.status == ST_BAD_REQUEST


# -- at-most-once replay ------------------------------------------------------


def test_duplicate_request_id_is_answered_from_the_replay_cache():
    _, server, [client] = make_served()
    handle, _ = client.open("once.txt", create=True)
    request = client.build_write(handle, 1, b"exactly once")
    before = server.stats().get("server.pages_written", 0)

    pending = client.submit(request)
    server.poll()
    response = client.step(pending)
    assert response is not None and response.ok

    duplicate = client.submit(request)                  # same request id
    server.poll()
    replayed = client.step(duplicate)
    assert replayed == response                         # byte-identical answer
    stats = server.stats()
    assert stats["server.replayed"] == 1
    assert stats["server.pages_written"] == before + 1  # executed only once


# -- fairness and backpressure ------------------------------------------------


def test_round_robin_serves_each_client_per_turn():
    _, server, clients = make_served(clients=("a", "b"))
    pendings = {}
    for client in clients:
        first = client.submit(client.build_list())
        second = client.submit(client.build_list())
        pendings[client] = (first, second)
    served = server.poll(budget=2)
    assert served == 2
    # One request from each client was answered -- not two from the first.
    for client in clients:
        first, second = pendings[client]
        assert client.step(first) is not None
        assert client.step(second) is None
    server.poll()
    for client in clients:
        assert client.step(pendings[client][1]) is not None


def test_admission_overflow_is_rejected_busy():
    _, server, clients = make_served(clients=("a", "b", "c"), max_pending=1)
    pendings = [client.submit(client.build_list()) for client in clients]
    server.poll()
    statuses = []
    for client, pending in zip(clients, pendings):
        response = client._check_arrivals(pending)
        statuses.append(response.status if response else None)
    assert statuses.count(ST_OK) == 1
    assert statuses.count(ST_BUSY) == 2
    assert server.stats()["server.rejected"] == 2


def test_busy_client_retries_and_succeeds():
    _, server, clients = make_served(clients=("a", "b"), max_pending=1)
    blocker = clients[0].submit(clients[0].build_list())
    victim = clients[1].submit(clients[1].build_list())
    server.poll()                                       # victim got ST_BUSY
    clock = server.clock
    response = None
    for _ in range(50):
        response = clients[1].step(victim)              # schedules/fires resend
        if response is not None:
            break
        clock.advance_us(2_000, "test.wait")
        server.poll()
    assert response is not None and response.ok
    assert clients[1].clock.obs.stats()["server.client.busy_retries"] >= 1
    del blocker


# -- flush batching -----------------------------------------------------------


def test_one_flush_covers_every_write_in_a_poll_cycle():
    _, server, clients = make_served(clients=("a", "b", "c"), cached=True)
    handles = {}
    for client in clients:
        pending = client.submit(client.build_open(f"{client.host}.dat",
                                                  create=True))
        server.poll()
        handles[client] = client.step(pending).handle
    flushes_before = server.stats().get("server.flushes", 0)
    pendings = [client.submit(client.build_write(handles[client], 1,
                                                 client.host.encode() * 30))
                for client in clients]
    server.poll()                                       # three writes, one cycle
    for client, pending in zip(clients, pendings):
        assert client.step(pending).ok
    assert server.stats()["server.flushes"] == flushes_before + 1


def test_read_only_poll_does_not_flush():
    _, server, [client] = make_served(cached=True)
    client.write_file("r.txt", b"warm")
    flushes = server.stats()["server.flushes"]
    client.read_file("r.txt")
    assert server.stats()["server.flushes"] == flushes


def test_malformed_packets_do_not_kill_the_server():
    _, server, [client] = make_served()
    from repro.net.network import Packet, TYPE_CONTROL

    server.network.send(Packet("ws", "fileserver", TYPE_CONTROL, (0xBAD,) * 7))
    server.poll()
    assert server.stats()["server.errors"] == 1
    assert client.listdir()                             # still serving


def test_poll_returns_served_count_and_stats_accumulate():
    _, server, [client] = make_served()
    pending = client.submit(client.build_list())
    assert server.poll() == 1
    assert client.step(pending).ok
    stats = server.stats()
    assert stats["server.requests"] == 1
    assert stats["server.sessions"] == 1
    assert stats["server.polls"] >= 1
