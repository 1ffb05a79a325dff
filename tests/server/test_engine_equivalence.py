"""The engine-restructure safety net: event-driven == polled, observably.

The event-driven engine replaced the PR-5 round-robin polling loop
(kept as ``PolledFileServer`` in ``tests/server/polled.py``).  With every
client in the default interactive class the two must be
**observationally equivalent**: the same op sequence
produces the same response packets in the same order, the same pack
bytes, and the same simulated microseconds.  Hypothesis drives random
small multi-client op sequences -- including invalid handles, page gaps,
and duplicate ops -- through both engines and compares everything.

The property holds for unbudgeted polls (the production configuration).
Budgeted polls may *intentionally* diverge: the event engine persists
its class/session cursors across polls so a backlog drains fairly,
where the polled loop restarts its scan from the top every call.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import CachedDrive, DiskImage, tiny_test_disk
from repro.fs import FileSystem
from repro.net import PacketNetwork
from repro.server import FileClient, FileServer
from tests.server.polled import PolledFileServer

N_CLIENTS = 3
HOSTS = tuple(f"ws{n}" for n in range(N_CLIENTS))

op_entries = st.tuples(
    st.integers(min_value=0, max_value=N_CLIENTS - 1),   # which client
    st.sampled_from(("open", "write", "read", "close", "list")),
    st.integers(min_value=0, max_value=2),                # file slot / handle
    st.integers(min_value=1, max_value=2),                # page
)

scripts = st.lists(op_entries, max_size=24)


def build(server_cls):
    image = DiskImage(tiny_test_disk(cylinders=30))
    drive = CachedDrive(image, cache_sectors=64)
    fs = FileSystem.format(drive)
    network = PacketNetwork(clock=drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = server_cls(fs, network, max_pending=64)
    stations = [FileClient(network, host)
                for host in HOSTS if network.attach(host) or True]
    return image, network, server, stations


def build_request(client, op, slot, page):
    if op == "open":
        return client.build_open(f"f{slot}.dat", create=True)
    if op == "write":
        return client.build_write(slot + 1, page, b"w" * 40)
    if op == "read":
        return client.build_read(slot + 1, page, 1)
    if op == "close":
        return client.build_close(slot + 1)
    return client.build_list()


def run(server_cls, script):
    """Drive *script* in rounds of up to N_CLIENTS submissions per poll;
    returns (response transcript, pack digest, final simulated time)."""
    image, network, server, stations = build(server_cls)
    transcript = []
    for base in range(0, max(len(script), 1), N_CLIENTS):
        for client_idx, op, slot, page in script[base:base + N_CLIENTS]:
            client = stations[client_idx]
            client.submit(build_request(client, op, slot, page))
        server.poll()
        for host in HOSTS:
            while True:
                packet = network.receive(host)
                if packet is None:
                    break
                transcript.append((host, packet.ptype, packet.payload))
    return transcript, image.digest(), server.clock.now_us


@settings(deadline=None, max_examples=40)
@given(script=scripts)
def test_event_engine_is_observationally_equal_to_polled(script):
    event = run(FileServer, script)
    polled = run(PolledFileServer, script)
    assert event[0] == polled[0], "response transcripts diverge"
    assert event[1] == polled[1], "pack bytes diverge"
    assert event[2] == polled[2], "simulated clocks diverge"


def test_polled_reference_serves_a_file_on_its_own():
    _, _, server, (station, *_) = build(PolledFileServer)
    station.pump = server.poll
    station.write_file("memo.txt", b"the reference answer")
    assert station.read_file("memo.txt") == b"the reference answer"


def test_full_workload_matches_byte_for_byte():
    """A deterministic end-to-end check: same files, same pack, same time."""

    def workload(server_cls):
        image, network, server, stations = build(server_cls)
        for station in stations:
            station.pump = server.poll
        for index, station in enumerate(stations):
            station.write_file(f"doc{index}.txt", bytes(range(256)) * 3)
        reads = [station.read_file(f"doc{index}.txt")
                 for index, station in enumerate(stations)]
        return reads, image.digest(), server.clock.now_us, server.stats()

    event = workload(FileServer)
    polled = workload(PolledFileServer)
    assert event[:3] == polled[:3]
    # The engines even count the same: every shared counter agrees.
    for name in ("server.requests", "server.flushes", "server.polls",
                 "server.pages_written", "server.pages_read"):
        assert event[3][name] == polled[3][name], name
