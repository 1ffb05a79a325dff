"""QoS scheduling, admission, and eviction on the live engine.

The weighted ready-queue discipline, the one admission rule every class
shares, and the detach/evict path are pinned here with examples; the
starvation-freedom guarantee -- every admitted request completes within
a bounded number of polls no matter how the budget and the competing
traffic interleave -- is a hypothesis property.
"""

import pytest

from repro.disk import CachedDrive, DiskDrive, DiskImage, tiny_test_disk
from repro.fs import FileSystem
from repro.net import PacketNetwork
from repro.server import (
    FileClient,
    FileServer,
    QOS_BULK,
    QOS_CLASSES,
    QOS_INTERACTIVE,
    QOS_MAINTENANCE,
    ST_BUSY,
    ST_OK,
)


def make_served(clients=("ws",), cached=False, **server_kw):
    image = DiskImage(tiny_test_disk(cylinders=24))
    drive = CachedDrive(image) if cached else DiskDrive(image)
    fs = FileSystem.format(drive)
    network = PacketNetwork(clock=drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = FileServer(fs, network, **server_kw)
    stations = [FileClient(network, host)
                for host in clients if network.attach(host) or True]
    return fs, server, stations


def queue_bad_reads(client, count):
    """Queue *count* one-packet requests (bad handle: one-packet answers)."""
    return [client.submit(client.build_read(99, 1, 1)) for _ in range(count)]


# -- weighted class scheduling --------------------------------------------------


def test_class_visit_serves_weight_times_quantum():
    _, server, (a, b, c) = make_served(clients=("a", "b", "c"))
    server.set_qos("b", QOS_BULK)
    server.set_qos("c", QOS_MAINTENANCE)
    for client in (a, b, c):
        queue_bad_reads(client, 8)
    served = server.poll(budget=7)
    assert served == 7
    # One rotation: interactive 4, bulk 2, maintenance 1 (weights 4:2:1).
    counts = {host: server.network.pending(host) for host in ("a", "b", "c")}
    assert counts == {"a": 4, "b": 2, "c": 1}


def test_default_class_is_interactive_and_set_qos_validates():
    _, server, _ = make_served()
    assert server.qos_of("ws") == "interactive"
    server.set_qos("ws", QOS_MAINTENANCE)
    assert server.qos_of("ws") == QOS_MAINTENANCE
    from repro.errors import ServerError

    with pytest.raises(ServerError):
        server.set_qos("ws", "platinum")


def test_set_qos_moves_queued_work_between_classes():
    _, server, (a, b) = make_served(clients=("a", "b"))
    queue_bad_reads(a, 2)
    queue_bad_reads(b, 2)
    server.poll(budget=0)                               # admit, serve nothing
    server.set_qos("b", QOS_MAINTENANCE)                # mid-backlog move
    assert server.poll() == 4                           # nothing stranded
    assert server.pending == 0


def test_unbudgeted_poll_drains_every_class():
    _, server, (a, b, c) = make_served(clients=("a", "b", "c"))
    server.set_qos("b", QOS_BULK)
    server.set_qos("c", QOS_MAINTENANCE)
    for client in (a, b, c):
        queue_bad_reads(client, 5)
    assert server.poll() == 15
    assert server.pending == 0 and server.ready_sessions == 0


# -- admission ------------------------------------------------------------------


def test_every_class_is_admitted_below_max_pending_and_busy_at_it():
    classes = {"i": QOS_INTERACTIVE, "b": QOS_BULK, "m": QOS_MAINTENANCE}
    for host, qos in classes.items():
        _, server, (filler, client) = make_served(clients=("f", host),
                                                  max_pending=4)
        server.set_qos(host, qos)
        queue_bad_reads(filler, 3)
        server.poll(budget=0)                           # depth 3: one slot left
        admitted = queue_bad_reads(client, 1)[0]
        server.poll(budget=0)
        assert server.pending == 4, qos
        assert client._check_arrivals(admitted) is None, qos  # queued
        rejected = queue_bad_reads(client, 1)[0]
        server.poll(budget=0)                           # depth 4: full
        assert server.pending == 4, qos
        assert client._check_arrivals(rejected).status == ST_BUSY, qos
        assert server.stats()["server.rejected"] == 1, qos


def test_cliff_default_never_draws_and_never_shapes():
    _, server, (a,) = make_served(clients=("a",), max_pending=4)
    queue_bad_reads(a, 8)
    server.poll(budget=0)
    stats = server.stats()
    assert server.pending == 4
    assert stats["server.rejected"] == 4


# -- eviction on detach -----------------------------------------------------------


def test_detach_with_queued_requests_evicts_on_wake():
    _, server, (a, b) = make_served(clients=("a", "b"))
    queue_bad_reads(a, 3)
    queue_bad_reads(b, 1)
    server.poll(budget=0)                               # admit all four
    assert server.pending == 4
    server.network.detach("a")
    served = server.poll()                              # wakeup finds a gone
    assert served == 1                                  # only b's request ran
    assert server.pending == 0
    assert "a" not in server.sessions
    assert server.stats()["server.sessions_evicted"] == 1


def test_frame_arriving_from_a_detached_host_is_dropped():
    _, server, (a, b) = make_served(clients=("a", "b"))
    # a has a live session first, so the eviction has state to reap.
    pending = a.submit(a.build_list())
    server.poll()
    assert a.step(pending) is not None
    queue_bad_reads(a, 1)                               # in flight...
    server.network.detach("a")                          # ...then unplugged
    server.poll()
    stats = server.stats()
    assert "a" not in server.sessions
    assert stats["server.sessions_evicted"] == 1
    assert server.pending == 0
    # The survivor is unaffected.
    pending = b.submit(b.build_list())
    server.poll()
    assert b.step(pending).ok


def test_evicting_a_client_with_no_state_counts_nothing():
    _, server, (a,) = make_served(clients=("a",))
    queue_bad_reads(a, 1)
    server.network.detach("a")
    server.poll()                                       # frame from a ghost
    assert server.stats().get("server.sessions_evicted", 0) == 0


# -- starvation freedom (property) -------------------------------------------------

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(deadline=None, max_examples=25)
@given(
    budget=st.integers(min_value=1, max_value=4),
    pressure=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=4, max_value=10),
)
def test_admitted_requests_complete_within_bounded_wakeups(
        budget, pressure, rounds):
    """No admitted request waits more than a full class rotation's worth
    of polls, however small the budget and heavy the competing class."""
    hosts = tuple(f"i{n}" for n in range(pressure)) + ("m",)
    _, server, stations = make_served(clients=hosts, max_pending=256)
    maint = stations[-1]
    server.set_qos("m", QOS_MAINTENANCE)

    # Keep interactive saturated the whole run.
    for station in stations[:-1]:
        queue_bad_reads(station, rounds * budget)

    pending = maint.submit(maint.build_read(99, 1, 1))
    polls_until_served = None
    for poll_index in range(1, rounds + 1):
        server.poll(budget=budget)
        if server.network.pending("m"):
            polls_until_served = poll_index
            break
    # One request, one client in its class: the rotation must reach the
    # maintenance class within a bounded number of budgeted polls.
    bound = len(QOS_CLASSES)
    assert polls_until_served is not None and polls_until_served <= bound, (
        f"maintenance request starved past {bound} polls "
        f"(budget={budget}, pressure={pressure})")
    del pending
