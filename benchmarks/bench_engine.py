"""E17 -- The event-driven engine: 10k sessions, the moved knee, QoS isolation.

Three claims from the engine restructure, each pinned:

* **Session scale.**  One server holds ten thousand concurrent client
  sessions (every station OPENs a shared file and keeps the handle) and
  still answers through every one of them, with zero errors and zero
  rejections.  The scaling mechanism is visible in the counters: the
  wakeup count tracks the *request* count, not ``sessions x polls`` --
  sleeping sessions cost a poll cycle nothing.

* **The capacity knee moved.**  PR-8's E15 sweep pinned the 4-shard
  cluster's knee at ~1030 req/s, dominated by the response relay being
  charged to the producing shard's link *twice* (the server's send and
  the router's cut-through forward).  The relay now lands on the front
  clock -- each side of the switch pays its own wire -- and the knee
  sits near ~1780 req/s.  This bench re-runs the saturated point and
  asserts the achieved plateau stays strictly above the old knee.

* **QoS isolation.**  Four bulk hogs keep deep read backlogs while one
  interactive client does request/response.  Under the event engine's
  class rotation the interactive request is served at the head of each
  cycle; under the PR-5 polling loop (kept alive as ``PolledFileServer``
  in ``tests/server/polled.py``, which ignores QoS) it queues behind a
  full pass of hog traffic.  The interactive p99 gap
  between the two engines is the isolation the weights buy.
"""

import importlib.util
from pathlib import Path

from repro.disk import CachedDrive, DiskImage, tiny_test_disk
from repro.fs import FileSystem
from repro.net import PacketNetwork
from repro.server import (
    QOS_BULK,
    FileClient,
    FileServer,
    FrameAssembler,
    run_session_storm,
)
from repro.server.loadgen import percentile

from bench_saturation import saturation_point
from paper import report


def polled_server():
    """The QoS control arm: the PR-5 polling engine, which lives with the
    tests as the event engine's differential reference."""
    path = Path(__file__).resolve().parents[1] / "tests/server/polled.py"
    spec = importlib.util.spec_from_file_location("polled", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PolledFileServer


SEED = 1979

#: PR-8's measured 4-shard capacity knee (req/s); E17 must beat it.
OLD_KNEE_RPS = 1030

#: Offered rate for the saturated point -- far past the new knee.
SATURATED_RPS = 6400

HOGS = 4
HOG_DEPTH = 4

#: Requests served per poll cycle -- deliberately one full hog pass, so
#: an engine that scans in admission order spends whole cycles on hog
#: traffic before it reaches the interactive client.
CYCLE_BUDGET = 4


def storm_point(clients: int = 10_000, shared_files: int = 32):
    """The ten-thousand-session smoke, as a measured row."""
    storm = run_session_storm(clients=clients, shared_files=shared_files,
                              seed=SEED)
    assert storm.sessions == clients, "every client holds a live session"
    assert storm.errors == 0 and storm.rejected == 0 and storm.evicted == 0
    assert storm.wakeups < storm.requests * 2, (
        "wakeups must track requests, not sessions x polls")
    return storm


def qos_isolation(server_cls, rounds: int = 200):
    """Interactive latency behind four bulk hogs, on *server_cls*.

    Returns ``(p50_ms, p99_ms, elapsed_s)`` for the interactive client's
    closed-loop READs while the hogs are kept ``HOG_DEPTH`` deep and the
    server serves ``CYCLE_BUDGET`` requests per cycle.
    """
    image = DiskImage(tiny_test_disk(cylinders=40))
    drive = CachedDrive(image)
    fs = FileSystem.format(drive)
    network = PacketNetwork(clock=drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = server_cls(fs, network, max_pending=128)
    hogs = []
    for index in range(HOGS):
        host = f"hog{index}"
        network.attach(host)
        hogs.append(FileClient(network, host))
    network.attach("app")
    app = FileClient(network, "app")

    # Setup (hogs first, so the interactive client has the *latest*
    # admission seq -- the worst case for the old position-based scan).
    handles = {}
    for client in hogs + [app]:
        client.pump = server.poll
        name = f"{client.host}.dat"
        client.write_file(name, b"\x5a" * 512)
        handles[client] = client.open(name)[0]
        client.pump = None
    for hog in hogs:
        server.set_qos(hog.host, QOS_BULK)

    assemblers = {hog: FrameAssembler() for hog in hogs}
    outstanding = {hog: 0 for hog in hogs}
    latencies_ms = []
    started_us = server.clock.now_us
    for _ in range(rounds):
        for hog in hogs:
            while outstanding[hog] < HOG_DEPTH:
                hog.submit(hog.build_read(handles[hog], 1, 1))
                outstanding[hog] += 1
        pending = app.submit(app.build_read(handles[app], 1, 1))
        sent_us = server.clock.now_us
        response = None
        while response is None:
            server.poll(budget=CYCLE_BUDGET)
            response = app.step(pending)
            for hog in hogs:
                while True:
                    packet = network.receive(hog.host)
                    if packet is None:
                        break
                    if assemblers[hog].feed(packet) is not None:
                        outstanding[hog] -= 1
        assert response.ok
        latencies_ms.append((server.clock.now_us - sent_us) / 1000.0)
    elapsed_s = (server.clock.now_us - started_us) / 1_000_000.0
    latencies_ms.sort()
    return (percentile(latencies_ms, 0.50), percentile(latencies_ms, 0.99),
            elapsed_s)


# -- pytest entry points --------------------------------------------------------


def test_ten_thousand_sessions_one_server():
    storm = storm_point()
    assert storm.clients == 10_000


def test_knee_is_strictly_above_the_pr8_capacity():
    saturated = saturation_point(SATURATED_RPS)
    assert saturated.errors == 0
    assert saturated.achieved_rps > OLD_KNEE_RPS, (
        f"capacity regressed: plateau {saturated.achieved_rps} req/s is not "
        f"above the old {OLD_KNEE_RPS} req/s knee")


def test_qos_isolates_interactive_from_bulk_hogs():
    event_p50, event_p99, _ = qos_isolation(FileServer)
    polled_p50, polled_p99, _ = qos_isolation(polled_server())
    assert event_p99 < polled_p99, (
        f"QoS bought nothing: event p99 {event_p99}ms vs "
        f"polled p99 {polled_p99}ms")
    assert event_p50 < polled_p50


# -- the harness hook -------------------------------------------------------------


def bench(profile: str = "full"):
    """Structured entries for ``python -m repro bench``."""
    rounds = 60 if profile == "smoke" else 200
    results = []

    storm = storm_point()
    results.append(report(
        "E17",
        "(sec 5.2) one machine serves the whole local network",
        f"{storm.sessions} concurrent sessions on one server: "
        f"{storm.requests} requests, {storm.errors} errors, "
        f"{storm.wakeups} wakeups",
        name="E17.sessions_10k",
        simulated_seconds=storm.elapsed_s,
        cached=True,
        sessions=storm.sessions,
        requests=storm.requests,
        wakeups=storm.wakeups,
        rejected=storm.rejected,
    ))

    saturated = saturation_point(SATURATED_RPS)
    assert saturated.achieved_rps > OLD_KNEE_RPS, (
        f"capacity regressed below the PR-8 knee: {saturated.achieved_rps}")
    results.append(report(
        "E17",
        f"engine restructure moves the 4-shard knee above {OLD_KNEE_RPS} req/s",
        f"{SATURATED_RPS} req/s offered: plateau "
        f"{saturated.achieved_rps:.0f} req/s "
        f"(old knee {OLD_KNEE_RPS} req/s)",
        name="E17.knee_plateau",
        simulated_seconds=saturated.elapsed_s,
        cached=True,
        achieved_rps=saturated.achieved_rps,
        old_knee_rps=OLD_KNEE_RPS,
        p99_ms=saturated.p99_hist_ms,
    ))

    event_p50, event_p99, event_s = qos_isolation(FileServer, rounds)
    polled_p50, polled_p99, polled_s = qos_isolation(polled_server(), rounds)
    assert event_p99 < polled_p99, "QoS isolation failed"
    results.append(report(
        "E17",
        "weighted QoS shields interactive latency from bulk backlogs",
        f"interactive p99 behind {HOGS} bulk hogs: "
        f"{event_p99:.2f}ms (event/QoS) vs {polled_p99:.2f}ms (polled), "
        f"{polled_p99 / event_p99:.1f}x isolation",
        name="E17.qos_isolation",
        simulated_seconds=event_s + polled_s,
        cached=True,
        event_p50_ms=event_p50,
        event_p99_ms=event_p99,
        polled_p50_ms=polled_p50,
        polled_p99_ms=polled_p99,
    ))
    return results
