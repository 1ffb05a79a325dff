"""The load generator: a deterministic multi-client request schedule.

Builds N clients, gives each a seeded script (upload a private file, read
it back in batched sequential READs, list the directory), and drives all
of them **concurrently**: each driver round lets every idle client issue
its next request, runs one ``server.poll()`` (which services the whole
admitted batch and flushes once), then collects responses and latencies.
:meth:`LoadGenerator.run_sequential` replays the identical scripts one
client at a time -- the baseline that shows what multiplexing buys.

Everything derives from one seed, so two runs with the same seed and
schedule produce byte-identical disk images and identical metrics
snapshots (``tests/server/test_determinism.py`` proves it).

>>> from repro.server.loadgen import build_system, LoadGenerator
>>> system = build_system(clients=2)
>>> result = LoadGenerator(system, file_bytes=600, read_rounds=1).run()
>>> result.clients, result.requests > 0, result.errors
(2, True, 0)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from ..disk.cache import CachedDrive
from ..disk.drive import DiskDrive
from ..disk.geometry import diablo31, tiny_test_disk
from ..disk.image import DiskImage
from ..fs.filesystem import FileSystem
from ..net.network import PacketNetwork
from ..obs.metrics import SUB_BUCKET_BITS
from ..words import random_bytes
from .client import FileClient, PendingRequest, upload_chunks
from .engine import FileServer
from .protocol import Request, Response, ST_OK

#: Maximum driver rounds with zero progress before declaring livelock.
STALL_LIMIT = 10_000

#: Write-back cache size of every served pack's drive, in sectors.
SERVER_CACHE_SECTORS = 512


@dataclass
class ServedSystem:
    """One simulated machine room: server FS, wire, server, clients."""

    fs: FileSystem
    network: PacketNetwork
    server: FileServer
    clients: List[FileClient]

    @property
    def clock(self):
        return self.fs.drive.clock

    def stats(self) -> Dict:
        """The unified flat stats snapshot (one machine, one clock)."""
        return self.clock.obs.stats()


def build_system(
    clients: int,
    cached: bool = True,
    max_pending: int = 128,
    tiny: bool = False,
) -> ServedSystem:
    """Format a pack and attach a server plus *clients* workstations.

    ``cached=True`` (the default) serves from the write-back
    :class:`~repro.disk.cache.CachedDrive`, which is what gives the
    engine's one-flush-per-poll batching its bite; ``tiny=True`` uses the
    small test geometry for fast unit tests.
    """
    if tiny:
        shape = tiny_test_disk(cylinders=40)
    else:
        shape = diablo31()
    image = DiskImage(shape)
    drive = (CachedDrive(image, cache_sectors=SERVER_CACHE_SECTORS)
             if cached else DiskDrive(image))
    fs = FileSystem.format(drive)
    network = PacketNetwork(clock=drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = FileServer(fs, network, max_pending=max_pending)
    stations = []
    for index in range(clients):
        host = f"ws{index:03d}"
        network.attach(host)
        stations.append(FileClient(network, host))
    return ServedSystem(fs, network, server, stations)


@dataclass
class ClusterSystem:
    """One simulated machine room with N shard machines behind a router.

    Quacks like :class:`ServedSystem` where the load generator cares
    (``server`` polls, ``clock`` is elapsed time, ``clients`` drive), so
    the same :class:`LoadGenerator` runs against both.
    """

    shards: List[FileServer]
    network: PacketNetwork
    router: "ShardRouter"
    clients: List[FileClient]

    @property
    def server(self):
        """The router fronts the cluster: it is what the driver polls."""
        return self.router

    @property
    def clock(self):
        """Cluster elapsed time: the router (network) clock."""
        return self.network.clock

    def stats(self) -> Dict:
        """Counters merged across the router and every shard machine.

        Per-machine clocks mean per-machine registries; the merge sums
        counters (``server.requests`` becomes the cluster total) and
        takes the max of clock positions and high-water gauges.
        """
        from ..obs import merge_stats

        snapshots = [self.clock.obs.stats(), self.router.front_clock.obs.stats()]
        snapshots.extend(shard.clock.obs.stats() for shard in self.shards)
        return merge_stats(snapshots)


def build_cluster(
    clients: int,
    shards: int = 2,
    seed: int = 1979,
    cached: bool = True,
    max_pending: int = 128,
    per_shard_window: int = 32,
    tiny: bool = False,
) -> ClusterSystem:
    """Format *shards* packs, each behind its own :class:`FileServer` on
    its own simulated machine (own clock), fronted by a
    :class:`~repro.server.router.ShardRouter` on the ``"fileserver"``
    host -- clients are built exactly as :func:`build_system` builds them
    and cannot tell the difference.

    >>> from repro.server.loadgen import build_cluster
    >>> system = build_cluster(clients=2, shards=2, tiny=True)
    >>> len(system.shards), system.server is system.router
    (2, True)
    """
    from .router import ShardRouter

    network = PacketNetwork()
    servers = []
    for index in range(shards):
        if tiny:
            shape = tiny_test_disk(cylinders=40)
        else:
            shape = diablo31()
        image = DiskImage(shape)
        drive = (CachedDrive(image, cache_sectors=SERVER_CACHE_SECTORS)
                 if cached else DiskDrive(image))
        fs = FileSystem.format(drive)
        host = f"shard{index:02d}"
        network.attach(host, queue_limit=4096, clock=drive.clock)
        servers.append(FileServer(fs, network, host=host,
                                  max_pending=max_pending))
    router = ShardRouter(servers, network, seed=seed,
                         max_pending=max_pending,
                         per_shard_window=per_shard_window)
    stations = []
    for index in range(clients):
        host = f"ws{index:03d}"
        network.attach(host)
        stations.append(FileClient(network, host))
    return ClusterSystem(servers, network, router, stations)


@dataclass
class LoadResult:
    """Aggregate outcome of one load run (all times simulated)."""

    mode: str
    clients: int
    requests: int
    elapsed_s: float
    requests_per_sec: float
    p50_ms: float
    p99_ms: float
    retries: int
    busy_retries: int
    rejected: int
    flushes: int
    errors: int
    bytes_written: int
    bytes_read: int
    #: The same percentiles re-derived from the ``loadgen.request_us``
    #: registry histogram -- reported alongside the raw-list values so a
    #: silent divergence between the two latency paths cannot hide.
    p50_hist_ms: float = 0.0
    p99_hist_ms: float = 0.0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "latencies_ms"}
        return out


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop (offered-load) run; times simulated."""

    offered_rps: float      #: the arrival rate the schedule was drawn at
    duration_s: float       #: length of the offered window
    offered: int            #: arrivals scheduled in the window
    completed: int          #: requests that got a response
    errors: int
    elapsed_s: float        #: simulated time to drain everything
    achieved_rps: float     #: completed / elapsed -- caps at capacity
    p50_ms: float           #: latency from *scheduled* arrival, raw list
    p99_ms: float
    p50_hist_ms: float      #: same, from the loadgen.request_us histogram
    p99_hist_ms: float

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SessionStormResult:
    """Outcome of one session storm (all times simulated).

    ``sessions`` is the live server session count after every station's
    OPEN completed -- the number the ten-thousand-client smoke pins.
    """

    clients: int
    sessions: int       #: live server sessions once every OPEN completed
    requests: int
    errors: int
    rejected: int       #: ``server.rejected`` after the run
    evicted: int        #: ``server.sessions_evicted`` after the run
    wakeups: int        #: ``server.wakeups`` -- only woken sessions cost
    elapsed_s: float

    def to_json(self) -> dict:
        return dict(self.__dict__)


def run_session_storm(
    clients: int = 10_000,
    shared_files: int = 32,
    seed: int = 1979,
    max_pending: int = 128,
    system: Optional[ServedSystem] = None,
) -> SessionStormResult:
    """Hold *clients* concurrent sessions open against one server.

    The Diablo 31 pack has nowhere near ten thousand files' worth of
    sectors, so the storm shares ``shared_files`` read-only files among
    all stations: every station OPENs one (creating its server session
    and holding the handle for the rest of the run), then READs one page
    through it.  Stations arrive in waves smaller than the admission
    window, so the storm exercises session-table and ready-queue scale,
    not rejection; with the event-driven engine the nine-thousand-odd
    sessions that are *not* in a wave sleep and cost each poll nothing
    (watch ``server.wakeups`` against ``clients * polls``).

    Pass a prebuilt *system* to reuse a topology (its station count then
    wins over *clients*):

    >>> from repro.server.loadgen import build_system, run_session_storm
    >>> storm = run_session_storm(clients=8, shared_files=2,
    ...                           system=build_system(8, tiny=True))
    >>> storm.sessions, storm.errors, storm.evicted
    (8, 0, 0)
    """
    if system is None:
        system = build_system(clients=clients, max_pending=max_pending)
    server = system.server
    stations = system.clients
    rng = random.Random(seed)

    # Seed the shared read-only files before the measured window opens.
    uploader = stations[0]
    uploader.pump = server.poll
    names = []
    for index in range(shared_files):
        name = f"shared{index:03d}.dat"
        uploader.write_file(name, random_bytes(rng, 256))
        names.append(name)
    uploader.pump = None

    started_us = system.clock.now_us
    wave = max(1, max_pending // 2)
    requests = errors = 0

    def drive(pendings: Dict[FileClient, PendingRequest]) -> Dict[FileClient, Response]:
        nonlocal requests, errors
        stalls = 0
        results: Dict[FileClient, Response] = {}
        while pendings:
            server.poll()
            progressed = False
            for station in list(pendings):
                response = station.step(pendings[station])
                if response is None:
                    continue
                progressed = True
                del pendings[station]
                requests += 1
                if response.status != ST_OK:
                    errors += 1
                results[station] = response
            if progressed:
                stalls = 0
            else:
                stalls += 1
                if stalls > STALL_LIMIT:
                    raise RuntimeError("session storm stalled: no station "
                                       "progressed for too many rounds")
                system.clock.advance_us(1_000, "server.client.wait")
        return results

    # OPEN wave: every station joins, holding its handle open.
    handles: Dict[FileClient, int] = {}
    for base in range(0, len(stations), wave):
        group = stations[base:base + wave]
        pendings = {}
        for index, station in enumerate(group):
            name = names[(base + index) % len(names)]
            pendings[station] = station.submit(station.build_open(name))
        for station, response in drive(pendings).items():
            handles[station] = response.handle

    sessions = len(server.sessions)

    # READ wave: every held handle proves it still serves.
    for base in range(0, len(stations), wave):
        group = stations[base:base + wave]
        drive({station: station.submit(
                   station.build_read(handles[station], 1, 1))
               for station in group})

    stats = system.stats()
    elapsed_us = system.clock.now_us - started_us
    return SessionStormResult(
        clients=len(stations),
        sessions=sessions,
        requests=requests,
        errors=errors,
        rejected=int(stats.get("server.rejected", 0)),
        evicted=int(stats.get("server.sessions_evicted", 0)),
        wakeups=int(stats.get("server.wakeups", 0)),
        elapsed_s=round(elapsed_us / 1_000_000.0, 6),
    )


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 for empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def check_quantile_agreement(sorted_us: List[int], hist, fraction: float) -> float:
    """Cross-check the histogram's quantile against the raw sample list.

    Returns the histogram estimate after asserting it brackets the true
    ceil-rank sample within the log-bucket relative-error bound (the
    :data:`~repro.obs.metrics.SUB_BUCKET_BITS` contract).  Loadgen keeps
    both latency paths -- raw list and registry histogram -- and this is
    what stops them drifting apart silently.
    """
    estimate = hist.quantile(fraction)
    if not sorted_us:
        assert estimate == 0.0
        return estimate
    rank = min(len(sorted_us), max(1, math.ceil(fraction * len(sorted_us))))
    true_value = sorted_us[rank - 1]
    assert true_value <= estimate <= true_value * (1 + 2 ** -SUB_BUCKET_BITS), (
        f"histogram q{fraction} = {estimate} does not bracket "
        f"rank-{rank} sample {true_value}")
    return estimate


def client_script(client: FileClient, name: str, data: bytes,
                  read_rounds: int) -> Generator[Request, Response, None]:
    """The per-client workload as a request generator.

    Yields requests, receives responses -- the driver decides when each
    request actually runs, so the same script serves both the concurrent
    and the sequential mode.
    """
    from ..fs.file import FULL_PAGE

    response = yield client.build_open(name, create=True)
    handle = response.handle
    for page, chunk in upload_chunks(data):
        yield client.build_write(handle, page, chunk)
    yield client.build_close(handle)

    for _ in range(read_rounds):
        response = yield client.build_open(name)
        handle = response.handle
        size = (response.result0 << 16) | response.result1
        pages = max(1, (size + FULL_PAGE - 1) // FULL_PAGE)
        page = 1
        while page <= pages:
            want = min(client.read_batch_pages, pages - page + 1)
            response = yield client.build_read(handle, page, want)
            page += max(1, response.result0)
        yield client.build_close(handle)
    yield client.build_list()


class LoadGenerator:
    """Drives every client's script against one server, two ways."""

    def __init__(
        self,
        system: ServedSystem,
        seed: int = 1979,
        file_bytes: int = 2048,
        read_rounds: int = 2,
    ) -> None:
        self.system = system
        self.seed = seed
        self.file_bytes = file_bytes
        self.read_rounds = read_rounds
        #: Client-observed latency, also kept as a registry histogram so
        #: the list-based percentiles and the bucketed quantiles report
        #: side by side (and are cross-checked in :meth:`_quantiles`).
        self._h_latency = system.clock.obs.registry.histogram(
            "loadgen.request_us")

    def _scripts(self):
        rng = random.Random(self.seed)
        scripts = []
        for index, client in enumerate(self.system.clients):
            size = self.file_bytes + rng.randrange(0, 256)
            data = random_bytes(rng, size)
            scripts.append((client,
                            client_script(client, f"load{index:03d}.dat", data,
                                          self.read_rounds),
                            size))
        return scripts

    def _quantiles(self, latencies_us: List[int]) -> Dict[str, float]:
        """p50 and p99 in ms, from the raw list and from the
        ``loadgen.request_us`` histogram, as result fields.

        On a fresh run the histogram holds exactly these samples, so its
        quantiles must bracket the true nearest-rank values
        (:func:`check_quantile_agreement`).
        """
        sorted_us = sorted(latencies_us)
        fresh = self._h_latency.count == len(sorted_us)
        fields = {}
        for name, fraction in (("p50", 0.50), ("p99", 0.99)):
            if fresh:
                hist_us = check_quantile_agreement(sorted_us, self._h_latency,
                                                   fraction)
            else:
                hist_us = self._h_latency.quantile(fraction)
            fields[f"{name}_ms"] = round(
                percentile(sorted_us, fraction) / 1000.0, 3)
            fields[f"{name}_hist_ms"] = round(hist_us / 1000.0, 3)
        return fields

    def _result(self, mode: str, requests: int, errors: int,
                latencies_us: List[int], elapsed_us: int,
                bytes_written: int) -> LoadResult:
        stats = self.system.stats()
        elapsed_s = elapsed_us / 1_000_000.0
        return LoadResult(
            mode=mode,
            clients=len(self.system.clients),
            requests=requests,
            elapsed_s=round(elapsed_s, 6),
            requests_per_sec=round(requests / elapsed_s, 3) if elapsed_us else 0.0,
            retries=int(stats.get("server.client.retries", 0)),
            busy_retries=int(stats.get("server.client.busy_retries", 0)),
            rejected=int(stats.get("server.rejected", 0)),
            flushes=int(stats.get("server.flushes", 0)),
            errors=errors,
            bytes_written=bytes_written,
            bytes_read=int(stats.get("server.pages_read", 0)) * 512,
            latencies_ms=sorted(us / 1000.0 for us in latencies_us),
            **self._quantiles(latencies_us),
        )

    def run(self, progress: Optional[Callable[[int], None]] = None) -> LoadResult:
        """Concurrent mode: all clients in flight, one poll per round.

        *progress*, when given, is called with the running completed-request
        count after every round that completed at least one request -- the
        hook ``python -m repro top`` uses to refresh its dashboard while
        the run is in flight.
        """
        system = self.system
        scripts = self._scripts()
        started_us = system.clock.now_us
        active: Dict[FileClient, Generator] = {c: g for c, g, _ in scripts}
        bytes_written = sum(size for _, _, size in scripts)
        pendings: Dict[FileClient, PendingRequest] = {}
        responses: Dict[FileClient, Optional[Response]] = {c: None for c in active}
        latencies: List[int] = []
        requests = errors = 0
        stalls = 0
        while active or pendings:
            for client in list(active):
                if client in pendings:
                    continue
                try:
                    request = active[client].send(responses[client])
                except StopIteration:
                    del active[client]
                    continue
                pendings[client] = client.submit(request)
            system.server.poll()
            progressed = False
            for client in list(pendings):
                pending = pendings[client]
                response = client.step(pending)
                if response is None:
                    continue
                progressed = True
                del pendings[client]
                latency_us = system.clock.now_us - pending.first_sent_us
                latencies.append(latency_us)
                self._h_latency.observe(latency_us)
                requests += 1
                if response.status != ST_OK:
                    errors += 1
                responses[client] = response
            if progressed:
                stalls = 0
                if progress is not None:
                    progress(requests)
            else:
                stalls += 1
                if stalls > STALL_LIMIT:
                    raise RuntimeError("load generator stalled: no client "
                                       "progressed for too many rounds")
                system.clock.advance_us(1_000, "server.client.wait")
        return self._result("concurrent", requests, errors, latencies,
                            system.clock.now_us - started_us, bytes_written)

    def run_open_loop(self, rate_rps: float, duration_s: float,
                      progress: Optional[Callable[[int], None]] = None
                      ) -> "OpenLoopResult":
        """Open-loop mode: Poisson arrivals at *rate_rps*, independent of
        completions, for *duration_s* simulated seconds of offered load.

        The closed-loop modes cannot see saturation: each client waits for
        its response before issuing again, so offered load falls exactly
        as the server slows (coordinated omission).  Here the arrival
        schedule is drawn up front from a seeded exponential process and
        **latency is measured from the scheduled arrival time** -- if a
        station is still busy when its next request falls due, the time
        the request spends waiting to even be sent counts.  Past the
        capacity knee that backlog grows without bound and p99 explodes,
        which is precisely the curve benchmark E15 pins.

        Arrivals round-robin over the stations; each is a 1-page READ of a
        small per-station file uploaded (closed-loop) before the measured
        window opens.
        """
        system = self.system
        stations = system.clients
        rng = random.Random(self.seed)

        # Setup phase, unmeasured: each station uploads one small file and
        # re-opens it, so the measured window is pure READ traffic.
        handles: Dict[FileClient, int] = {}
        for index, client in enumerate(stations):
            client.pump = system.server.poll
            name = f"open{index:03d}.dat"
            client.write_file(name, random_bytes(rng, 256))
            handle, _ = client.open(name)
            handles[client] = handle
            client.pump = None

        # The offered schedule: exponential gaps, one station per arrival.
        started_us = system.clock.now_us
        horizon_us = started_us + int(duration_s * 1_000_000)
        arrivals: List[int] = []
        at_us = float(started_us)
        while True:
            at_us += rng.expovariate(rate_rps) * 1_000_000
            if at_us >= horizon_us:
                break
            arrivals.append(int(at_us))

        backlog: Dict[FileClient, List[int]] = {c: [] for c in stations}
        pendings: Dict[FileClient, "tuple[PendingRequest, int]"] = {}
        latencies: List[int] = []
        next_arrival = 0
        completed = errors = 0
        stalls = 0
        while next_arrival < len(arrivals) or pendings \
                or any(backlog.values()):
            now = system.clock.now_us
            while next_arrival < len(arrivals) and arrivals[next_arrival] <= now:
                station = stations[next_arrival % len(stations)]
                backlog[station].append(arrivals[next_arrival])
                next_arrival += 1
            for station in stations:
                if station in pendings or not backlog[station]:
                    continue
                scheduled_us = backlog[station].pop(0)
                request = station.build_read(handles[station], 1, 1)
                pendings[station] = (station.submit(request), scheduled_us)
            system.server.poll()
            progressed = False
            for station in list(pendings):
                pending, scheduled_us = pendings[station]
                response = station.step(pending)
                if response is None:
                    continue
                progressed = True
                del pendings[station]
                latency_us = system.clock.now_us - scheduled_us
                latencies.append(latency_us)
                self._h_latency.observe(latency_us)
                completed += 1
                if response.status != ST_OK:
                    errors += 1
            if progressed:
                stalls = 0
                if progress is not None:
                    progress(completed)
            else:
                stalls += 1
                if stalls > STALL_LIMIT:
                    raise RuntimeError("open-loop generator stalled")
                step_us = 1_000
                if next_arrival < len(arrivals) and not pendings \
                        and not any(backlog.values()):
                    # Idle until the next scheduled arrival: jump there.
                    step_us = max(step_us,
                                  arrivals[next_arrival] - system.clock.now_us)
                system.clock.advance_us(step_us, "server.client.wait")
        elapsed_us = system.clock.now_us - started_us
        elapsed_s = elapsed_us / 1_000_000.0
        return OpenLoopResult(
            offered_rps=rate_rps,
            duration_s=duration_s,
            offered=len(arrivals),
            completed=completed,
            errors=errors,
            elapsed_s=round(elapsed_s, 6),
            achieved_rps=round(completed / elapsed_s, 3) if elapsed_us else 0.0,
            **self._quantiles(latencies),
        )

    def run_sequential(self) -> LoadResult:
        """Baseline mode: the same scripts, one client finishing at a time."""
        system = self.system
        scripts = self._scripts()
        started_us = system.clock.now_us
        latencies: List[int] = []
        requests = errors = 0
        bytes_written = sum(size for _, _, size in scripts)
        for client, script, _ in scripts:
            client.pump = system.server.poll
            response = None
            while True:
                try:
                    request = script.send(response)
                except StopIteration:
                    break
                pending = client.submit(request)
                response = client.wait(pending)
                latency_us = system.clock.now_us - pending.first_sent_us
                latencies.append(latency_us)
                self._h_latency.observe(latency_us)
                requests += 1
                if response.status != ST_OK:
                    errors += 1
        return self._result("sequential", requests, errors, latencies,
                            system.clock.now_us - started_us, bytes_written)
