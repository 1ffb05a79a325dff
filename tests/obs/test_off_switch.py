"""The off-switch guarantee: tracing cannot change bytes or simulated time.

Spans only *read* ``clock.now_us`` -- they never advance it and never touch
the disk -- so the same workload run with tracing enabled and disabled must
produce byte-identical packs and land the clock on the exact same
microsecond.  These tests run the identical session twice and diff
everything: every sector's header, label, and value words, the final clock
position, and the per-category time tallies.
"""

from repro.disk import CachedDrive, DiskDrive, DiskImage, tiny_test_disk
from repro.fs import FileSystem, Scavenger
from repro.os import AltoOS


def pack_bytes(image: DiskImage):
    """Every sector of the pack, fully serialised."""
    return [
        (s.header.pack(), s.label.pack(), list(s.value))
        for s in image.sectors()
    ]


def assert_identical(run):
    """Run the session with tracing off and on; everything must match."""
    image_off, clock_off = run(trace=False)
    image_on, clock_on = run(trace=True)
    assert clock_on.now_us == clock_off.now_us
    assert clock_on.tallies() == clock_off.tallies()
    assert pack_bytes(image_on) == pack_bytes(image_off)


def fs_session(trace: bool, cached: bool):
    """Creates, rewrites, deletes, syncs, then scavenges a small pack."""
    image = DiskImage(tiny_test_disk(cylinders=12))
    drive = CachedDrive(image) if cached else DiskDrive(image)
    if trace:
        drive.clock.obs.enable_tracing()
    fs = FileSystem.format(drive)
    for i in range(6):
        fs.create_file(f"f{i}.dat").write_data(bytes([i]) * (300 * (i + 1)))
    fs.open_file("f3.dat").write_data(b"rewritten" * 50)
    fs.delete_file("f1.dat")
    assert fs.open_file("f2.dat").read_data() == bytes([2]) * 900
    fs.sync()
    fs.flush()
    Scavenger(DiskDrive(image, clock=drive.clock)).scavenge()
    return image, drive.clock


class TestFileSystemSession:
    def test_plain_drive(self):
        assert_identical(lambda trace: fs_session(trace, cached=False))

    def test_cached_drive(self):
        assert_identical(lambda trace: fs_session(trace, cached=True))


def repl_session(trace: bool):
    """A full REPL session through the Executive, ending in a scavenge."""
    image = DiskImage(tiny_test_disk(cylinders=12))
    drive = DiskDrive(image)
    if trace:
        drive.clock.obs.enable_tracing()
    os = AltoOS.format(drive)
    os.fs.create_file("ReadMe.txt").write_data(b"hello from the off-switch test\n")
    script = "\n".join([
        "ls",
        "write note.txt observability",
        "type note.txt",
        "copy ReadMe.txt Copy.txt",
        "free",
        "scavenge",
        "quit",
    ]) + "\n"
    output = os.run_executive(script)
    return image, drive.clock, output


class TestReplSession:
    def test_full_session_identical(self):
        image_off, clock_off, out_off = repl_session(trace=False)
        image_on, clock_on, out_on = repl_session(trace=True)
        assert out_on == out_off
        assert clock_on.now_us == clock_off.now_us
        assert clock_on.tallies() == clock_off.tallies()
        assert pack_bytes(image_on) == pack_bytes(image_off)

    def test_traced_run_actually_traced(self):
        """Guard against the vacuous pass: the traced run must record spans."""
        image, clock, _ = repl_session(trace=True)
        names = {e.name for e in clock.obs.tracer.spans()}
        assert "disk.transfer" in names
        assert "fs.scavenge" in names


def cluster_session(trace: bool):
    """A 4-shard cluster load run, every machine's clock and pack checked."""
    from repro.obs import disable_trace_all, enable_trace_all
    from repro.server.loadgen import LoadGenerator, build_cluster

    if trace:
        enable_trace_all()
    try:
        system = build_cluster(clients=3, shards=4, tiny=True)
        LoadGenerator(system, file_bytes=700, read_rounds=1).run()
    finally:
        if trace:
            disable_trace_all()
    return system


class TestClusterSession:
    def test_four_shard_cluster_identical(self):
        """Telemetry on or off, every shard pack's bytes and every
        machine's simulated microseconds are identical -- the PR 3
        invariant extended to the sharded cluster, where spans now cover
        client stations, the router, and each shard."""
        off = cluster_session(trace=False)
        on = cluster_session(trace=True)
        assert on.clock.now_us == off.clock.now_us
        assert on.clock.tallies() == off.clock.tallies()
        for shard_on, shard_off in zip(on.shards, off.shards):
            assert shard_on.clock.now_us == shard_off.clock.now_us
            assert shard_on.clock.tallies() == shard_off.clock.tallies()
            assert (pack_bytes(shard_on.fs.drive.image)
                    == pack_bytes(shard_off.fs.drive.image))

    def test_traced_cluster_actually_traced(self):
        """Guard against the vacuous pass: the traced cluster run must
        record the new request-telemetry spans on every lane.  These span
        sites build nothing unless tracing is on, so each traced branch is
        required here: a cache hit span on the shards, and a trace_id on
        every request span, which is what stitches the lanes together."""
        on = cluster_session(trace=True)
        router_events = list(on.clock.obs.tracer.events)
        router_names = {e.name for e in router_events}
        assert "router.route" in router_names
        assert any(name.startswith("client.") for name in router_names)
        shard_events = [e for shard in on.shards
                        for e in shard.clock.obs.tracer.events]
        shard_names = {e.name for e in shard_events}
        assert "server.request" in shard_names
        assert "server.queue" in shard_names
        assert "disk.cache.hit" in shard_names
        requests = [e for e in router_events + shard_events
                    if e.name in ("server.request", "router.route")]
        assert all(e.args and e.args.get("trace_id") for e in requests)


class TestMetricsAreFree:
    def test_reading_stats_advances_nothing(self):
        image = DiskImage(tiny_test_disk())
        drive = DiskDrive(image)
        fs = FileSystem.format(drive)
        before = drive.clock.now_us
        stats = drive.clock.obs.stats()
        snapshot = pack_bytes(image)
        assert drive.clock.now_us == before
        assert stats["disk.drive.commands"] > 0
        assert pack_bytes(image) == snapshot
