"""Components count through the registry counters they hold.

A drive keeps one registry -- its own counters, and a cached drive's cache
and elevator metrics beside them -- and a hint ladder keeps another; each
is a child of the clock-level registry, so per-instance counts stay
separate while ``clock.obs.stats()`` sees the machine-wide sums.  Both
read back through ``stats()``, a flat snapshot keyed by full metric name.
"""

from repro import SimClock
from repro.disk import CachedDrive, DiskDrive, DiskImage, RequestScheduler, tiny_test_disk
from repro.fs import RUNGS, FileSystem, HintLadder
from repro.obs import MetricsRegistry

DRIVE_COUNTERS = ("commands", "label_checks", "label_check_failures",
                  "label_writes", "value_reads", "value_writes",
                  "transient_read_errors", "read_retries")
CACHE_COUNTERS = ("hits", "misses", "deferred_writes", "write_through",
                  "flushes", "evictions", "invalidations", "cancelled_writes",
                  "overflows")
SCHED_COUNTERS = ("enqueued", "coalesced", "serviced", "sweeps")


class TestDriveStats:
    def test_two_drives_on_one_clock_stay_separate_but_sum(self):
        clock = SimClock()
        image_a = DiskImage(tiny_test_disk())
        image_b = DiskImage(tiny_test_disk())
        drive_a = DiskDrive(image_a, clock=clock)
        drive_b = DiskDrive(image_b, clock=clock)
        FileSystem.format(drive_a)
        commands_a = drive_a.stats()["disk.drive.commands"]
        assert commands_a > 0
        assert drive_b.stats()["disk.drive.commands"] == 0
        FileSystem.format(drive_b)
        rollup = clock.obs.stats()["disk.drive.commands"]
        assert rollup == (drive_a.stats()["disk.drive.commands"]
                          + drive_b.stats()["disk.drive.commands"])

    def test_cached_drive_stats_hold_exactly_its_metrics(self):
        drive = CachedDrive(DiskImage(tiny_test_disk()))
        FileSystem.format(drive)
        keys = set(drive.stats())
        buckets = {key for key in keys
                   if key.startswith("disk.cache.drain_sectors.bucket.")}
        assert buckets
        assert keys - buckets == (
            {f"disk.drive.{name}" for name in DRIVE_COUNTERS}
            | {f"disk.cache.{name}" for name in CACHE_COUNTERS}
            | {f"disk.sched.{name}" for name in SCHED_COUNTERS}
            | {"disk.sched.depth", "disk.sched.depth.high_water"}
            | {f"disk.cache.drain_sectors.{field}"
               for field in ("count", "total", "min", "max")})


class TestCacheStats:
    def test_cached_drive_rolls_up_to_clock(self):
        clock = SimClock()
        drive = CachedDrive(DiskImage(tiny_test_disk()), clock=clock)
        other = CachedDrive(DiskImage(tiny_test_disk()), clock=clock)
        FileSystem.format(drive)
        drive.flush()
        own, rollup = drive.stats(), clock.obs.stats()
        assert other.stats()["disk.cache.hits"] == 0
        for name in ("disk.cache.hits", "disk.cache.flushes",
                     "disk.sched.enqueued", "disk.sched.serviced"):
            assert own[name] > 0
            assert rollup[name] == own[name]
        # The histogram observes once per flush() call (its total is sectors
        # drained); the flushes counter ticks once per drained address, and
        # also on direct flush_address calls outside a drain.
        assert own["disk.cache.drain_sectors.count"] >= 1
        assert 0 < own["disk.cache.drain_sectors.total"] <= own["disk.cache.flushes"]


class TestSchedulerStats:
    def test_max_depth_is_the_gauge_high_water(self):
        registry = MetricsRegistry()
        scheduler = RequestScheduler(tiny_test_disk(), registry)
        for address in (3, 9):
            scheduler.enqueue(address)
        for address in (40, 41, 80):
            scheduler.enqueue(address)
        while (address := scheduler.next_address(0)) is not None:
            scheduler.mark_serviced(address)
        stats = registry.snapshot()
        assert stats["disk.sched.depth"] == 0
        assert stats["disk.sched.depth.high_water"] == 5

    def test_cached_drive_exposes_queue_metrics(self):
        drive = CachedDrive(DiskImage(tiny_test_disk()))
        FileSystem.format(drive)
        drive.flush()
        stats = drive.stats()
        assert stats["disk.sched.enqueued"] > 0
        assert stats["disk.sched.depth.high_water"] > 0
        assert stats["disk.sched.serviced"] > 0


class TestLadderStats:
    def test_fresh_ladders_start_at_zero_on_a_shared_clock(self):
        image = DiskImage(tiny_test_disk())
        fs = FileSystem.format(DiskDrive(image))
        fs.create_file("a.dat").write_data(b"x" * 2000)
        fs.sync()
        file = fs.open_file("a.dat")
        hint = file.page_name(1)

        first = HintLadder(fs)
        first.read_page("a.dat", hint)
        assert first.stats()["fs.ladder.rung.direct"] == 1

        second = HintLadder(fs)
        assert set(second.stats().values()) == {0}  # per-instance isolation
        assert set(second.stats()) == (
            {"fs.ladder.link_follows"} | {f"fs.ladder.rung.{rung}" for rung in RUNGS})
        second.read_page("a.dat", hint)
        # ... while the clock-level registry rolls both up.
        assert fs.drive.clock.obs.stats()["fs.ladder.rung.direct"] == 2
