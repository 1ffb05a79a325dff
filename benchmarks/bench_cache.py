"""E11 -- Write-back cache and elevator scheduler speedups.

Not a paper claim: the paper's numbers (E1-E10) are all raw per-sector
disk costs, and stay exactly as they were with the cache off.  These
benchmarks measure what the acceleration layer of ``repro.disk.cache``
buys on the two workloads the ROADMAP's "as fast as the hardware allows"
goal cares about -- re-reading a working set and repeated world swaps --
and pin the cache-off path to the plain drive, byte for byte and
microsecond for microsecond.
"""

import pytest

from repro.disk import CachedDrive, DiskDrive, DiskImage, diablo31
from repro.fs import FileSystem
from repro.world import Machine, WorldSwapper

from paper import populated_disk, report, scatter_file

WORDS_64K = 65536

#: A 64k-word working set spans 257 sectors; give the cache comfortable
#: room so the benchmark measures hits, not LRU scan-thrash.
CACHE_SECTORS = 512

OUTLOAD_REPEATS = 4

SCATTER_PAYLOAD = bytes(range(256)) * 200  # 51,200 bytes = 101 pages


def make_drive(image, cached: bool):
    if cached:
        return CachedDrive(image, cache_sectors=CACHE_SECTORS)
    return DiskDrive(image)


def sequential_read_64k_seconds(cached: bool):
    """Write a 64k-word file, sync, then read it back sequentially.

    The timed region is the read.  With the cache on, the write just
    warmed all 257 sectors, so the read is served from memory; with it
    off, the read pays full disk time -- the E6 scenario.
    """
    image = DiskImage(diablo31())
    drive = make_drive(image, cached)
    fs = FileSystem.format(drive)
    payload = bytes((i * 31) & 0xFF for i in range(WORDS_64K * 2))
    fs.create_file("seq.dat").write_data(payload)
    fs.sync()
    watch = drive.clock.stopwatch()
    assert fs.open_file("seq.dat").read_data() == payload
    return watch.elapsed_s, drive


def repeat_outload_seconds(cached: bool, repeats: int = OUTLOAD_REPEATS):
    """OutLoad the same world *repeats* times (the printing server's
    spooler/printer coroutine pattern), ending durable.

    The first OutLoad (file creation) is setup; the timed region covers
    the repeats plus a final flush, so the cached run gets no durability
    discount: everything is on the platter when the clock stops.
    """
    image = DiskImage(diablo31())
    drive = make_drive(image, cached)
    fs = FileSystem.format(drive)
    machine = Machine()
    machine.memory.write_block(0x1000, list(range(256)))
    swapper = WorldSwapper(fs, machine)
    swapper.outload("World.state", "prog", "phase")
    fs.flush()
    watch = drive.clock.stopwatch()
    for _ in range(repeats):
        swapper.outload("World.state", "prog", "phase")
    fs.flush()
    return watch.elapsed_s, drive


def scattered_reread_seconds(cached: bool):
    """Re-read a deliberately scattered 101-page file (the E2 scenario).

    Compaction is the paper's answer to scatter; the cache is the modern
    one: after a first (warming) read, the re-read no longer pays the
    scatter penalty at all.  The timed region is the second read.
    """
    image, fs, _payloads = populated_disk(files=60)
    fs = scatter_file(image, fs, "seq.dat", SCATTER_PAYLOAD, seed=11)
    if cached:
        drive = CachedDrive(image, clock=fs.drive.clock, cache_sectors=CACHE_SECTORS)
        fs = FileSystem.mount(drive)
    else:
        drive = fs.drive
    assert fs.open_file("seq.dat").read_data() == SCATTER_PAYLOAD  # warm
    watch = drive.clock.stopwatch()
    assert fs.open_file("seq.dat").read_data() == SCATTER_PAYLOAD
    return watch.elapsed_s, drive


def _hit_rate(drive) -> float:
    if not isinstance(drive, CachedDrive):
        return 0.0
    stats = drive.stats()
    served = stats["disk.cache.hits"] + stats["disk.cache.misses"]
    return stats["disk.cache.hits"] / served if served else 0.0


def bench(profile: str = "full"):
    """Structured entries for ``python -m repro bench`` (same measures)."""
    results = []
    seq = {}
    for cached in (False, True):
        seconds, drive = sequential_read_64k_seconds(cached)
        seq[cached] = seconds
        results.append(report(
            "E11", "(no paper claim) cached re-read of a 64k-word file",
            f"{seconds:.3f}s cache {'on' if cached else 'off'}",
            name=f"E11.sequential_reread_64k_{'cached' if cached else 'uncached'}",
            simulated_seconds=seconds, cached=cached, hit_rate=_hit_rate(drive),
        ))
    out = {}
    for cached in (False, True):
        seconds, drive = repeat_outload_seconds(cached)
        out[cached] = seconds
        results.append(report(
            "E11b", "(no paper claim) repeated OutLoad of the same world",
            f"{seconds:.3f}s for {OUTLOAD_REPEATS} OutLoads, cache {'on' if cached else 'off'}",
            name=f"E11b.repeat_outload_{'cached' if cached else 'uncached'}",
            simulated_seconds=seconds, cached=cached, hit_rate=_hit_rate(drive),
        ))
    if profile != "smoke":  # populated-disk setup dominates; full only
        for cached in (False, True):
            seconds, drive = scattered_reread_seconds(cached)
            results.append(report(
                "E11d", "(no paper claim) cached re-read of a scattered file",
                f"{seconds:.3f}s cache {'on' if cached else 'off'}",
                name=f"E11d.scattered_reread_{'cached' if cached else 'uncached'}",
                simulated_seconds=seconds, cached=cached, hit_rate=_hit_rate(drive),
            ))
    results.append(report(
        "E11c", "(acceptance) cache wins >= 2x on both workloads",
        f"re-read {seq[False] / seq[True]:.1f}x, repeat-OutLoad {out[False] / out[True]:.1f}x",
        name="E11c.cache_speedups", simulated_seconds=0.0, cached=True,
        reread_speedup=seq[False] / seq[True],
        outload_speedup=out[False] / out[True],
    ))
    return results


def test_cached_sequential_read_at_least_2x(benchmark):
    def measure():
        plain_s, _ = sequential_read_64k_seconds(cached=False)
        cached_s, drive = sequential_read_64k_seconds(cached=True)
        return plain_s, cached_s, drive

    plain_s, cached_s, drive = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = plain_s / cached_s
    benchmark.extra_info.update(
        {"plain_s": plain_s, "cached_s": cached_s, "speedup": ratio,
         "hit_rate": _hit_rate(drive)}
    )
    report(
        "E11",
        "(no paper claim) a warm write-back cache serves re-reads from memory",
        f"64k-word re-read: {plain_s:.2f}s uncached vs {cached_s:.3f}s cached "
        f"= {ratio:.0f}x ({_hit_rate(drive):.0%} hits)",
    )
    assert ratio >= 2.0, f"cached sequential read only {ratio:.2f}x faster"
    # Lifetime rate includes the cold format/write phase; the timed read
    # itself is all hits, which is what the 2x bound above demonstrates.
    assert _hit_rate(drive) > 0.5


def test_cached_repeat_outload_at_least_2x(benchmark):
    def measure():
        plain_s, _ = repeat_outload_seconds(cached=False)
        cached_s, drive = repeat_outload_seconds(cached=True)
        return plain_s, cached_s, drive

    plain_s, cached_s, drive = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = plain_s / cached_s
    coalesced = drive.stats()["disk.sched.coalesced"]
    benchmark.extra_info.update(
        {"plain_s": plain_s, "cached_s": cached_s, "speedup": ratio,
         "coalesced": coalesced}
    )
    report(
        "E11b",
        "(no paper claim) repeated OutLoads coalesce in the write-back queue",
        f"{OUTLOAD_REPEATS} OutLoads + flush: {plain_s:.2f}s uncached vs "
        f"{cached_s:.2f}s cached = {ratio:.1f}x "
        f"({coalesced} writes coalesced)",
    )
    assert ratio >= 2.0, f"cached repeat-OutLoad only {ratio:.2f}x faster"


def test_cache_off_is_byte_and_time_identical():
    """``cache_sectors=0`` must be the plain drive exactly: same platter
    bytes, same simulated microseconds, same command counts -- the
    paper-faithful numbers of E1-E10 are measured on this path."""

    def run(drive_cls, **kw):
        image = DiskImage(diablo31())
        drive = drive_cls(image, **kw)
        fs = FileSystem.format(drive)
        fs.create_file("a.dat").write_data(bytes(range(256)) * 40)
        fs.open_file("a.dat").read_data()
        fs.delete_file("a.dat")
        fs.sync()
        return image, drive

    img_plain, plain = run(DiskDrive)
    img_off, off = run(CachedDrive, cache_sectors=0)
    assert plain.clock.now_us == off.clock.now_us
    # A cached drive's stats() also holds its (idle) cache and elevator.
    def commands(drive):
        return {k: v for k, v in drive.stats().items() if k.startswith("disk.drive.")}
    assert commands(plain) == commands(off)
    for s1, s2 in zip(img_plain.sectors(), img_off.sectors()):
        assert s1.header.pack() == s2.header.pack()
        assert s1.label.pack() == s2.label.pack()
        assert list(s1.value) == list(s2.value)
