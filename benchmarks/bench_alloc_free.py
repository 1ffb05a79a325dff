"""E4 -- Label-discipline costs (section 3.3).

Claims: "This scheme costs a disk revolution each time a page is allocated
or freed ... On any other write the label is checked, at no cost in time."
"""

import pytest

from repro.disk import DiskDrive, DiskImage, diablo31
from repro.disk.timing import ROTATION
from repro.fs import FileSystem

from paper import report

PAGES = 50


def measure():
    image = DiskImage(diablo31())
    fs = FileSystem.format(DiskDrive(image))
    drive = fs.drive
    rotation_us = drive.shape.rotation_ms * 1000
    from repro.fs import FullName

    fid = fs.new_fid()
    # --- pure allocation: the claim (check-free, then write the label) --------
    watch = drive.clock.stopwatch()
    addresses = [
        fs.allocator.allocate(fs.page_io, fid.label_for(pn, length=512), [pn])
        for pn in range(PAGES)
    ]
    alloc_revs = watch.category_delta_us(ROTATION) / rotation_us / PAGES

    # --- ordinary data writes: zero extra rotational cost ----------------------
    watch = drive.clock.stopwatch()
    for pn, address in enumerate(addresses):
        fs.page_io.write(FullName(fid, pn, address), [pn] * 256)
    write_revs = watch.category_delta_us(ROTATION) / rotation_us / PAGES

    # --- pure free: check the label, then write ones ---------------------------
    watch = drive.clock.stopwatch()
    for pn, address in enumerate(addresses):
        fs.allocator.release(fs.page_io, FullName(fid, pn, address))
    free_revs = watch.category_delta_us(ROTATION) / rotation_us / PAGES

    stats = drive.stats()
    checks = stats["disk.drive.label_checks"]
    failures = stats["disk.drive.label_check_failures"]
    return alloc_revs, write_revs, free_revs, checks, failures


def test_allocation_and_free_cost_revolutions(benchmark):
    alloc_revs, write_revs, free_revs, checks, failures = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {"alloc_revs": alloc_revs, "write_revs": write_revs, "free_revs": free_revs}
    )
    report(
        "E4",
        "a revolution per allocate/free; ordinary writes check labels at "
        "no cost in time",
        f"allocate {alloc_revs:.2f} rev/page, free {free_revs:.2f} rev/page, "
        f"ordinary write {write_revs:.2f} rev/page "
        f"({checks} label checks, {failures} failures)",
    )
    # The claim waits one revolution (minus a sector) to rewrite the label
    # it just checked; positioning adds a fraction more.
    assert 0.7 <= alloc_revs <= 1.8
    assert 0.7 <= free_revs <= 1.8
    # Sequential ordinary writes ride the rotation: essentially free.
    assert write_revs < 0.2


def test_label_checks_cost_nothing_on_sequential_writes(benchmark):
    """Writing N consecutive pre-allocated pages with label checks takes
    the same time as the raw transfer would."""

    def measure_overhead():
        image = DiskImage(diablo31())
        fs = FileSystem.format(DiskDrive(image))
        file = fs.create_file("seq.dat")
        file.write_data(b"\0" * (512 * 40))
        drive = fs.drive
        sector_ms = drive.shape.sector_time_ms()
        watch = drive.clock.stopwatch()
        for pn in range(1, 40):
            file.write_full_page(pn, [1] * 256)
        elapsed_ms = watch.elapsed_ms
        ideal_ms = 39 * sector_ms
        return elapsed_ms, ideal_ms

    elapsed_ms, ideal_ms = benchmark.pedantic(measure_overhead, rounds=1, iterations=1)
    overhead = elapsed_ms / ideal_ms
    benchmark.extra_info["overhead_factor"] = overhead
    report(
        "E4b",
        "checked sequential writes run at raw disk speed",
        f"{elapsed_ms:.0f}ms vs ideal {ideal_ms:.0f}ms ({overhead:.2f}x)",
    )
    assert overhead < 1.6  # allow arm settling between distant pages
