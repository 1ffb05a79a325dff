#!/usr/bin/env python
"""Crash recovery: the robustness story of sections 3.3, 3.5, and 6.

A power failure tears a write mid-sector; the allocation map is left
lying; labels and links get scrambled by cosmic rays; a whole directory is
destroyed.  After each disaster the Scavenger reconstructs every hint from
the absolutes, and -- the paper's headline claim -- *no user data is lost*:
"The incidence of complaints about lost information is negligible."
"""

from repro import DiskDrive, DiskImage, FaultPlan, FileSystem, Scavenger, diablo31
from repro.errors import TornWriteError


def checksums(fs, names):
    return {name: fs.open_file(name).read_data() for name in names}


def main() -> None:
    image = DiskImage(diablo31())
    drive = DiskDrive(image)
    fs = FileSystem.format(drive)

    names = []
    for i in range(30):
        name = f"archive{i:02}.dat"
        fs.create_file(name).write_data(bytes([i]) * (137 * (i + 1)))
        names.append(name)
    fs.sync()
    before = checksums(fs, names)
    print(f"wrote {len(names)} files, {sum(len(v) for v in before.values()):,} bytes")

    # --- Disaster 1: power failure mid-write -------------------------------------
    plan = FaultPlan(image, seed=7)
    drive.fault_injector = plan
    plan.schedule_power_failure(after_writes=3)
    try:
        fs.open_file("archive05.dat").write_data(b"NEW CONTENTS " * 200)
        print("write completed?!")
    except TornWriteError as exc:
        print(f"power failed: {exc}")

    # The machine rebooted; mount the pack fresh and scavenge.
    drive = DiskDrive(image, clock=drive.clock)
    report = Scavenger(drive).scavenge()
    print(f"scavenge 1: {report.elapsed_s:.1f}s, repairs={report.repairs_made()}, "
          f"truncated={len(report.truncated_files)}, ragged={len(report.ragged_last_pages)}")
    fs = FileSystem.mount(drive)
    survivors = checksums(fs, [n for n in names if n != "archive05.dat"])
    assert all(survivors[n] == before[n] for n in survivors)
    print("all 29 untouched files byte-identical; the torn file is detected, not silently wrong")

    # --- Disaster 2: scrambled labels and a lying map ------------------------------
    plan = FaultPlan(image, seed=11)
    victims = plan.random_in_use_addresses(3)
    for address in victims:
        plan.scramble_links(address)
    # Make the map lie: mark 50 busy pages "free".
    for address in plan.random_in_use_addresses(50):
        fs.allocator.mark_free(address)
    fs.sync()

    drive = DiskDrive(image, clock=drive.clock)
    report = Scavenger(drive).scavenge()
    print(f"scavenge 2: links repaired={report.links_repaired}, "
          f"free pages recomputed={report.free_pages}")
    fs = FileSystem.mount(drive)

    # Even BEFORE scavenging, a lying map cannot corrupt data: the claim
    # protocol label-checks every allocation (demonstrated by the counter).
    print(f"allocation-map lies caught by label checks so far: {fs.allocator.map_lies}")

    # --- Disaster 3: a directory page destroyed --------------------------------------
    plan = FaultPlan(image, seed=13)
    root_data_page = fs.root.file.page_name(1).address
    plan.scramble_label(root_data_page)
    print("destroyed the root directory's data page label")

    drive = DiskDrive(image, clock=drive.clock)
    report = Scavenger(drive).scavenge()
    print(f"scavenge 3: orphans rescued by leader name: {len(report.orphans_rescued)}")
    fs = FileSystem.mount(drive)
    after = checksums(fs, [n for n in names if n != "archive05.dat"])
    assert all(after[n] == before[n] for n in after)
    print("every file re-entered in the main directory under its leader name; data intact")

    print(f"\ntotal simulated time: {drive.clock.now_s:.1f}s")


if __name__ == "__main__":
    main()
