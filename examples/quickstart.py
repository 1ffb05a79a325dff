#!/usr/bin/env python
"""Quickstart: a whole Alto in a few dozen lines.

Formats a simulated Diablo-31 pack, boots the operating system, runs an
Executive session, uses streams directly, breaks the disk, and lets the
Scavenger put it back together.  Run with:

    python examples/quickstart.py
"""

from repro import (
    AltoOS,
    DiskDrive,
    DiskImage,
    FaultPlan,
    diablo31,
    open_read_stream,
    read_string,
)


def main() -> None:
    # --- 1. A fresh pack, a drive, a formatted file system, a booted OS ----
    image = DiskImage(diablo31())
    drive = DiskDrive(image)
    os = AltoOS.format(drive)
    print(f"formatted {image.shape.name}: {image.shape.capacity_bytes():,} bytes, "
          f"{os.fs.free_pages()} free pages")

    # --- 2. An Executive session (type-ahead, echo, Com.cm protocol) -------
    display = os.run_executive(
        "write todo.txt buy more removable packs\n"
        "write memo.txt the scavenger takes about a minute\n"
        "ls\n"
        "type memo.txt\n"
        "free\n"
        "quit\n"
    )
    print("\n--- Executive session " + "-" * 40)
    print(display)

    # --- 3. The same files through the raw stream API -----------------------
    stream = open_read_stream(os.fs.open_file("memo.txt"))
    print("--- via stream API:", repr(read_string(stream)))
    stream.close()

    # --- 4. Vandalize the disk, then scavenge --------------------------------
    plan = FaultPlan(image, seed=1979)
    for address in plan.random_in_use_addresses(8):
        plan.scramble_links(address)              # corrupt hint links
    plan.swap_sectors(*plan.random_in_use_addresses(2))
    print("--- corrupted 8 link pairs and swapped two sectors behind the OS's back")

    report = os.scavenge()
    print(f"--- scavenge: {report.sectors_swept} sectors in {report.elapsed_s:.1f} "
          f"simulated seconds, {report.links_repaired} links repaired, "
          f"{report.entries_fixed} directory hints fixed")

    # --- 5. Everything still there -------------------------------------------
    stream = open_read_stream(os.fs.open_file("memo.txt"))
    print("--- after recovery:", repr(read_string(stream)))
    stream.close()
    print(f"--- total simulated time: {drive.clock.now_s:.1f}s "
          f"({drive.stats()['disk.drive.commands']} disk commands)")


if __name__ == "__main__":
    main()
