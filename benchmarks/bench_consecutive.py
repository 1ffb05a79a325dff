"""E10 -- Consecutive-file address arithmetic (section 3.6).

Claim: "A program is free to assume that a file is consecutive and, knowing
the address a_i of page i, to compute the address of page j as a_i + j - i.
The label check will prevent any incorrect overwriting of data, and will
inform the program whether the disk access succeeds."

Regenerates: arithmetic hit rate and read time on a fragmented file vs the
same file after compaction.
"""

import pytest

from repro.disk import DiskDrive
from repro.fs import Compactor, ConsecutiveReader, FileSystem

from paper import populated_disk, report, scatter_file

PAYLOAD = bytes(range(256)) * 80  # 40,960 bytes = 81 pages


def measure():
    image, fs, _ = populated_disk(files=40)
    fs = scatter_file(image, fs, "guess.dat", PAYLOAD, seed=5)
    clock = fs.drive.clock

    file = fs.open_file("guess.dat")
    reader = ConsecutiveReader(fs.page_io, file)
    t0 = clock.now_s
    data = bytearray()
    for pn in range(1, file.last_page_number + 1):
        contents = reader.read_page(pn)
        from repro.words import words_to_bytes

        data += words_to_bytes(contents.value, nbytes=contents.label.length)
    assert bytes(data) == PAYLOAD
    scattered = (reader.stats.hit_rate, clock.now_s - t0)

    Compactor(DiskDrive(image, clock=clock)).compact()
    fs2 = FileSystem.mount(DiskDrive(image, clock=clock))
    file2 = fs2.open_file("guess.dat")
    reader2 = ConsecutiveReader(fs2.page_io, file2)
    t0 = clock.now_s
    for pn in range(1, file2.last_page_number + 1):
        reader2.read_page(pn)
    compacted = (reader2.stats.hit_rate, clock.now_s - t0)
    return scattered, compacted, file2.leader.maybe_consecutive


def test_consecutive_assumption_hit_rate(benchmark):
    scattered, compacted, flag = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["scattered_hit_rate"] = scattered[0]
    benchmark.extra_info["compacted_hit_rate"] = compacted[0]
    report(
        "E10",
        "programs may compute a_i + j - i; the label check catches "
        "every wrong guess harmlessly",
        f"hit rate fragmented {scattered[0]:.0%} ({scattered[1]:.2f}s) vs "
        f"compacted {compacted[0]:.0%} ({compacted[1]:.2f}s); "
        f"maybe-consecutive flag = {flag}",
    )
    assert scattered[0] < 0.3  # guesses mostly miss on a scattered file
    assert compacted[0] == 1.0  # and always hit after compaction
    assert flag is True
    assert compacted[1] < scattered[1]


def test_failed_guesses_never_corrupt(benchmark):
    """Writing through wrong arithmetic is impossible: the check aborts the
    write before anything lands (measured as zero value writes)."""

    def measure_writes():
        image, fs, payloads = populated_disk(files=20)
        fs = scatter_file(image, fs, "guess.dat", PAYLOAD, seed=6)
        from repro.errors import HintFailed
        from repro.fs import FullName

        file = fs.open_file("guess.dat")
        base = file.leader_address()
        drive = fs.drive
        blocked = 0
        before = drive.stats()["disk.drive.value_writes"]
        for pn in range(1, file.last_page_number + 1):
            guess = base + pn
            try:
                fs.page_io.write(FullName(file.fid, pn, guess), [0xDEAD] * 256)
            except HintFailed:
                blocked += 1
        stray_writes = drive.stats()["disk.drive.value_writes"] - before
        return blocked, stray_writes, file.last_page_number

    blocked, writes, pages = benchmark.pedantic(measure_writes, rounds=1, iterations=1)
    benchmark.extra_info["blocked"] = blocked
    report(
        "E10b",
        "the label check prevents any incorrect overwriting of data",
        f"{blocked}/{pages} wrong-address writes aborted before writing; "
        f"{writes} writes landed (only where the guess was actually right)",
    )
    assert blocked + writes == pages
    assert writes <= pages - blocked
