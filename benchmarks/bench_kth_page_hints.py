"""E9 -- Hints for every k-th page (section 3.6).

Claim: "Hint addresses can also be kept for every k-th page of the file to
reduce the number of links that must be followed."

Regenerates: link follows and simulated access time after a failed direct
hint, as a function of k.
"""

import pytest

from repro.fs import HintLadder, KthPageHints

from paper import populated_disk, report

FILE_PAGES = 96
TARGET_PAGES = (13, 37, 61, 85)


def build():
    image, fs, _ = populated_disk(files=30)
    fs.create_file("long.dat").write_data(b"\0" * (512 * (FILE_PAGES - 1) + 100))
    fs.sync()
    return fs


def measure():
    results = {}
    for k in (1, 2, 4, 8, 16, None):
        fs = build()
        file = fs.open_file("long.dat")
        kth = None
        if k is not None:
            kth = KthPageHints(file.fid, k)
            kth.build(file)
        ladder = HintLadder(fs)
        clock = fs.drive.clock
        t0 = clock.now_ms
        for target in TARGET_PAGES:
            stale = file.page_name(target).with_address(5)
            ladder.read_page("long.dat", stale, known=file.full_name(), kth=kth)
        elapsed = clock.now_ms - t0
        label = k if k is not None else "none"
        follows = ladder.stats()["fs.ladder.link_follows"]
        results[label] = (follows / len(TARGET_PAGES), elapsed / len(TARGET_PAGES))
    return results


def test_kth_page_hints_bound_link_follows(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    for k, (follows, ms) in results.items():
        benchmark.extra_info[f"k{k}_follows"] = follows
    rows = ", ".join(f"k={k}: {f:.1f} follows/{ms:.0f}ms" for k, (f, ms) in results.items())
    report(
        "E9",
        "hints every k pages reduce the links that must be followed",
        rows,
    )
    follows = {k: f for k, (f, _ms) in results.items()}
    # Bounded by k (at most ~k/2 from the nearest kept hint)...
    for k in (1, 2, 4, 8, 16):
        assert follows[k] <= k / 2 + 0.5
    # ...monotone in k, and all beat the no-hint leader walk.
    assert follows[1] <= follows[4] <= follows[16] < follows["none"]
    # Without hints, reaching a mid-file page costs a long walk.
    assert follows["none"] > 20


def test_time_follows_link_count(benchmark):
    """Each link follow is a disk access: time tracks the follow count."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    times = {k: ms for k, (_f, ms) in results.items()}
    report(
        "E9b",
        "every saved link follow saves a disk access",
        ", ".join(f"k={k}: {ms:.0f}ms" for k, ms in times.items()),
    )
    assert times[1] < times[16] < times["none"]
