"""E3 -- The hint recovery ladder (section 3.6).

Claim: a valid hint gives direct page access "without going through a
directory lookup and without scanning down the chain of data blocks"; each
fallback rung costs more, ending in the Scavenger.

Regenerates: simulated access cost at each rung for the same page.
"""

import pytest

from repro.disk import DiskDrive, FaultPlan
from repro.fs import FileSystem, HintLadder

from paper import populated_disk, report

TARGET_PAGE = 40


def build():
    image, fs, _ = populated_disk(files=40)
    fs.create_file("target.dat").write_data(bytes(range(256)) * 100)  # 51200 B
    fs.sync()
    file = fs.open_file("target.dat")
    good_hint = file.page_name(TARGET_PAGE)  # resolves (and caches) the chain
    return image, fs, file, good_hint


def timed_read(fs, hint, known=None):
    ladder = HintLadder(fs)
    clock = fs.drive.clock
    t0 = clock.now_ms
    ladder.read_page("target.dat", hint, known=known)
    return clock.now_ms - t0, ladder.stats()


def measure_all():
    results = {}

    image, fs, file, good = build()
    results["direct"], _ = timed_read(fs, good)

    image, fs, file, good = build()
    results["known-page"], _ = timed_read(fs, good.with_address(5), known=file.full_name())

    image, fs, file, good = build()
    results["directory-fv"], _ = timed_read(fs, good.with_address(5))

    # Scavenge rung: the directory entry itself goes stale (leader moved
    # behind everyone's back), so only a full reconstruction helps.
    image, fs, file, good = build()
    plan = FaultPlan(image, seed=3)
    free = next(s.header.address for s in image.sectors() if s.label.is_free)
    plan.swap_sectors(file.leader_address(), free)
    results["scavenge"], stats = timed_read(fs, good.with_address(5))
    assert stats["fs.ladder.rung.scavenge"] == 1
    return results


def bench(profile):
    """The harness hook: one row with per-rung costs (same measures as the
    tests).  Under ``bench --trace`` each rung shows up as a named
    ``hints.<rung>`` span in the merged Chrome trace."""
    results = measure_all()
    return [
        report(
            "E3",
            "hints give direct access; each recovery rung costs more, "
            "ending in a full scavenge",
            " / ".join(f"{rung}: {ms:.0f}ms" for rung, ms in results.items()),
            name="E3.hint_ladder_rungs",
            simulated_seconds=sum(results.values()) / 1000.0,
            **{f"{rung}_ms": ms for rung, ms in results.items()},
        )
    ]


def test_ladder_costs_increase_by_rung(benchmark):
    results = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    for rung, ms in results.items():
        benchmark.extra_info[f"{rung}_ms"] = ms
    report(
        "E3",
        "hints give direct access; each recovery rung costs more, "
        "ending in a full scavenge",
        " / ".join(f"{rung}: {ms:.0f}ms" for rung, ms in results.items()),
    )
    assert results["direct"] < results["known-page"] < results["scavenge"]
    assert results["directory-fv"] < results["scavenge"]
    # Direct access is a single sector operation: well under 200 ms even
    # with a full-stroke seek; the scavenge rung is tens of seconds.
    assert results["direct"] < 200
    assert results["scavenge"] > 10_000


def test_direct_access_beats_chain_scan(benchmark):
    """The deeper the page, the more a valid hint saves."""

    def measure():
        image, fs, file, good = build()
        direct_ms, _ = timed_read(fs, good)
        # A fresh mount with a cold cache: the stale hint forces the full
        # leader-to-page-40 link walk.
        fs2 = FileSystem.mount(DiskDrive(image, clock=fs.drive.clock))
        ladder = HintLadder(fs2)
        clock = fs2.drive.clock
        t0 = clock.now_ms
        ladder.read_page("target.dat", good.with_address(5))
        walk_ms = clock.now_ms - t0
        return direct_ms, walk_ms, ladder.stats()["fs.ladder.link_follows"]

    direct_ms, walk_ms, follows = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["direct_ms"] = direct_ms
    benchmark.extra_info["walk_ms"] = walk_ms
    report(
        "E3b",
        "a hint avoids scanning down the chain of data blocks",
        f"direct {direct_ms:.0f}ms vs {follows}-link walk {walk_ms:.0f}ms "
        f"({walk_ms / max(direct_ms, 0.001):.0f}x)",
    )
    assert follows >= TARGET_PAGE
    assert walk_ms > 3 * direct_ms
