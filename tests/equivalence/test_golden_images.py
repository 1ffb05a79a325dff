"""The golden-image suite: pinned workloads against checked-in digests.

Each workload builds a pack from a fixed seed, drives it through a slice of
the system (mount -> write -> scavenge -> compact -> serve -> crash), and
reports the pack's SHA-256 digest plus the simulated microseconds consumed.
The expected values live in ``golden_digests.json`` next to this file; any
change to a fast path, the timing model, the allocator, or the on-disk
format that alters either number trips these tests.

That is the point: the digests are a regression tripwire for *observational
equivalence*.  A legitimate change to the simulation (a new timing charge, a
format change) must regenerate them consciously:

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/equivalence/test_golden_images.py

and the diff of golden_digests.json becomes part of the review.  Every
machine asserts against the *same* pinned values, with or without numpy
installed: no code path imports it (see the last test here).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.disk import CachedDrive, DiskDrive, DiskImage, FaultPlan, tiny_test_disk
from repro.errors import PowerFailure, ReproError
from repro.fs import FileSystem
from repro.fs.compactor import compact
from repro.fs.scavenger import scavenge
from repro.net import PacketNetwork
from repro.server import FileClient, FileServer
from repro.streams import BYTE_ITEMS, WORD_ITEMS, open_read_stream, open_write_stream
from repro.words import random_bytes

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

SEED = 1979


def _fresh(cylinders=20, cached=False, fault_seed=None):
    image = DiskImage(tiny_test_disk(cylinders=cylinders))
    plan = FaultPlan(image, seed=fault_seed) if fault_seed is not None else None
    drive = (CachedDrive if cached else DiskDrive)(image, fault_injector=plan)
    return image, drive


def _populate(fs, rng, files=10):
    for i in range(files):
        data = random_bytes(rng, rng.randrange(0, 2200))
        fs.create_file(f"file{i:02}.dat").write_data(data)
    for i in (2, 5):
        fs.delete_file(f"file{i:02}.dat")
    sub = fs.create_directory("Sub")
    fs.create_file("nested.txt", directory=sub).write_data(b"nested data")
    fs.sync()


# -- the pinned workloads -----------------------------------------------------
# Each returns {"digest": ..., "simulated_us": ...}; keep them deterministic:
# every random draw flows from SEED, nothing reads the wall clock.


def workload_format():
    """Bare format: descriptor, root directory, boot page."""
    image, drive = _fresh()
    FileSystem.format(drive)
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us}


def workload_mount_write():
    """Format, populate with seeded files/deletes/subdir, remount, reread."""
    image, drive = _fresh()
    fs = FileSystem.format(drive)
    _populate(fs, random.Random(SEED))
    remounted = FileSystem.mount(drive)
    total = sum(len(remounted.open_file(n).read_data())
                for n in remounted.list_files() if n.endswith(".dat"))
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us,
            "bytes_reread": total}


def workload_scavenge():
    """Populate then scavenge a healthy pack (the no-repairs sweep)."""
    image, drive = _fresh()
    fs = FileSystem.format(drive)
    _populate(fs, random.Random(SEED))
    report = scavenge(drive)
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us,
            "files_swept": report.files_found}


def workload_compact():
    """Populate (with deletions, so there are gaps) then compact."""
    image, drive = _fresh()
    fs = FileSystem.format(drive)
    _populate(fs, random.Random(SEED))
    report = compact(drive)
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us,
            "pages_moved": report.pages_moved}


def workload_serve():
    """Write and read files through the network file server."""
    image, drive = _fresh(cached=True)
    fs = FileSystem.format(drive)
    network = PacketNetwork(clock=drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = FileServer(fs, network)
    network.attach("ws")
    client = FileClient(network, "ws", pump=server.poll)
    rng = random.Random(SEED)
    for i in range(4):
        client.write_file(f"served{i}.bin", random_bytes(rng, 600 + 700 * i))
    reread = sum(len(client.read_file(f"served{i}.bin")) for i in range(4))
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us,
            "bytes_served": reread}


def workload_crash_recover():
    """Tear a write mid-workload, scavenge, remount: recovery is pinned too."""
    image, drive = _fresh(fault_seed=SEED)
    fs = FileSystem.format(drive)
    _populate(fs, random.Random(SEED))
    # tear_at_write counts absolutely; tear the 5th part-write of the
    # in-flight file (mid-way through its page chain).
    drive.fault_injector.tear_at_write(drive.fault_injector.writes_seen + 5)
    try:
        fs.create_file("victim.dat").write_data(random_bytes(random.Random(SEED + 1), 3000))
    except (PowerFailure, ReproError):
        pass
    drive.fault_injector.revive()
    scavenge(drive)
    remounted = FileSystem.mount(drive)
    survivors = sorted(n for n in remounted.list_files() if n.endswith(".dat"))
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us,
            "survivors": survivors}


def workload_streams():
    """Disk file streams: a byte write across pages, a word write, an append
    across a page boundary, a write-stream reset, and positioned reads.

    Every word file here has an even length and no stream is used after
    close, so the pinned traffic is the read and write streams' own.
    """
    image, drive = _fresh()
    fs = FileSystem.format(drive)
    rng = random.Random(SEED)
    text = fs.create_file("text.dat")
    stream = open_write_stream(text, now=1)
    for byte in random_bytes(rng, 1300):
        stream.put(byte)
    stream.close()
    words = fs.create_file("words.dat")
    stream = open_write_stream(words, items=WORD_ITEMS)
    for _ in range(300):
        stream.put(rng.randrange(0x10000))
    stream.close()
    stream = open_write_stream(text, append=True, now=2)
    for byte in random_bytes(rng, 400):
        stream.put(byte)
    stream.close()
    scratch = fs.create_file("scratch.dat")
    stream = open_write_stream(scratch)
    for byte in random_bytes(rng, 700):
        stream.put(byte)
    stream.reset()
    for byte in random_bytes(rng, 512):  # ends on a page boundary
        stream.put(byte)
    stream.close()
    stream = open_write_stream(scratch, append=True)  # onto an empty tail page
    for byte in random_bytes(rng, 90):
        stream.put(byte)
    stream.close()
    items = []
    for file, kind, positions in ((text, BYTE_ITEMS, (0, 1500, 10, 1690)),
                                  (words, WORD_ITEMS, (598, 0, 512, 200))):
        stream = open_read_stream(file, items=kind)
        for position in positions:
            stream.call("set_position", position)
            items += [stream.get() for _ in range(5) if not stream.endof()]
        stream.close()
    return {"digest": image.digest(), "simulated_us": drive.clock.now_us,
            "commands": drive.stats()["disk.drive.commands"],
            "items_read": len(items), "items_sum": sum(items)}


WORKLOADS = {
    "format": workload_format,
    "mount_write": workload_mount_write,
    "scavenge": workload_scavenge,
    "compact": workload_compact,
    "serve": workload_serve,
    "crash_recover": workload_crash_recover,
    "streams": workload_streams,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden(name, numpy_mode):
    observed = WORKLOADS[name]()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        goldens[name] = observed
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden for {name!r} updated; commit golden_digests.json")
    assert GOLDEN_PATH.exists(), (
        "golden_digests.json missing; regenerate with REPRO_UPDATE_GOLDENS=1")
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert observed == golden, (
        f"workload {name!r} diverged from its golden record.\n"
        f"  expected: {golden}\n"
        f"  observed: {observed}\n"
        "If this change to the simulation is intentional, regenerate with "
        "REPRO_UPDATE_GOLDENS=1 and review the golden diff.")


def test_workloads_are_deterministic(numpy_mode):
    """Two runs of one workload agree with each other (pre-golden sanity)."""
    first = workload_mount_write()
    second = workload_mount_write()
    assert first == second


def test_golden_workload_leaves_numpy_unimported():
    """A fresh process that runs a golden workload and draws 40,000 random
    bytes never loads numpy, even where numpy is installed."""
    code = ("import random, sys\n"
            "from repro.words import random_bytes\n"
            "from tests.equivalence.test_golden_images import workload_mount_write\n"
            "workload_mount_write()\n"
            "random_bytes(random.Random(1), 40_000)\n"
            "sys.exit('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    root = Path(__file__).resolve().parents[2]  # where ``tests`` imports from
    status = subprocess.run([sys.executable, "-c", code], cwd=root, env=env).returncode
    assert status == 0, "the workload or random_bytes imported numpy"
