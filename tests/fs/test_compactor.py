"""Compacting-scavenger tests: in-place permutation to consecutive runs."""

import random

import pytest

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.fs import Compactor, FileSystem
from repro.fs.descriptor import BOOT_PAGE_ADDRESS, DESCRIPTOR_LEADER_ADDRESS, DESCRIPTOR_NAME


@pytest.fixture
def scattered(fs, rng):
    """A file system aged into fragmentation, with known payloads."""
    payloads = {}
    for i in range(16):
        name = f"age{i:02}"
        data = bytes([i]) * rng.randrange(600, 2200)
        fs.create_file(name).write_data(data)
        payloads[name] = data
    for i in range(0, 16, 2):
        fs.delete_file(f"age{i:02}")
        del payloads[f"age{i:02}"]
    for i in (20, 21, 22):
        name = f"age{i:02}"
        data = bytes([i]) * rng.randrange(2000, 4000)
        fs.create_file(name).write_data(data)
        payloads[name] = data
    fs.sync()
    fs.payloads = payloads
    return fs


def consecutive(file) -> bool:
    addresses = [file.page_name(pn).address for pn in range(file.page_count())]
    return all(addresses[i + 1] == addresses[i] + 1 for i in range(len(addresses) - 1))


class TestCompaction:
    def test_every_file_becomes_consecutive(self, scattered, image):
        report = Compactor(scattered.drive).compact()
        fs = FileSystem.mount(DiskDrive(image))
        for name in scattered.payloads:
            assert consecutive(fs.open_file(name)), f"{name} not consecutive"
        assert report.pages_moved > 0

    def test_data_survives(self, scattered, image):
        Compactor(scattered.drive).compact()
        fs = FileSystem.mount(DiskDrive(image))
        for name, data in scattered.payloads.items():
            assert fs.open_file(name).read_data() == data

    def test_pinned_pages_stay(self, scattered, image):
        Compactor(scattered.drive).compact()
        fs = FileSystem.mount(DiskDrive(image))
        assert fs.open_file(DESCRIPTOR_NAME).leader_address() == DESCRIPTOR_LEADER_ADDRESS

    def test_consecutive_flags_set(self, scattered, image):
        Compactor(scattered.drive).compact()
        fs = FileSystem.mount(DiskDrive(image))
        for name in scattered.payloads:
            assert fs.open_file(name).leader.maybe_consecutive

    def test_idempotent(self, scattered, image):
        Compactor(scattered.drive).compact()
        second = Compactor(DiskDrive(image)).compact()
        assert second.pages_moved == 0
        assert second.files_already_consecutive > 0

    def test_post_scavenge_fixed_directory_hints(self, scattered, image):
        report = Compactor(scattered.drive).compact()
        # Directory hints were refreshed: opening by entry works first try.
        fs = FileSystem.mount(DiskDrive(image))
        for name in scattered.payloads:
            entry = fs.root.require(name)
            file = fs.open_entry(entry)  # would raise HintFailed on stale hint
            assert file.name == name

    def test_map_consistent_after_compaction(self, scattered, image):
        Compactor(scattered.drive).compact()
        fs = FileSystem.mount(DiskDrive(image))
        # The map equals the labels: claim every "free" page successfully.
        assert fs.allocator.count_free() == image.count_free() - 1  # boot reserve

    def test_sequential_read_speedup(self, fs, image, rng):
        """Section 3.5: "increases the speed ... by an order of magnitude"
        on badly scattered files.  Scatter a file's pages across the disk
        (fixing links via a scavenge), then compare sequential reads."""
        from repro.disk import FaultPlan
        from repro.fs.scavenger import Scavenger

        name = "seq.dat"
        payload = bytes(range(256)) * 20  # 5120 bytes, 11 pages
        fs.create_file(name).write_data(payload)
        fs.sync()
        # Scatter: swap each of the file's sectors with a random distant
        # free sector, then scavenge to repair all links to the new homes.
        plan = FaultPlan(image, seed=3)
        file = fs.open_file(name)
        addresses = [file.page_name(pn).address for pn in range(file.page_count())]
        free = [s.header.address for s in image.sectors() if s.label.is_free]
        rng.shuffle(free)
        for address in addresses:
            plan.swap_sectors(address, free.pop())
        clock = fs.drive.clock
        Scavenger(DiskDrive(image, clock=clock)).scavenge()

        fs1 = FileSystem.mount(DiskDrive(image, clock=clock))
        t0 = clock.now_s
        assert fs1.open_file(name).read_data() == payload
        scattered_time = clock.now_s - t0

        Compactor(DiskDrive(image, clock=clock)).compact()
        fs2 = FileSystem.mount(DiskDrive(image, clock=clock))
        t0 = clock.now_s
        assert fs2.open_file(name).read_data() == payload
        compact_time = clock.now_s - t0
        assert scattered_time / compact_time > 3.0

    def test_empty_disk_compaction(self, fs, image):
        report = Compactor(fs.drive).compact()
        FileSystem.mount(DiskDrive(image))
        assert report.pages_moved == 0 or report.pages_moved > 0  # just completes

    def test_crash_mid_compaction_is_recoverable(self, scattered, image):
        """Kill the machine between moves; the ordinary scavenger resolves
        the duplicate absolute names and no user data is lost."""
        from repro.fs.scavenger import Scavenger

        # Snapshot mid-state by doing the plan manually: copy one page to its
        # target without freeing the source (exactly the crash window).
        source = next(s for s in image.sectors() if s.label.in_use and s.label.page_number > 1)
        free = next(s for s in image.sectors() if s.label.is_free)
        free.label = source.label
        free.value = list(source.value)
        report = Scavenger(DiskDrive(image)).scavenge()
        assert report.duplicate_pages_freed == 1
        fs = FileSystem.mount(DiskDrive(image))
        for name, data in scattered.payloads.items():
            assert fs.open_file(name).read_data() == data
