"""Tests for the recovery ladder, k-th page hints, consecutive access (3.6)."""

import pytest

from repro.errors import HintFailed
from repro.fs import ConsecutiveReader, FileSystem, FullName, HintLadder, KthPageHints
from repro.fs.names import FileId, make_serial


@pytest.fixture
def big_file(fs):
    file = fs.create_file("big.dat")
    file.write_data(bytes(range(256)) * 30)  # 7680 bytes, 16 pages
    return file


def stale(name):
    """A full name whose address hint is wrong (points at another sector)."""
    total = 720
    return name.with_address((name.address + 3) % total)


class TestLadderRungs:
    def test_direct_hit(self, fs, big_file):
        ladder = HintLadder(fs)
        contents = ladder.read_page("big.dat", big_file.page_name(5))
        assert contents.label.length == 512
        assert ladder.stats()["fs.ladder.rung.direct"] == 1

    def test_known_page_walk(self, fs, big_file):
        ladder = HintLadder(fs)
        ladder.read_page("big.dat", stale(big_file.page_name(5)), known=big_file.full_name())
        assert ladder.stats()["fs.ladder.rung.known-page"] == 1
        assert ladder.stats()["fs.ladder.link_follows"] == 5

    def test_directory_fv_lookup(self, fs, big_file):
        ladder = HintLadder(fs)
        ladder.read_page("big.dat", stale(big_file.page_name(5)))
        assert ladder.stats()["fs.ladder.rung.directory-fv"] == 1

    def test_directory_name_lookup(self, fs, big_file):
        """When even the FV is wrong (file re-created), the string name
        yields a new FV (rung 3)."""
        data = big_file.read_data()
        old_name = big_file.page_name(5)
        fs.delete_file("big.dat")
        replacement = fs.create_file("big.dat")
        replacement.write_data(data)
        ladder = HintLadder(fs)
        contents = ladder.read_page("big.dat", stale(old_name))
        assert ladder.stats()["fs.ladder.rung.directory-name"] == 1
        assert contents.name.fid == replacement.fid

    def test_scavenge_rung(self, fs, big_file, image, fault_plan):
        """When the directory entry itself is stale, only the Scavenger can
        help (rung 4)."""
        # Move the file's leader behind everyone's back by swapping sectors.
        leader_address = big_file.leader_address()
        free = next(s.header.address for s in image.sectors() if s.label.is_free)
        fault_plan.swap_sectors(leader_address, free)
        ladder = HintLadder(fs)
        contents = ladder.read_page("big.dat", stale(big_file.page_name(5)))
        assert ladder.stats()["fs.ladder.rung.scavenge"] == 1
        assert contents.value is not None

    def test_ladder_exhaustion_without_scavenge(self, fs, big_file, image, fault_plan):
        leader_address = big_file.leader_address()
        free = next(s.header.address for s in image.sectors() if s.label.is_free)
        fault_plan.swap_sectors(leader_address, free)
        ladder = HintLadder(fs, scavenge_allowed=False)
        with pytest.raises(HintFailed):
            ladder.read_page("big.dat", stale(big_file.page_name(5)))


class TestKthPageHints:
    def test_build_and_nearest(self, fs, big_file):
        kth = KthPageHints(big_file.fid, 4)
        kth.build(big_file)
        assert len(kth) == 5  # pages 0, 4, 8, 12, 16
        nearest = kth.nearest(6)
        assert nearest.page_number in (4, 8)

    def test_bounds_link_follows(self, fs, big_file):
        """Section 3.6: hints every k pages "reduce the number of links
        that must be followed" -- to at most ceil(k/2) from the nearest."""
        for k in (2, 4, 8):
            kth = KthPageHints(big_file.fid, k)
            kth.build(big_file)
            ladder = HintLadder(fs)
            ladder.read_page("big.dat", stale(big_file.page_name(9)), kth=kth)
            assert ladder.stats()["fs.ladder.rung.known-page"] == 1
            assert ladder.stats()["fs.ladder.link_follows"] <= (k + 1) // 2 + 1

    def test_only_multiples_kept(self, fs, big_file):
        kth = KthPageHints(big_file.fid, 4)
        kth.note(3, 99)
        assert len(kth) == 0
        kth.note(8, 99)
        assert len(kth) == 1

    def test_invalidate(self, fs, big_file):
        kth = KthPageHints(big_file.fid, 4)
        kth.build(big_file)
        kth.invalidate(4)
        assert len(kth) == 4

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KthPageHints(FileId(make_serial(1)), 0)

    def test_empty_nearest(self):
        kth = KthPageHints(FileId(make_serial(1)), 4)
        assert kth.nearest(3) is None


class TestConsecutiveReader:
    def test_consecutive_file_all_hits(self, fs):
        """After compaction a file reads by pure address arithmetic."""
        from repro.fs import Compactor

        file = fs.create_file("data.bin")
        file.write_data(b"z" * 4000)
        Compactor(fs.drive).compact()
        fs2 = FileSystem.mount(fs.drive)
        file = fs2.open_file("data.bin")
        assert file.leader.maybe_consecutive
        reader = ConsecutiveReader(fs2.page_io, file)
        for pn in range(1, file.last_page_number + 1):
            reader.read_page(pn)
        assert reader.stats.misses == 0
        assert reader.stats.hit_rate == 1.0

    def test_scattered_file_falls_back_safely(self, fs):
        """The label check catches every wrong guess; data is never wrong."""
        a = fs.create_file("a.bin")
        b = fs.create_file("b.bin")
        # Interleave appends so neither file is consecutive.
        for i in range(6):
            a.append_page([i], 2)
            b.append_page([i + 100], 2)
        reader = ConsecutiveReader(fs.page_io, a)
        # Appends landed at pages 2..7 (page 1 is the original empty page).
        values = [reader.read_page(pn).value[0] for pn in range(2, 8)]
        assert values == [0, 1, 2, 3, 4, 5]  # correct despite the misses
        assert reader.stats.misses > 0
