"""Tests for the user-written journaled directory (section 3.5's sketch).

The base system loses directory *naming* information when a directory is
destroyed (files survive via leader names, but which-directory-held-what is
gone).  The journal + snapshot extension recovers exactly that.
"""

import pytest

from repro.disk import DiskDrive, FaultPlan
from repro.fs import FileSystem, Scavenger
from repro.fs.journal import (
    JournaledDirectory,
    JournalRecord,
    OP_ADD,
    OP_REMOVE,
    recover_directory,
)


@pytest.fixture
def journaled(fs):
    directory = fs.create_directory("Projects")
    return fs, JournaledDirectory.wrap(fs, directory)


def make_files(fs, names, directory=None):
    out = {}
    for name in names:
        file = fs.create_file(name, directory=directory) if directory else fs.create_file(name)
        file.write_data(f"contents of {name}".encode())
        out[name] = file
    return out


class TestJournaling:
    def test_mutations_are_logged(self, journaled):
        fs, jd = journaled
        files = make_files(fs, ["a.txt", "b.txt"])
        jd.add("a.txt", files["a.txt"].full_name())
        jd.add("b.txt", files["b.txt"].full_name())
        jd.remove("a.txt")
        ops = [(r.op, r.name) for r in jd.journal_records()]
        assert ops == [(OP_ADD, "a.txt"), (OP_ADD, "b.txt"), (OP_REMOVE, "a.txt")]

    def test_reads_pass_through(self, journaled):
        fs, jd = journaled
        files = make_files(fs, ["x.txt"])
        jd.add("x.txt", files["x.txt"].full_name())
        assert jd.lookup("x.txt") is not None
        assert jd.names() == ["x.txt"]
        assert len(jd.entries()) == 1

    def test_snapshot_truncates_journal(self, journaled):
        fs, jd = journaled
        files = make_files(fs, ["x.txt"])
        jd.add("x.txt", files["x.txt"].full_name())
        captured = jd.snapshot()
        assert captured == 1
        assert jd.journal_records() == []

    def test_replay_matches_directory(self, journaled):
        fs, jd = journaled
        files = make_files(fs, ["a.txt", "b.txt", "c.txt"])
        for name, file in files.items():
            jd.add(name, file.full_name())
        jd.snapshot()
        jd.remove("b.txt")
        files2 = make_files(fs, ["d.txt"])
        jd.add("d.txt", files2["d.txt"].full_name())
        replayed = {name for name, _fn in jd.replay_state()}
        assert replayed == {"a.txt", "c.txt", "d.txt"}
        assert replayed == set(jd.names())


class TestRecovery:
    def test_destroyed_directory_fully_recovered(self, fs, image):
        """The base scavenger rescues the files but forgets the directory's
        naming; the journal brings the directory itself back."""
        directory = fs.create_directory("Projects")
        jd = JournaledDirectory.wrap(fs, directory)
        files = make_files(fs, ["plan.txt", "notes.txt", "budget.txt"])
        for name, file in files.items():
            jd.add(name, file.full_name())
        jd.snapshot()
        jd.remove("budget.txt")
        extra = make_files(fs, ["extra.txt"])
        jd.add("extra.txt", extra["extra.txt"].full_name())
        fs.sync()

        # Destroy the directory file utterly.
        plan = FaultPlan(image, seed=5)
        for pn in range(directory.file.page_count()):
            plan.scramble_label(directory.file.page_name(pn).address)

        Scavenger(DiskDrive(image)).scavenge()
        fs2 = FileSystem.mount(DiskDrive(image))
        rebuilt = recover_directory(fs2, "Projects")
        assert set(rebuilt.names()) == {"plan.txt", "notes.txt", "extra.txt"}
        # Entries resolve to the right files (hints refreshed or walked).
        for name in rebuilt.names():
            entry = rebuilt.require(name)
            file = fs2.open_entry(entry)
            assert file.read_data() == f"contents of {name}".encode()

    def test_torn_journal_tail_is_ignored(self, journaled):
        fs, jd = journaled
        files = make_files(fs, ["ok.txt"])
        jd.add("ok.txt", files["ok.txt"].full_name())
        # Append garbage (a torn final record).
        data = jd.journal_file.read_data()
        jd.journal_file.write_data(data + b"\x00\x63garbage-bytes")
        records = jd.journal_records()
        assert [r.name for r in records] == ["ok.txt"]

    def test_recover_without_prior_directory_creates_one(self, fs):
        directory = fs.create_directory("Temp")
        jd = JournaledDirectory.wrap(fs, directory)
        files = make_files(fs, ["t.txt"])
        jd.add("t.txt", files["t.txt"].full_name())
        # Delete the directory file outright (user error).
        fs.delete_file("Temp")
        rebuilt = recover_directory(fs, "Temp")
        assert rebuilt.names() == ["t.txt"]


class TestRecordFormat:
    def test_pack_parse_round_trip(self, fs):
        from repro.fs.journal import _parse_records

        file = fs.create_file("z.txt")
        record = JournalRecord(OP_ADD, "z.txt", file.full_name())
        parsed = _parse_records(record.pack())
        assert parsed == [record]
