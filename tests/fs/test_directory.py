"""Unit tests for directories: (string, full name) pairs, holes, graphs."""

import pytest

from repro.errors import DirectoryError, FileNotFound, NotADirectory
from repro.fs.directory import DirEntry, Directory, ENTRY_FILE
from repro.fs.names import FileId, FullName, make_serial
from repro.words import string_to_words


@pytest.fixture
def directory(fs):
    return fs.create_directory("TestDir")


def fake_full_name(counter=5, address=40):
    return FullName(FileId(make_serial(counter)), 0, address)


class TestEntries:
    def test_empty(self, directory):
        assert directory.entries() == []
        assert len(directory) == 0

    def test_add_and_lookup(self, directory):
        directory.add("alpha", fake_full_name(5))
        directory.add("beta", fake_full_name(6))
        assert directory.lookup("alpha").full_name == fake_full_name(5)
        assert directory.names() == ["alpha", "beta"]
        assert "alpha" in directory

    def test_lookup_is_case_insensitive_but_preserving(self, directory):
        directory.add("MixedCase.Txt", fake_full_name())
        assert directory.lookup("mixedcase.txt") is not None
        assert directory.names() == ["MixedCase.Txt"]

    def test_duplicate_rejected(self, directory):
        directory.add("x", fake_full_name(5))
        with pytest.raises(DirectoryError):
            directory.add("X", fake_full_name(6))

    def test_replace(self, directory):
        directory.add("x", fake_full_name(5))
        directory.add("x", fake_full_name(6), replace=True)
        assert directory.lookup("x").fid.serial == make_serial(6)
        assert len(directory) == 1

    def test_require(self, directory):
        with pytest.raises(FileNotFound):
            directory.require("ghost")


class TestRemovalAndHoles:
    def test_remove(self, directory):
        directory.add("x", fake_full_name(5))
        removed = directory.remove("x")
        assert removed.name == "x"
        assert directory.lookup("x") is None
        with pytest.raises(FileNotFound):
            directory.remove("x")

    def test_hole_is_reused(self, directory):
        directory.add("first", fake_full_name(5))
        directory.add("second", fake_full_name(6))
        size_before = directory.file.byte_length
        directory.remove("first")
        directory.add("third", fake_full_name(7))  # same-size entry fits the hole
        assert directory.file.byte_length == size_before
        assert directory.names() == ["third", "second"]

    def test_smaller_entry_splits_hole(self, directory):
        directory.add("a-rather-long-entry-name", fake_full_name(5))
        directory.add("tail", fake_full_name(6))
        directory.remove("a-rather-long-entry-name")
        directory.add("tiny", fake_full_name(7))
        assert set(directory.names()) == {"tiny", "tail"}

    def test_null_entries(self, directory):
        directory.add("keep", fake_full_name(5))
        directory.add("drop1", fake_full_name(6))
        directory.add("drop2", fake_full_name(7))
        nulled = directory.null_entries(lambda e: e.name.startswith("drop"))
        assert nulled == 2
        assert directory.names() == ["keep"]


class TestHints:
    def test_update_hint(self, directory):
        directory.add("x", fake_full_name(5, address=40))
        directory.update_hint("x", 77)
        assert directory.lookup("x").full_name.address == 77

    def test_update_hint_missing(self, directory):
        with pytest.raises(FileNotFound):
            directory.update_hint("ghost", 1)


class TestStructure:
    def test_not_a_directory(self, fs):
        plain = fs.create_file("plain.dat")
        with pytest.raises(NotADirectory):
            Directory(plain)

    def test_corrupt_data_detected(self, directory):
        directory.add("x", fake_full_name(5))
        raw = bytearray(directory.file.read_data())
        raw[0] = 0x09  # nonsense entry type
        directory.file.write_data(bytes(raw))
        with pytest.raises(DirectoryError):
            directory.entries()

    @pytest.mark.parametrize("serial_high,version", [(0x0000, 1), (0x4000, 0)])
    def test_corrupt_entry_file_id_is_a_directory_error(self, serial_high, version):
        """A serial without the ordinary-serial flag, or version 0, is a
        corrupt entry -- not a ValueError escaping from ``FileId``."""
        words = ([(ENTRY_FILE << 8) | 7, serial_high, 0x0042, version, 77]
                 + string_to_words("zz"))
        with pytest.raises(DirectoryError, match="corrupt entry file id at word 0"):
            list(Directory._parse(words))

    def test_entry_pack_round_trip(self):
        entry = DirEntry("some-name.txt", fake_full_name(9, address=123))
        words = entry.pack()
        assert words[0] & 0xFF == len(words)

    def test_directory_graph(self, fs):
        """Section 3.4: "it is possible to have a tree, or indeed an
        arbitrary directed graph, of directories" -- including cycles."""
        a = fs.create_directory("A")
        b = fs.create_directory("B", parent=a)
        # Close the cycle: B points back at A.
        b.add("A", a.full_name())
        # And a file appears in BOTH directories (multi-parent).
        shared = fs.create_file("shared.txt", directory=a)
        b.add("shared.txt", shared.full_name())
        assert fs.open_file("shared.txt", directory=a).read_data() == b""
        assert fs.open_file("shared.txt", directory=b).read_data() == b""
        back = fs.open_directory("A", parent=b)
        assert back.lookup("B") is not None

    def test_large_directory_spans_pages(self, directory):
        for i in range(60):
            directory.add(f"file-{i:03d}.extension", fake_full_name(5 + i))
        assert directory.file.page_count() > 2
        assert len(directory) == 60
        assert directory.lookup("file-059.extension") is not None


# -- parsing arbitrary words (property) ---------------------------------------

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


words16 = st.integers(0, 0xFFFF)

#: A well-formed file entry around arbitrary serial, version and hint words.
file_entries = st.tuples(
    words16, words16, words16, words16,
    st.text(alphabet="abcXYZ.-_09", min_size=1, max_size=9),
).map(lambda t: [(ENTRY_FILE << 8) | (5 + len(string_to_words(t[4]))), *t[:4]]
      + string_to_words(t[4]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(file_entries, st.lists(words16, max_size=8)), max_size=5))
def test_parse_of_any_words_raises_only_directory_error(chunks):
    """Whatever a torn or decayed page holds, parsing it either yields
    entries or raises ``DirectoryError`` -- the one failure every repair
    path (the scavenger, fsck) is written to catch."""
    try:
        list(Directory._parse([word for chunk in chunks for word in chunk]))
    except DirectoryError:
        pass
