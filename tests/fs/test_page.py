"""Unit tests for page operations by full name."""

import pytest

from repro.disk import DiskDrive, DiskImage, Label, tiny_test_disk
from repro.disk.geometry import NIL
from repro.errors import HintFailed, PageNotFree
from repro.fs.names import FileId, FullName, make_serial
from repro.fs.page import PageContents, PageIO


@pytest.fixture
def pio():
    return PageIO(DiskDrive(DiskImage(tiny_test_disk())))


@pytest.fixture
def fid():
    return FileId(make_serial(1))


def chain(pio, fid, addresses):
    """Claim a linked chain of pages at the given addresses."""
    for pn, address in enumerate(addresses):
        nl = addresses[pn + 1] if pn + 1 < len(addresses) else NIL
        pl = addresses[pn - 1] if pn > 0 else NIL
        label = fid.label_for(pn, length=0 if nl == NIL else 512, next_link=nl, prev_link=pl)
        pio.claim(address, label, [pn * 100])
    return [FullName(fid, pn, address) for pn, address in enumerate(addresses)]


class TestGuardedOps:
    def test_read_verifies_identity(self, pio, fid):
        names = chain(pio, fid, [4, 9])
        contents = pio.read(names[1])
        assert contents.value[0] == 100
        assert contents.label.prev_link == 4

    def test_read_with_stale_hint_fails_cleanly(self, pio, fid):
        names = chain(pio, fid, [4, 9])
        stale = names[1].with_address(5)  # free sector
        with pytest.raises(HintFailed):
            pio.read(stale)

    def test_read_wrong_page_same_file_fails(self, pio, fid):
        """A hint pointing at a *different page of the same file* must be
        caught -- this is why page numbers are biased past the wildcard."""
        names = chain(pio, fid, [4, 9])
        crossed = names[0].with_address(9)  # page 0 hint -> page 1's sector
        with pytest.raises(HintFailed):
            pio.read(crossed)

    def test_write_only_touches_value(self, pio, fid):
        names = chain(pio, fid, [4, 9])
        old_label = pio.read_label(names[0])
        pio.write(names[0], [42])
        assert pio.read_label(names[0]) == old_label
        assert pio.read(names[0]).value[0] == 42

    def test_operations_require_hint(self, pio, fid):
        name = FullName(fid, 0)  # no address
        with pytest.raises(HintFailed):
            pio.read(name)
        with pytest.raises(HintFailed):
            pio.write(name, [1])


class TestClaimRelease:
    def test_claim_free_page(self, pio, fid):
        pio.claim(3, fid.label_for(0, length=512), [1, 2])
        assert pio.read(FullName(fid, 0, 3)).value[:2] == [1, 2]

    def test_claim_busy_page_raises(self, pio, fid):
        pio.claim(3, fid.label_for(0, length=512), [])
        other = FileId(make_serial(2))
        with pytest.raises(PageNotFree):
            pio.claim(3, other.label_for(0, length=512), [])

    def test_release_writes_ones(self, pio, fid):
        names = chain(pio, fid, [4, 9])
        pio.release(names[1])
        raw = pio.drive.read_sector(9)
        assert raw.label_object().is_free
        assert raw.value == [0xFFFF] * 256

    def test_release_wrong_name_fails(self, pio, fid):
        chain(pio, fid, [4, 9])
        wrong = FullName(FileId(make_serial(2)), 1, 9)
        with pytest.raises(HintFailed):
            pio.release(wrong)

    def test_rewrite_label_keeps_value(self, pio, fid):
        names = chain(pio, fid, [4])
        pio.rewrite_label(names[0], fid.label_for(0, length=99))
        contents = pio.read(names[0])
        assert contents.label.length == 99
        assert contents.value[0] == 0


class TestTraversal:
    def test_next_prev_names(self, pio, fid):
        names = chain(pio, fid, [4, 9, 14])
        middle = pio.read(names[1])
        assert middle.next_name == names[2]
        assert middle.prev_name == names[0]
        first = pio.read(names[0])
        assert first.prev_name is None
        last = pio.read(names[2])
        assert last.next_name is None and last.is_last

    def test_page_contents_length(self, pio, fid):
        names = chain(pio, fid, [4, 9])
        assert pio.read(names[0]).byte_length == 512
        assert pio.read(names[1]).byte_length == 0
