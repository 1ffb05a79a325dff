"""The word rule holds at every door words come in by.

A word is an ``int`` (an int subclass included) in 0..0xFFFF, as
:func:`repro.words.check_word` states it.  Each door below admits exactly
the values ``check_word`` admits and raises its own error class for the
rest.  A write a door refuses changes nothing: a file keeps its bytes and
its length and the allocation map its free count, a refused claim leaves
its sector free, and a raw header or label write leaves the sector's words
as they were.  A protocol frame is a
door for each header word and its payload; its request id must also be
nonzero, so 0 passes the rule and is then refused as an id.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import (Action, DiskDrive, DiskImage, Header, Label, PartCommand,
                        tiny_test_disk, value_words)
from repro.disk.sector import FREE_VALUE
from repro.errors import MessageTooLong, ProtocolError, StreamError
from repro.fs import FileSystem
from repro.fs.allocator import PageAllocator
from repro.fs.file import AltoFile
from repro.fs.names import FileId, make_serial
from repro.fs.page import PageIO
from repro.memory.core import Memory
from repro.net.network import TYPE_DATA, Packet
from repro.os.swat import Swat
from repro.server.protocol import OP_READ, OP_WRITE, ST_OK, Request, Response
from repro.streams import WORD_ITEMS, open_write_stream
from repro.world import Machine, ProgramRegistry, WorldEngine
from repro.world.statefile import check_message
from repro.words import check_word
from tests.word_strategies import bad, good


def file_door(write, data=b"eleven byte"):
    """*write(file, word)* on a fresh file holding *data* (11 bytes unless
    given); a refused write must leave the file and the allocation map as
    they were."""
    def enter(world, word):
        drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=30)))
        allocator = PageAllocator(drive.shape)
        file = AltoFile.create(PageIO(drive), allocator, FileId(make_serial(1)),
                               "f.dat", now=100)
        file.write_data(data)
        free = allocator.count_free()
        try:
            write(file, word)
        except ValueError:
            assert allocator.count_free() == free
            assert file.byte_length == len(data)
            assert file.read_data() == data
            raise
    return enter


#: A file whose page 1 is an interior page, for ``write_full_page``.
INTERIOR_PAGE_FILE = bytes(range(256)) * 2 + b"tail"

#: The label of page 0 of a second file, for the claim doors.
OTHER_LABEL = FileId(make_serial(2)).label_for(0, length=512)


def claim(file, word):
    """``PageIO.claim`` of a free sector; a refused claim leaves it free."""
    address = next(file.allocator.candidates())
    try:
        file.page_io.claim(address, OTHER_LABEL, [1, word])
    except ValueError:
        assert file.page_io.drive.image.sector(address).label.is_free
        raise


def raw_write(part, words):
    """A raw *part* write of *words* through ``DiskDrive.transfer``; a
    refused one must leave the sector's header and label as they were."""
    drive = DiskDrive(DiskImage(tiny_test_disk()))
    sector = drive.image.sector(3)
    before = list(sector.header_words()), list(sector.label_words())
    parts = {"header": PartCommand(Action.WRITE, Header(1, 3).pack()),
             "label": PartCommand(Action.WRITE, Label.free().pack()),
             "value": PartCommand(Action.WRITE, FREE_VALUE)}
    parts[part] = PartCommand(Action.WRITE, words)
    if part == "label":
        del parts["header"]  # a label write need not rewrite the header
    try:
        drive.transfer(3, **parts)
    except ValueError:
        sector = drive.image.sector(3)
        assert (sector.header_words(), sector.label_words()) == before
        raise


def request_id_door(build):
    """*build(word)* puts *word* in a frame's request id.  A word passes
    the rule, and 0 is then refused as an id (``ProtocolError``), not as a
    non-word."""
    def enter(world, word):
        try:
            build(word)
        except ProtocolError as exc:
            assert str(exc) == f"request id must be 1..65535, got {word}"
    return enter


@pytest.fixture(scope="module")
def world():
    """A machine, Swat on its saved world and a word stream, built once: a
    refused write changes none of them (an admitted one may)."""
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk(cylinders=60))))
    machine = Machine()
    WorldEngine(machine, fs, ProgramRegistry()).swapper.outload(
        "Swatee", "victim", "checkpointed")
    stream = open_write_stream(fs.create_file("words.dat"), items=WORD_ITEMS)
    return SimpleNamespace(machine=machine, swat=Swat(fs), stream=stream)


#: door -> (enter it with the world and one word, the error class it
#: refuses a non-word with)
DOORS = {
    "Packet": (lambda world, w: Packet("a", "b", TYPE_DATA, (1, w, 2)), ValueError),
    "Packet.relayed": (lambda world, w: Packet("a", "b", TYPE_DATA, (1, 2, 3)).relayed(
        "b", "c", at=1, word=w), ValueError),
    "Request request id": (request_id_door(lambda w: Request(OP_READ, w)),
                           ValueError),
    "Request handle": (lambda world, w: Request(OP_READ, 1, handle=w), ValueError),
    "Request arg0": (lambda world, w: Request(OP_READ, 1, arg0=w), ValueError),
    "Request arg1": (lambda world, w: Request(OP_READ, 1, arg1=w), ValueError),
    "Request payload": (lambda world, w: Request(OP_WRITE, 1, payload=(1, w, 2)),
                        ValueError),
    "Response request id": (request_id_door(lambda w: Response(ST_OK, w)),
                            ValueError),
    "Response handle": (lambda world, w: Response(ST_OK, 1, handle=w), ValueError),
    "Response result0": (lambda world, w: Response(ST_OK, 1, result0=w), ValueError),
    "Response result1": (lambda world, w: Response(ST_OK, 1, result1=w), ValueError),
    "Response payload": (lambda world, w: Response(ST_OK, 1, payload=(1, w, 2)),
                         ValueError),
    "value_words": (lambda world, w: value_words([1, w]), ValueError),
    "AltoFile.append_page": (file_door(lambda f, w: f.append_page([0x4142, w], 4)),
                             ValueError),
    "AltoFile.write_last_page": (file_door(lambda f, w: f.write_last_page([0x4142, w], 4)),
                                 ValueError),
    "AltoFile.write_full_page": (file_door(lambda f, w: f.write_full_page(
        1, [0x4142, w] + [0] * 254), INTERIOR_PAGE_FILE), ValueError),
    "PageIO.write": (file_door(lambda f, w: f.page_io.write(f.page_name(1), [0x4142, w])),
                     ValueError),
    "PageIO.claim": (file_door(claim), ValueError),
    "PageAllocator.allocate": (file_door(lambda f, w: f.allocator.allocate(
        f.page_io, OTHER_LABEL, [1, w])), ValueError),
    "raw header write": (lambda world, w: raw_write("header", [1, w]), ValueError),
    "raw label write": (lambda world, w: raw_write(
        "label", [0x8000, 1, w, 2, 0, 0xFFFF, 0xFFFF]), ValueError),
    "Header": (lambda world, w: Header(1, w), ValueError),
    "Label": (lambda world, w: Label(serial=make_serial(1), version=1, length=w),
              ValueError),
    "DiskImage": (lambda world, w: DiskImage(tiny_test_disk(), pack_id=w), ValueError),
    "Memory.write": (lambda world, w: Memory(16).write(3, w), ValueError),
    "Machine.set_register": (lambda world, w: world.machine.set_register(2, w),
                             ValueError),
    "check_message": (lambda world, w: check_message([1, w]), MessageTooLong),
    "Swat.write_word": (lambda world, w: world.swat.write_word(0x2000, w), ValueError),
    "Swat.write_register": (lambda world, w: world.swat.write_register(3, w),
                            ValueError),
    "word stream put": (lambda world, w: world.stream.put(w), StreamError),
}


def is_word(value) -> bool:
    try:
        check_word(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("door", sorted(DOORS))
@settings(deadline=None)
@given(word=st.one_of(good, bad))
def test_every_door_admits_exactly_the_words_check_word_admits(world, door, word):
    enter, error = DOORS[door]
    if is_word(word):
        enter(world, word)
    else:
        with pytest.raises(error):
            enter(world, word)
