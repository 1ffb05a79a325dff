"""Disk file streams: buffered byte/word items over an AltoFile.

Section 2: "the procedure to create a stream object of concrete type 'disk
file stream' takes as parameters two other objects: a disk object which
implements operations to access the storage on which the file resides, and
a zone object which is used to acquire and release working storage for the
stream."  Our factory takes the same parameters (the file already carries
its disk; a zone may be supplied for buffer accounting, defaulted to none,
matching the defaulting described in section 5.2).

There is one disk file stream: a byte position and a buffer that holds
one page.  Moving to another page writes a changed buffer back, then reads
the new page unless it starts at or past the end of the file (it holds no
bytes yet).  A page that fills is written back at once.  Three openers give
it its three types, and each installs only the slots its type defines
("normally only one of [Get/Put] is defined"):

- a read stream gets bytes or words; ``set_position`` gives random access.
- a write stream puts bytes or words at the end of the file, which it
  truncates first unless it appends.  The partial tail page is committed
  with the change-length operation at close or ``flush``, so a crash
  mid-stream loses at most the unflushed tail while the file structure
  stays consistent.
- an update stream gets and puts bytes anywhere, as the editor of section
  3.6 rewrites its scratch files, and grows the file by putting at the
  end.  The paper's files have no holes, so a position past the end is
  refused.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> file = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk()))).create_file("a.txt")
>>> for text, append in (("Alto", False), ("!", True)):
...     with open_write_stream(file, append=append) as stream:
...         write_string(stream, text)
>>> read_string(open_read_stream(file))
'Alto!'
>>> [hex(word) for word in open_read_stream(file, items=WORD_ITEMS)]
['0x416c', '0x746f', '0x2100']
"""

from __future__ import annotations

from typing import Optional

from ..errors import EndOfStream, StreamError
from ..fs.file import AltoFile
from ..words import PAGE_DATA_BYTES, bytes_to_words, check_word, words_to_bytes
from .base import Stream

BYTE_ITEMS = "byte"
WORD_ITEMS = "word"
_ITEM_SIZES = {BYTE_ITEMS: 1, WORD_ITEMS: 2}


# ----------------------------------------------------------------------------
# The openers
# ----------------------------------------------------------------------------


def open_read_stream(
    file: AltoFile,
    items: str = BYTE_ITEMS,
    zone=None,
    update_dates: bool = True,
    now: Optional[int] = None,
) -> Stream:
    """A stream producing the file's data as bytes (ints) or words.

    A file of odd length ends in half a word; a word stream returns it
    with a zero low byte, as :func:`~repro.words.bytes_to_words` pads it.
    """

    def close(stream: Stream) -> None:
        if update_dates:
            file.touch(read=_stamp(file, now))

    return _disk_stream(file, items, zone, get=_get, endof=_endof, reset=_rewind, close=close,
                        read_position=_position, set_position=_set_read_position, length=_length)


def open_write_stream(
    file: AltoFile,
    items: str = BYTE_ITEMS,
    append: bool = False,
    zone=None,
    now: Optional[int] = None,
) -> Stream:
    """A stream consuming bytes/words into the file.

    By default the file is truncated; with ``append`` writing continues
    from the current end.  The tail page is buffered in memory and
    committed at close or ``flush`` (the change-length label operation).
    """

    def reset(stream: Stream) -> None:
        """Standard initial state for a write stream: an empty file."""
        file.write_data(b"")
        stream.state.update(position=0, length=0, page=bytearray(), page_number=-1, dirty=False)

    def close(stream: Stream) -> None:
        # The tail page is committed even when it is empty or unchanged.
        _hold(stream, stream.state["length"])
        stream.state["dirty"] = True
        _write_back(stream)
        file.touch(written=_stamp(file, now))

    stream = _disk_stream(file, items, zone, put=_put, endof=lambda s: False, reset=reset, close=close,
                          flush=_write_back, write_position=_position)
    if append:
        # The tail page is read only when it holds bytes.
        stream.state["position"] = file.byte_length
        _hold(stream, file.byte_length)
    else:
        reset(stream)
    return stream


def open_update_stream(file: AltoFile, now: Optional[int] = None) -> Stream:
    """A byte-item stream supporting get, put, and set_position anywhere.

    ``get`` past the end raises :class:`EndOfStream`; ``put`` at the end
    extends the file.  ``length``/``read_position``/``set_position``/
    ``flush`` are provided as non-standard operations.
    """

    def close(stream: Stream) -> None:
        _write_back(stream)
        file.touch(written=_stamp(file, now))

    return _disk_stream(file, BYTE_ITEMS, None, get=_get, put=_put, endof=_endof, reset=_rewind,
                        close=close, set_position=_set_update_position, read_position=_position,
                        length=_length, flush=_write_back)


def _disk_stream(file: AltoFile, items: str, zone, **operations) -> Stream:
    """A disk file stream at byte 0 of *file*, its buffer empty."""
    if items not in _ITEM_SIZES:
        raise StreamError(f"unknown item kind {items!r} (use 'byte' or 'word')")
    stream = Stream(file=file, zone=zone, size=_ITEM_SIZES[items], position=0,
                    length=file.byte_length, page=bytearray(), page_number=-1, dirty=False)
    for name, operation in operations.items():
        stream.set_operation(name, operation)
    return stream


# ----------------------------------------------------------------------------
# The page buffer
# ----------------------------------------------------------------------------


def _hold(stream: Stream, position: int) -> bytearray:
    """The buffer, made to hold the page of byte *position*."""
    state = stream.state
    page_number = position // PAGE_DATA_BYTES + 1
    if state["page_number"] != page_number:
        _write_back(stream)
        starts_before_end = (page_number - 1) * PAGE_DATA_BYTES < state["length"]
        state["page"] = _page_bytes(state["file"], page_number) if starts_before_end else bytearray()
        state["page_number"] = page_number
    return state["page"]


def _page_bytes(file: AltoFile, page_number: int) -> bytearray:
    contents = file.read_page(page_number)
    return bytearray(words_to_bytes(contents.value, nbytes=contents.label.length))


def _write_back(stream: Stream) -> None:
    """Write a changed buffer back to its page."""
    state = stream.state
    if not state["dirty"]:
        return
    file, page_number, page = state["file"], state["page_number"], state["page"]
    if page_number < file.last_page_number:
        file.write_full_page(page_number, bytes_to_words(page))
    elif len(page) < PAGE_DATA_BYTES:
        file.write_last_page(bytes_to_words(page), length=len(page))
    else:
        file.append_page([], 0)  # promotes the page to a full interior page
        file.write_full_page(page_number, bytes_to_words(page))
    state["dirty"] = False


# ----------------------------------------------------------------------------
# The slots
# ----------------------------------------------------------------------------


def _get(stream: Stream) -> int:
    state = stream.state
    position, size = state["position"], state["size"]
    if position >= state["length"]:
        raise EndOfStream(f"end of {state['file'].name}")
    offset = position % PAGE_DATA_BYTES
    item = _hold(stream, position)[offset:offset + size].ljust(size, b"\0")
    state["position"] = min(position + size, state["length"])
    return int.from_bytes(item, "big")


def _put(stream: Stream, item: int) -> None:
    if stream.state["size"] == 1:
        if not 0 <= item <= 0xFF:
            raise StreamError(f"byte item out of range: {item}")
        return _put_byte(stream, item)
    try:
        check_word(item, "word item")
    except ValueError as exc:
        raise StreamError(str(exc)) from exc
    _put_byte(stream, item >> 8)
    _put_byte(stream, item & 0xFF)


def _put_byte(stream: Stream, byte: int) -> None:
    state = stream.state
    position = state["position"]
    offset = position % PAGE_DATA_BYTES
    _hold(stream, position)[offset:offset + 1] = (byte,)  # overwrites, or grows the page
    state["dirty"] = True
    state["position"] = position + 1
    state["length"] = max(state["length"], position + 1)
    if offset == PAGE_DATA_BYTES - 1:
        _write_back(stream)


def _endof(stream: Stream) -> bool:
    return stream.state["position"] >= stream.state["length"]


def _rewind(stream: Stream) -> None:
    stream.state["position"] = 0


def _position(stream: Stream) -> int:
    return stream.state["position"]


def _length(stream: Stream) -> int:
    return stream.state["length"]


def _set_read_position(stream: Stream, position: int) -> None:
    """Move to *position*, clamped to the file; it must start an item."""
    size = stream.state["size"]
    if position % size:
        raise StreamError(f"position {position} not aligned to {size}-byte items")
    stream.state["position"] = max(0, min(position, stream.state["length"]))


def _set_update_position(stream: Stream, position: int) -> None:
    """Move to *position*; past the end is refused, as files have no holes."""
    if not 0 <= position <= stream.state["length"]:
        raise StreamError(f"position {position} outside [0, {stream.state['length']}]")
    stream.state["position"] = position


def _stamp(file: AltoFile, now: Optional[int]) -> int:
    return now if now is not None else round(file.page_io.drive.clock.now_s)


def write_string(stream: Stream, text: str) -> None:
    """Put each character code of *text* (byte streams only)."""
    for ch in text.encode("ascii"):
        stream.put(ch)


def read_string(stream: Stream, count: Optional[int] = None) -> str:
    """Get up to *count* bytes (or all remaining) as a string."""
    out = bytearray()
    while (count is None or len(out) < count) and not stream.endof():
        out.append(stream.get())
    return out.decode("ascii", errors="replace")
