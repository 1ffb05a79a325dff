"""Disk file streams: buffered byte/word items over an AltoFile.

Section 2: "the procedure to create a stream object of concrete type 'disk
file stream' takes as parameters two other objects: a disk object which
implements operations to access the storage on which the file resides, and
a zone object which is used to acquire and release working storage for the
stream."  Our factory takes the same parameters (the file already carries
its disk; a zone may be supplied for buffer accounting, defaulted to none,
matching the defaulting described in section 5.2).

A read stream buffers one page; ``set_position`` gives random access.  A
write stream builds the file strictly sequentially: the partial tail page
lives in the buffer and is committed with the change-length operation at
close, so a crash mid-stream loses at most the unflushed tail while the
file structure stays consistent.
"""

from __future__ import annotations

from typing import Optional

from ..errors import EndOfStream, StreamError
from ..fs.file import AltoFile, FULL_PAGE
from ..words import PAGE_DATA_BYTES, bytes_to_words, check_word, words_to_bytes
from .base import Stream

BYTE_ITEMS = "byte"
WORD_ITEMS = "word"
_ITEM_SIZES = {BYTE_ITEMS: 1, WORD_ITEMS: 2}


# ----------------------------------------------------------------------------
# Read streams
# ----------------------------------------------------------------------------


def open_read_stream(
    file: AltoFile,
    items: str = BYTE_ITEMS,
    zone=None,
    update_dates: bool = True,
    now: Optional[int] = None,
) -> Stream:
    """A stream producing the file's data as bytes (ints) or words."""
    item_size = _item_size(items)

    def _load(stream: Stream, page_number: int) -> None:
        contents = stream.state["file"].read_page(page_number)
        stream.state["buffer"] = words_to_bytes(contents.value, nbytes=contents.label.length)
        stream.state["buffer_pn"] = page_number

    def get(stream: Stream):
        position = stream.state["position"]
        if position >= stream.state["length"]:
            raise EndOfStream(f"end of {stream.state['file'].name}")
        page_number = position // PAGE_DATA_BYTES + 1
        if stream.state["buffer_pn"] != page_number:
            _load(stream, page_number)
        offset = position % PAGE_DATA_BYTES
        buffer = stream.state["buffer"]
        stream.state["position"] = position + item_size
        if item_size == 1:
            return buffer[offset]
        return (buffer[offset] << 8) | buffer[offset + 1]

    def endof(stream: Stream) -> bool:
        return stream.state["position"] >= stream.state["length"]

    def reset(stream: Stream) -> None:
        stream.state["position"] = 0

    def close(stream: Stream) -> None:
        if update_dates:
            file = stream.state["file"]
            stamp = now if now is not None else _file_now(file)
            file.touch(read=stamp)

    stream = Stream(
        get=get,
        endof=endof,
        reset=reset,
        close=close,
        file=file,
        zone=zone,
        position=0,
        length=file.byte_length,
        buffer=b"",
        buffer_pn=-1,
    )
    stream.set_operation("read_position", lambda s: s.state["position"])
    stream.set_operation("set_position", _set_read_position(item_size))
    stream.set_operation("length", lambda s: s.state["length"])
    return stream


def _set_read_position(item_size: int):
    def set_position(stream: Stream, position: int) -> None:
        if position % item_size:
            raise StreamError(f"position {position} not aligned to {item_size}-byte items")
        stream.state["position"] = max(0, min(position, stream.state["length"]))

    return set_position


# ----------------------------------------------------------------------------
# Write streams
# ----------------------------------------------------------------------------


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
    committed at close (the change-length label operation).
    """
    item_size = _item_size(items)
    if append:
        tail = file.read_page(file.last_page_number)
        buffer = bytearray(words_to_bytes(tail.value, nbytes=tail.label.length))
    else:
        file.write_data(b"")
        buffer = bytearray()

    def _flush_full(stream: Stream) -> None:
        """Commit the buffered (now full) tail page and start a new one."""
        file = stream.state["file"]
        pn = file.last_page_number
        file.append_page([], 0)  # promotes page pn to a full interior page
        file.write_full_page(pn, bytes_to_words(bytes(stream.state["buffer"])))
        stream.state["buffer"] = bytearray()

    def put(stream: Stream, item: int) -> None:
        buffer = stream.state["buffer"]
        if item_size == 1:
            if not 0 <= item <= 0xFF:
                raise StreamError(f"byte item out of range: {item}")
            buffer.append(item)
        else:
            try:
                check_word(item, "word item")
            except ValueError as exc:
                raise StreamError(str(exc)) from exc
            buffer.append(item >> 8)
            buffer.append(item & 0xFF)
        if len(buffer) >= PAGE_DATA_BYTES:
            _flush_full(stream)

    def reset(stream: Stream) -> None:
        """Standard initial state for a write stream: an empty file."""
        stream.state["file"].write_data(b"")
        stream.state["buffer"] = bytearray()

    def close(stream: Stream) -> None:
        file = stream.state["file"]
        tail = bytes(stream.state["buffer"])
        file.write_last_page(bytes_to_words(tail), length=len(tail))
        stamp = now if now is not None else _file_now(file)
        file.touch(written=stamp)

    stream = Stream(
        put=put,
        reset=reset,
        endof=lambda s: False,
        close=close,
        file=file,
        zone=zone,
        buffer=buffer,
    )
    stream.set_operation("flush", lambda s: None if len(s.state["buffer"]) < PAGE_DATA_BYTES else _flush_full(s))
    stream.set_operation(
        "write_position",
        lambda s: (s.state["file"].last_page_number - 1) * PAGE_DATA_BYTES + len(s.state["buffer"]),
    )
    return stream


# ----------------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------------


def _item_size(items: str) -> int:
    if items not in _ITEM_SIZES:
        raise StreamError(f"unknown item kind {items!r} (use 'byte' or 'word')")
    return _ITEM_SIZES[items]


def _file_now(file: AltoFile) -> int:
    return round(file.page_io.drive.clock.now_s)


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
