"""Directories: files of (string, full name) pairs (section 3.4).

"This is done by a file called a directory, which contains a set of pairs
(string, full name).  A file may appear in any number of directories.
Since there is nothing special about a directory from the point of view of
the file system, it is possible to have a tree, or indeed an arbitrary
directed graph, of directories."

A directory is an ordinary :class:`~repro.fs.file.AltoFile` whose serial
number carries the reserved directory bit (so the scavenger can find every
directory by the label sweep alone).  Its data is a sequence of word-aligned
entries:

* word 0:  ``type << 8 | length`` -- entry type (1 = file, 0 = hole) and
  total entry length in words;
* words 1-2: file serial number (absolute);
* word 3:  file version (absolute);
* word 4:  leader-page disk address (a hint, fixed up by the scavenger);
* words 5+: the entry name, BCPL-coded.

Holes left by deletions are reused by later insertions.  Names are compared
case-insensitively (as on the Alto) but stored as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..disk.geometry import NIL
from ..errors import DirectoryError, FileNotFound, NotADirectory
from ..words import (
    bytes_to_words,
    from_double_word,
    string_to_words,
    to_double_word,
    words_to_bytes,
    words_to_string,
)
from .file import AltoFile
from .leader import MAX_NAME_LENGTH, check_name
from .names import FileId, FullName

ENTRY_FILE = 1
ENTRY_HOLE = 0

_FIXED_ENTRY_WORDS = 5  # header + serial(2) + version + address


@dataclass(frozen=True)
class DirEntry:
    """One (string, full name) pair."""

    name: str
    full_name: FullName

    @property
    def fid(self) -> FileId:
        return self.full_name.fid

    def pack(self) -> List[int]:
        name_words = string_to_words(self.name, max_bytes=MAX_NAME_LENGTH)
        length = _FIXED_ENTRY_WORDS + len(name_words)
        high, low = to_double_word(self.fid.serial)
        return [
            (ENTRY_FILE << 8) | length,
            high,
            low,
            self.fid.version,
            self.full_name.address,
        ] + name_words


def _hole(length: int) -> List[int]:
    return [(ENTRY_HOLE << 8) | length] + [0] * (length - 1)


class Directory:
    """Entry operations over one directory file."""

    def __init__(self, file: AltoFile) -> None:
        if not file.fid.is_directory:
            raise NotADirectory(f"file {file.name!r} (serial {file.fid.serial:#x}) is not a directory")
        self.file = file

    @property
    def name(self) -> str:
        return self.file.name

    def full_name(self) -> FullName:
        return self.file.full_name()

    # ------------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------------

    #: Parse results keyed by the directory file's exact content bytes.
    #: Every query re-reads the directory through the drive (that is the
    #: simulated system's behaviour and cost model, and stays untouched),
    #: but re-parsing identical bytes into the same immutable DirEntry
    #: objects is pure computation, so it is memoized.  Keying on content
    #: makes invalidation automatic; the cap bounds memory on churn.
    _parse_cache: dict = {}
    _PARSE_CACHE_MAX = 128

    def _snapshot(self):
        """``(words, parsed)`` for the current directory content: the raw
        word tuple and the ``(offset, length, entry)`` triples."""
        data = self.file.read_data()
        if len(data) % 2:
            raise DirectoryError(f"directory {self.name!r} has odd byte length {len(data)}")
        cached = Directory._parse_cache.get(data)
        if cached is None:
            words = bytes_to_words(data)
            cached = (tuple(words), tuple(Directory._parse(words)))
            if len(Directory._parse_cache) >= Directory._PARSE_CACHE_MAX:
                Directory._parse_cache.clear()
            Directory._parse_cache[data] = cached
        return cached

    def _words(self) -> List[int]:
        return list(self._snapshot()[0])

    def _store(self, words: List[int]) -> None:
        self.file.write_data(words_to_bytes(words))

    #: Constructed DirEntry objects keyed by their exact entry words.  An
    #: entry's words are stable while the directory grows and shrinks
    #: around it, so the (pure, immutable) DirEntry can be reused across
    #: re-parses of every later content revision.  Identical words always
    #: construct an identical entry; corrupt words are never cached (they
    #: raise during construction).
    _entry_cache: dict = {}
    _ENTRY_CACHE_MAX = 4096

    @staticmethod
    def _parse(words: List[int]) -> Iterator:
        """Yield (offset, length, entry-or-None) over the raw entry list."""
        cache = Directory._entry_cache
        offset = 0
        while offset < len(words):
            header = words[offset]
            etype, length = header >> 8, header & 0xFF
            if length < 1 or offset + length > len(words):
                raise DirectoryError(f"corrupt directory entry at word {offset}")
            if etype == ENTRY_FILE:
                key = tuple(words[offset : offset + length])
                entry = cache.get(key)
                if entry is None:
                    if length < _FIXED_ENTRY_WORDS + 1:
                        raise DirectoryError(f"file entry too short at word {offset}")
                    serial = from_double_word(words[offset + 1], words[offset + 2])
                    version = words[offset + 3]
                    address = words[offset + 4]
                    try:
                        name = words_to_string(words[offset + 5 : offset + length])
                    except ValueError as exc:
                        raise DirectoryError(f"corrupt entry name at word {offset}: {exc}") from exc
                    try:
                        fid = FileId(serial, version)
                    except ValueError as exc:
                        raise DirectoryError(f"corrupt entry file id at word {offset}: {exc}") from exc
                    entry = DirEntry(name, FullName(fid, 0, address))
                    if len(cache) >= Directory._ENTRY_CACHE_MAX:
                        cache.clear()
                    cache[key] = entry
            elif etype == ENTRY_HOLE:
                entry = None
            else:
                raise DirectoryError(f"unknown entry type {etype} at word {offset}")
            yield offset, length, entry
            offset += length

    # ------------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------------

    def entries(self) -> List[DirEntry]:
        """All live entries, in directory order."""
        return [entry for _o, _l, entry in self._snapshot()[1] if entry is not None]

    def lookup(self, name: str) -> Optional[DirEntry]:
        """Find an entry by name (case-insensitive); None when absent."""
        wanted = name.lower()
        for _o, _l, entry in self._snapshot()[1]:
            if entry is not None and entry.name.lower() == wanted:
                return entry
        return None

    def require(self, name: str) -> DirEntry:
        entry = self.lookup(name)
        if entry is None:
            raise FileNotFound(f"{name!r} not in directory {self.name!r}")
        return entry

    def names(self) -> List[str]:
        return [entry.name for entry in self.entries()]

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def __len__(self) -> int:
        return len(self.entries())

    # ------------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------------

    def add(self, name: str, full_name: FullName, replace: bool = False) -> None:
        """Insert (name, full name), reusing a hole when one fits.

        With ``replace`` an existing same-name entry is overwritten;
        otherwise a duplicate name raises :class:`DirectoryError`.
        """
        check_name(name)
        raw, parsed = self._snapshot()
        words = list(raw)
        packed = DirEntry(name, full_name).pack()
        wanted = name.lower()

        existing = None
        best_hole = None
        for offset, length, entry in parsed:
            if entry is not None and entry.name.lower() == wanted:
                existing = (offset, length)
            elif entry is None and length >= len(packed) and best_hole is None:
                best_hole = (offset, length)

        if existing is not None:
            if not replace:
                raise DirectoryError(f"{name!r} already in directory {self.name!r}")
            offset, length = existing
            words[offset : offset + length] = _hole(length)
            # Fall through to reinsert (the hole just made may be reused;
            # the words were mutated, so reparse rather than reuse `parsed`).
            return self._insert(words, packed)
        return self._insert(words, packed, parsed)

    def _insert(self, words: List[int], packed: List[int], parsed=None) -> None:
        for offset, length, entry in (self._parse(words) if parsed is None else parsed):
            if entry is None and length >= len(packed):
                remainder = length - len(packed)
                if remainder == 1:
                    # A 1-word hole cannot exist (header-only is fine, keep it).
                    words[offset : offset + length] = packed + _hole(1)
                elif remainder > 0:
                    words[offset : offset + length] = packed + _hole(remainder)
                else:
                    words[offset : offset + length] = packed
                return self._store(words)
        self._store(words + packed)

    def remove(self, name: str) -> DirEntry:
        """Remove an entry by name; returns it.  The space becomes a hole."""
        raw, parsed = self._snapshot()
        wanted = name.lower()
        for offset, length, entry in parsed:
            if entry is not None and entry.name.lower() == wanted:
                words = list(raw)
                words[offset : offset + length] = _hole(length)
                self._store(words)
                return entry
        raise FileNotFound(f"{name!r} not in directory {self.name!r}")

    def update_hint(self, name: str, address: int) -> None:
        """Fix the leader-address hint of an entry in place (the scavenger's
        "fixing up the address if necessary", section 3.5)."""
        raw, parsed = self._snapshot()
        wanted = name.lower()
        for offset, _length, entry in parsed:
            if entry is not None and entry.name.lower() == wanted:
                words = list(raw)
                words[offset + 4] = address
                return self._store(words)
        raise FileNotFound(f"{name!r} not in directory {self.name!r}")

    def null_entries(self, predicate) -> int:
        """Turn every entry matching *predicate* into a hole; returns count.

        Used by the scavenger for entries that point at nonexistent files.
        """
        raw, parsed = self._snapshot()
        words = list(raw)
        nulled = 0
        for offset, length, entry in parsed:
            if entry is not None and predicate(entry):
                words[offset : offset + length] = _hole(length)
                nulled += 1
        if nulled:
            self._store(words)
        return nulled

    def __repr__(self) -> str:
        return f"Directory({self.name!r}, {len(self)} entries)"
