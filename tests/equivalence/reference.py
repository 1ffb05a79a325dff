"""Reference ("slow") implementations that pin the bulk fast paths.

Every hot inner loop that was rewritten as a bulk operation keeps its
original word-at-a-time form here, unchanged.  These are not dead code:
the differential tests beside this module run arbitrary inputs
through both the fast path and its reference twin and asserts the results
are observationally identical -- same values, same exceptions, same
counter increments, same simulated microseconds.  When you add a new fast
path, add its reference twin here and a property test pinning the pair
(see ARCHITECTURE.md, "Fast paths and the differential harness").

The reference forms also serve as the executable specification: they are
the loops the paper describes ("a check action compares data on the disk
with corresponding data taken from memory, word by word", section 3.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.words import WORD_MASK, check_words


# ----------------------------------------------------------------------------
# repro.words reference twins
# ----------------------------------------------------------------------------


def random_bytes_reference(rng, count: int) -> bytes:
    """Draw-at-a-time twin of :func:`repro.words.random_bytes` (the exact
    historical form: one ``randrange(256)`` call per byte)."""
    return bytes(rng.randrange(256) for _ in range(count))


def checksum_reference(words) -> int:
    """Word-at-a-time twin of :func:`repro.words.checksum`."""
    total = 0
    for w in words:
        total = (total + w) & WORD_MASK
    return total ^ WORD_MASK


def bytes_to_words_reference(data: bytes, pad: int = 0) -> List[int]:
    """Byte-at-a-time twin of :func:`repro.words.bytes_to_words`."""
    words = []
    for i in range(0, len(data) - 1, 2):
        words.append((data[i] << 8) | data[i + 1])
    if len(data) % 2:
        words.append((data[-1] << 8) | (pad & 0xFF))
    return words


def words_to_bytes_reference(words: Sequence[int], nbytes: int = -1) -> bytes:
    """Word-at-a-time twin of :func:`repro.words.words_to_bytes`."""
    if nbytes != -1 and nbytes < 0:
        raise ValueError(f"nbytes must be -1 (no truncation) or >= 0, got {nbytes}")
    if nbytes > 2 * len(words):
        raise ValueError(f"asked for {nbytes} bytes from {2 * len(words)} available")
    out = bytearray()
    for w in words:
        out.append((w >> 8) & 0xFF)
        out.append(w & 0xFF)
    if nbytes >= 0:
        del out[nbytes:]
    return bytes(out)


# ----------------------------------------------------------------------------
# Drive part-check reference twin
# ----------------------------------------------------------------------------

#: Outcome of a check merge: the effective buffer, or the first mismatch.
CheckOutcome = Tuple[Optional[List[int]], Optional[Tuple[int, int, int]]]


def merge_check_reference(expected: Sequence[int], disk_words: Sequence[int]) -> CheckOutcome:
    """Word-by-word pattern match, 0 in memory as a wildcard (section 3.3).

    Twin of :func:`repro.disk.drive.merge_check`.  Returns
    ``(effective, None)`` on success or ``(None, (index, want, have))`` at
    the first non-wildcard mismatch -- exactly where the original loop
    raised.
    """
    effective = []
    for i, (want, have) in enumerate(zip(expected, disk_words)):
        if want == 0:
            effective.append(have)
            continue
        if want != have:
            return None, (i, want, have)
        effective.append(have)
    return effective, None


# ----------------------------------------------------------------------------
# A drive whose part loops are the original word-at-a-time forms
# ----------------------------------------------------------------------------


def make_reference_drive(image, clock=None, fault_injector=None, **kwargs):
    """A :class:`~repro.disk.drive.DiskDrive` running the reference loops.

    Used by the drive differential to replay identical command sequences
    through the slow and fast part paths and assert byte- and
    microsecond-identical outcomes.  It overrides the check (word by word)
    and the write (through the sector's ``header``/``label`` object
    setters); it reads a part's words from sector storage as every drive
    does, and ``test_sector_views`` pins that those words always equal
    the object views re-packed, whichever setter pair wrote them.
    """
    from repro.disk.drive import DiskDrive, _PART_SIZES
    from repro.disk.sector import Header, Label
    from repro.errors import CheckError, LabelCheckError

    class ReferenceDrive(DiskDrive):
        """The pre-fast-path drive: per-word checks, object-view writes."""

        def _check_part(self, address, part, expected, disk_words):
            if len(expected) != _PART_SIZES[part]:
                raise ValueError(f"{part} check buffer must be {_PART_SIZES[part]} words")
            effective = []
            for i, (want, have) in enumerate(zip(expected, disk_words)):
                if want == 0:
                    effective.append(have)
                    continue
                if want != have:
                    if part == "label":
                        self._c_label_checks.inc(1)
                        self._c_label_check_failures.inc(1)
                        raise LabelCheckError(i, want, have)
                    raise CheckError(part, i, want, have)
                effective.append(have)
            if part == "label":
                self._c_label_checks.inc(1)
            return effective

        def _write_part(self, sector, address, part, data):
            if len(data) != _PART_SIZES[part]:
                raise ValueError(f"{part} write buffer must be {_PART_SIZES[part]} words")
            data = list(data)
            if self.fault_injector is not None:
                data = self.fault_injector.filter_write(self, address, part, data)
            # The fast drive's door (Sector.set_header_words and
            # set_label_words): unpack's intern lookup matches by
            # equality, so it would take 3.0 for 3.
            if part == "header":
                sector.header = Header.unpack(check_words(data, "header word"))
            elif part == "label":
                sector.label = Label.unpack(check_words(data, "label word"))
            else:
                sector.value = list(data)

    return ReferenceDrive(image, clock, fault_injector, **kwargs)
