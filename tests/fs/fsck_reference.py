"""The full-pass consistency check, kept verbatim as a test oracle.

This is the body ``repro.fs.fsck.check_image`` had before it learned to
carry a :class:`~repro.fs.fsck.PackIndex` between calls: four passes over
the whole pack, nothing remembered.  The differential tests assert that
the shipped checker, with a fresh index and with a long-lived one, returns
exactly what this returns -- same issues, same order, same counts -- and
raises exactly what this raises.  Only the report types are shared.

Two verdicts moved with the shipped checker since: an undecodable
descriptor is a ``bad-descriptor`` issue, and an in-use page whose header
names an address off the pack is an ``off-pack-header`` issue in the map
pass.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.disk.geometry import NIL
from repro.disk.image import DiskImage
from repro.errors import FileFormatError
from repro.fs.descriptor import DESCRIPTOR_LEADER_ADDRESS, DiskDescriptor
from repro.fs.directory import Directory
from repro.fs.file import FULL_PAGE
from repro.fs.fsck import CheckReport
from repro.fs.leader import LeaderPage
from repro.fs.names import (
    FileId,
    ORDINARY_SERIAL_FLAG,
    PAGE_NUMBER_BIAS,
    page_number_from_label,
)
from repro.words import bytes_to_words, words_to_bytes


def _parseable(label) -> bool:
    if not label.serial & ORDINARY_SERIAL_FLAG:
        return False
    if label.serial & 0xFFFF == 0:
        return False
    if not 1 <= label.version <= 0xFFFE:
        return False
    if label.page_number < PAGE_NUMBER_BIAS or label.page_number == 0xFFFF:
        return False
    if label.length > FULL_PAGE:
        return False
    return True


def check_image(image: DiskImage) -> CheckReport:
    """Inspect a pack; returns a :class:`CheckReport` (no writes, no time)."""
    report = CheckReport()
    files: Dict[Tuple[int, int], Dict[int, object]] = {}

    # -- pass 1: labels ----------------------------------------------------------
    for sector in image.sectors():
        label = sector.label
        address = sector.header.address
        if label.is_free:
            report.free_pages += 1
            continue
        if label.is_bad:
            report.bad_pages += 1
            continue
        if not _parseable(label):
            report.note("garbage-label", address, f"unparseable in-use label {label.pack()}")
            continue
        key = (label.serial, label.version)
        page_number = page_number_from_label(label)
        bucket = files.setdefault(key, {})
        if page_number in bucket:
            report.note(
                "duplicate-page", address,
                f"(serial {label.serial:#x}, page {page_number}) also at "
                f"{bucket[page_number].header.address}",
            )
            continue
        bucket[page_number] = sector

    report.files = len(files)

    # -- pass 2: per-file structure ------------------------------------------------
    for (serial, version), bucket in sorted(files.items()):
        tag = f"serial {serial:#x}v{version}"
        if FileId(serial).is_directory:
            report.directories += 1
        pages = sorted(bucket)
        if pages[0] != 0:
            report.note("headless", bucket[pages[0]].header.address,
                        f"{tag} starts at page {pages[0]}")
            continue
        if pages != list(range(len(pages))):
            missing = sorted(set(range(pages[-1] + 1)) - set(pages))
            report.note("gap", None, f"{tag} missing pages {missing}")
        last = pages[-1]
        for pn in pages:
            sector = bucket[pn]
            label = sector.label
            want_next = bucket[pn + 1].header.address if pn + 1 in bucket else NIL
            want_prev = bucket[pn - 1].header.address if pn - 1 in bucket and pn > 0 else NIL
            if label.next_link != want_next:
                report.note("bad-link", sector.header.address,
                            f"{tag} page {pn} NL={label.next_link}, want {want_next}")
            if label.prev_link != want_prev:
                report.note("bad-link", sector.header.address,
                            f"{tag} page {pn} PL={label.prev_link}, want {want_prev}")
            if pn < last and label.length != FULL_PAGE:
                report.note("bad-length", sector.header.address,
                            f"{tag} page {pn} is interior with L={label.length}")
            if pn == last and pn > 0 and label.length >= FULL_PAGE:
                report.note("ragged-end", sector.header.address,
                            f"{tag} last page has L={label.length}")
        if len(pages) < 2:
            report.note("bare-leader", bucket[0].header.address,
                        f"{tag} has a leader but no data page")
        try:
            LeaderPage.unpack(bucket[0].value)
        except FileFormatError as exc:
            report.note("bad-leader", bucket[0].header.address, f"{tag}: {exc}")

    # -- pass 3: the descriptor and map ----------------------------------------------
    descriptor = _read_descriptor(image, files, report)
    if descriptor is not None:
        allocator = descriptor.allocator()
        total = image.shape.total_sectors()
        for address, sector in enumerate(image.sectors()):
            if not sector.label.in_use:
                continue
            if sector.header.address >= total:
                report.note("off-pack-header", address,
                            f"header names address {sector.header.address}, off the pack")
            elif allocator.is_free(sector.header.address):
                report.note("map-lies-free", sector.header.address,
                            "allocation map calls an in-use page free")
        root_key = (descriptor.root_directory.fid.serial,
                    descriptor.root_directory.fid.version)
        if root_key not in files:
            report.note("dangling-root", None,
                        f"descriptor names nonexistent root {root_key[0]:#x}")

    # -- pass 4: directory entries ------------------------------------------------------
    for (serial, version), bucket in sorted(files.items()):
        if not FileId(serial).is_directory or 0 not in bucket:
            continue
        data = _file_bytes(bucket)
        try:
            entries = _parse_directory_bytes(data)
        except Exception as exc:  # noqa: BLE001 - any parse failure is one issue
            report.note("bad-directory", bucket[0].header.address,
                        f"directory serial {serial:#x}: {exc}")
            continue
        for name, fid, address in entries:
            key = (fid.serial, fid.version)
            if key not in files:
                report.note("dangling-entry", None,
                            f"{name!r} names nonexistent serial {fid.serial:#x}")
            elif files[key].get(0) is None or files[key][0].header.address != address:
                report.note("stale-entry-hint", address,
                            f"{name!r} hint {address} is not the leader address")
    return report


def _read_descriptor(image, files, report) -> Optional[DiskDescriptor]:
    key = next(
        (k for k, bucket in files.items()
         if 0 in bucket and bucket[0].header.address == DESCRIPTOR_LEADER_ADDRESS),
        None,
    )
    if key is None:
        report.note("no-descriptor", DESCRIPTOR_LEADER_ADDRESS,
                    "no file's leader sits at the standard address")
        return None
    try:
        return DiskDescriptor.unpack(image.shape, bytes_to_words(_file_bytes(files[key])))
    except FileFormatError as exc:
        report.note("bad-descriptor", DESCRIPTOR_LEADER_ADDRESS, str(exc))
        return None


def _file_bytes(bucket) -> bytes:
    out = bytearray()
    last = max(bucket)
    for pn in range(1, last + 1):
        if pn not in bucket:
            break
        sector = bucket[pn]
        out += words_to_bytes(sector.value, nbytes=min(sector.label.length, FULL_PAGE))
    return bytes(out)


def _parse_directory_bytes(data: bytes):
    words = bytes_to_words(data)
    out = []
    for _offset, _length, entry in Directory._parse(words):
        if entry is not None:
            out.append((entry.name, entry.fid, entry.full_name.address))
    return out
