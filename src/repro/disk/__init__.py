"""The simulated Alto disk: geometry, sectors, drive, timing, faults.

This package is the hardware substrate beneath the file system of
sections 3.1-3.3 of the paper.  It exposes exactly the contract the paper
relies on: per-part sector commands (read / check / write on header, label,
value independently), the 0-wildcard check semantics, and a seek/rotation
timing model calibrated to the Diablo Model 31.
"""

from .cache import CACHE_HIT_US, DEFAULT_CACHE_SECTORS, CachedDrive
from .drive import MAX_READ_RETRIES, Action, DiskDrive, PartCommand, TransferResult
from .faults import FaultInjector, FaultPlan
from .geometry import NIL, DiskShape, diablo31, diablo44, tiny_test_disk
from .image import DiskImage
from .sector import (
    DIRECTORY_SERIAL_FLAG,
    HEADER_WORDS,
    LABEL_WORDS,
    SERIAL_BAD,
    SERIAL_FREE,
    VALUE_WORDS,
    Header,
    Label,
    Sector,
    value_words,
)
from .timing import ROTATION, SEEK, TRANSFER, ArmTimer
from .trace import TRACE_POINTS, DiskTrace, TraceRecord, check_point, point_name

from .scheduler import RequestScheduler

__all__ = [
    "Action",
    "ArmTimer",
    "CACHE_HIT_US",
    "CachedDrive",
    "DEFAULT_CACHE_SECTORS",
    "DIRECTORY_SERIAL_FLAG",
    "DiskDrive",
    "RequestScheduler",
    "DiskImage",
    "DiskShape",
    "DiskTrace",
    "TraceRecord",
    "TRACE_POINTS",
    "FaultInjector",
    "FaultPlan",
    "HEADER_WORDS",
    "MAX_READ_RETRIES",
    "Header",
    "LABEL_WORDS",
    "Label",
    "NIL",
    "PartCommand",
    "ROTATION",
    "SEEK",
    "SERIAL_BAD",
    "SERIAL_FREE",
    "Sector",
    "TRANSFER",
    "TransferResult",
    "VALUE_WORDS",
    "check_point",
    "diablo31",
    "diablo44",
    "point_name",
    "tiny_test_disk",
    "value_words",
]
