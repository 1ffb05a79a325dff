"""The simulated Alto disk: geometry, sectors, drive, timing, faults.

This package is the hardware substrate beneath the file system of
sections 3.1-3.3 of the paper.  It exposes exactly the contract the paper
relies on: per-part sector commands (read / check / write on header, label,
value independently), the 0-wildcard check semantics, and a seek/rotation
timing model calibrated to the Diablo Model 31.
"""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "cache": ("CACHE_HIT_US", "DEFAULT_CACHE_SECTORS", "CachedDrive"),
    "drive": ("MAX_READ_RETRIES", "Action", "DiskDrive", "PartCommand",
              "TransferResult"),
    "faults": ("TRACE_POINTS", "FaultPlan", "check_point", "point_name"),
    "geometry": ("NIL", "DiskShape", "diablo31", "diablo44", "tiny_test_disk"),
    "image": ("DiskImage",),
    "scheduler": ("RequestScheduler",),
    "sector": ("DIRECTORY_SERIAL_FLAG", "HEADER_WORDS", "LABEL_WORDS",
               "SERIAL_BAD", "SERIAL_FREE", "VALUE_WORDS", "Header", "Label",
               "Sector", "value_words"),
    "timing": ("ROTATION", "SEEK", "TRANSFER", "ArmTimer"),
})
