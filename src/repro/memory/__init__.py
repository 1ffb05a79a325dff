"""The simulated Alto main memory and the zone storage allocator."""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "core": ("MEMORY_WORDS", "Memory", "Region"),
    "zone": ("FREE_LIST_END", "MIN_BLOCK", "Zone", "allocate_vector"),
})
