"""repro -- a reproduction of Lampson & Sproull's Alto operating system.

"An Open Operating System for a Single-User Machine", SOSP 1979.

The package is organized the way the paper organizes the system:

* :mod:`repro.disk`    -- the simulated drive (sections 2, 3.3)
* :mod:`repro.memory`  -- 64k-word memory and zones (sections 2, 5.2)
* :mod:`repro.fs`      -- pages, files, directories, hints, scavenger (section 3)
* :mod:`repro.streams` -- OS6-style stream objects (section 2)
* :mod:`repro.world`   -- InLoad/OutLoad world swapping (section 4)
* :mod:`repro.os`      -- Junta levels, loader, Executive (section 5)
* :mod:`repro.net`     -- the packet network and printing server (section 4)
* :mod:`repro.obs`     -- simulated-time spans, metrics, trace export

The top level re-exports the objects a typical user needs; every smaller
component stays importable from its subpackage -- the openness principle
the paper is about.  Every package's exports resolve on first use
(:mod:`repro.exports`), so a process loads only the packages it uses.
See README.md for a quickstart and DESIGN.md for the complete inventory.
"""

from .exports import lazy_exports

__version__ = "1.0.0"

lazy_exports(globals(), {
    "": ("errors", "obs"),
    "clock": ("SimClock",),
    "obs": ("MetricsRegistry", "Observability", "Tracer"),
    "disk": ("DiskDrive", "DiskImage", "DiskShape", "FaultPlan",
             "diablo31", "diablo44", "tiny_test_disk"),
    "fs": ("AltoFile", "Compactor", "ConsecutiveReader", "Directory",
           "FileSystem", "FullName", "HintLadder", "KthPageHints",
           "Scavenger", "compact", "scavenge"),
    "memory": ("Memory", "Region", "Zone"),
    "os": ("AltoOS", "CodeFile", "Fixup", "JuntaController",
           "write_code_file"),
    "streams": ("Stream", "copy_stream", "open_read_stream",
                "open_write_stream", "read_string", "write_string"),
    "world": ("Halt", "Machine", "ProgramRegistry", "Transfer",
              "WorldEngine", "WorldProgram", "coroutine_call",
              "create_boot_file", "hardware_boot"),
})
