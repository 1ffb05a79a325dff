"""The operating-system layer (section 5): Junta levels, the loader, the
Executive, the keyboard process, and the AltoOS facade."""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "executive": ("COMMAND_FILE", "Executive", "RUN_EXTENSION"),
    "junta": ("JuntaController",),
    "kbdproc": ("KeyboardProcess", "buffered_keyboard_stream"),
    "levels": ("LEVELS", "LevelSpec", "MAX_LEVEL", "MIN_LEVEL",
               "fill_pattern", "layout", "level_providing", "resident_words",
               "services_at_or_below", "spec_for"),
    "loader": ("CodeFile", "ExecutableRegistry", "Fixup", "LOAD_ADDRESS",
               "LoadedProgram", "ProgramLoader", "write_code_file"),
    "diskless": ("DISKLESS_SERVICES", "DisklessOS"),
    "swat": ("Swat",),
    "system": ("AltoOS",),
})
