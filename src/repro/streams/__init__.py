"""OS6-style streams (section 2): the protocol, disk/keyboard/display
implementations, in-memory streams, and combinators."""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "base": ("STANDARD_OPERATIONS", "Stream", "copy_stream"),
    "compose": ("concatenate_read_streams", "counting_stream",
                "filter_read_stream", "map_read_stream", "map_write_stream",
                "tee_stream"),
    "disk_stream": ("BYTE_ITEMS", "WORD_ITEMS", "open_read_stream",
                    "open_update_stream", "open_write_stream", "read_string",
                    "write_string"),
    "display": ("DisplayDevice", "display_stream"),
    "raster": ("MemoryRaster", "raster_stream", "raster_words"),
    "keyboard": ("DEBUG_KEY", "KeyboardDevice", "keyboard_stream"),
    "memory_stream": ("byte_read_stream", "byte_write_stream", "null_stream",
                      "string_read_stream", "string_write_stream",
                      "vector_read_stream", "vector_write_stream"),
})
