"""The packet network and the printing-server tasks (section 4)."""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "network": ("MAX_PAYLOAD_WORDS", "NetworkError", "Packet",
                "PacketNetwork", "TYPE_CONTROL", "TYPE_DATA",
                "TYPE_END_OF_FILE", "send_file"),
    "streams": ("network_read_stream", "network_write_stream"),
    "printing": ("PRINTER_STATE", "PrinterDevice", "QUEUE_FILE",
                 "SHUTDOWN_WORD", "SPOOLER_STATE", "bootstrap_printer_state",
                 "build_printing_server", "read_queue", "write_queue"),
})
