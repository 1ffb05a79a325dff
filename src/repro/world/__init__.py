"""World swapping (section 4): machine state, state files, InLoad/OutLoad,
coroutine linkage, checkpointing, and booting."""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "boot": ("BOOT_FILE_NAME", "create_boot_file", "hardware_boot",
             "read_boot_pointer"),
    "checkpoint": ("Checkpointer", "resume_from_checkpoint"),
    "coroutine": ("coroutine_call", "reply"),
    "machine": ("Machine", "REGISTER_COUNT"),
    "statefile": ("FULL_NAME_WORDS", "MESSAGE_WORDS", "STATE_FILE_BYTES",
                  "check_message", "full_name_from_words",
                  "full_name_to_words", "pack_state", "unpack_state"),
    "swap": ("Halt", "SHADOW_SUFFIX", "ProgramRegistry", "SwapContext",
             "Transfer", "WorldEngine", "WorldProgram", "WorldSwapper"),
})
