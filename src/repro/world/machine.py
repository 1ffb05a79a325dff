"""The machine whose state gets swapped: memory, registers, devices.

Section 4: "These transfers of control are achieved by defining a
convention for restoring the entire state of the machine from a disk file."

``Machine`` is that state.  We do not interpret Alto instructions; a
*program* in this reproduction is a Python object whose durable variables
live in the machine's simulated memory (exactly as a BCPL program's did),
identified in the state file by name and resumption phase -- the stand-in
for the saved program counter.  The memory image, registers, and type-ahead
buffer are serialized word-for-word; see :mod:`repro.world.statefile`.
"""

from __future__ import annotations

from typing import List, Optional

from ..memory.core import MEMORY_WORDS, Memory
from ..streams.display import DisplayDevice
from ..streams.keyboard import KeyboardDevice
from ..words import check_word, check_words

#: Number of general registers saved in a world image (ACs + PC-adjacent
#: state on the real machine).
REGISTER_COUNT = 8


class Machine:
    """Everything a world image must capture."""

    def __init__(
        self,
        memory: Optional[Memory] = None,
        keyboard: Optional[KeyboardDevice] = None,
        display: Optional[DisplayDevice] = None,
    ) -> None:
        self.memory = memory if memory is not None else Memory(MEMORY_WORDS)
        self.keyboard = keyboard if keyboard is not None else KeyboardDevice()
        self.display = display if display is not None else DisplayDevice()
        self.registers: List[int] = [0] * REGISTER_COUNT

    # -- registers ---------------------------------------------------------------

    def set_register(self, index: int, value: int) -> None:
        if not 0 <= index < REGISTER_COUNT:
            raise IndexError(f"register {index} out of range")
        self.registers[index] = check_word(value, "register")

    def get_register(self, index: int) -> int:
        if not 0 <= index < REGISTER_COUNT:
            raise IndexError(f"register {index} out of range")
        return self.registers[index]

    # -- whole-state capture -------------------------------------------------------

    def capture(self) -> dict:
        """The complete machine state as plain data (for state files)."""
        return {
            "memory": self.memory.dump(),
            "registers": list(self.registers),
            "typeahead": self.keyboard.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Overwrite the machine from :meth:`capture` output."""
        self.memory.load(state["memory"])
        self.registers = list(check_words(state["registers"], "register"))
        if len(self.registers) != REGISTER_COUNT:
            raise ValueError(f"world image has {len(self.registers)} registers")
        self.keyboard.restore(state["typeahead"])

    def __repr__(self) -> str:
        return f"Machine({self.memory.size} words, typeahead={self.keyboard.available()})"
