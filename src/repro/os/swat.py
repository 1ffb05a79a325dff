"""Swat: the world-swap debugger as a reusable package (section 4).

"The debugging program may examine or alter the state of the faulty
program by reading or writing portions of the file that was written as a
result of the breakpoint.  The debugger can later resume execution of the
original program by restoring the machine state from the file.  The
original program and the debugger thus operate as coroutines."

``Swat`` operates purely on state *files* -- never on the live machine --
which is what made the real debugger safe to use on arbitrary victims: the
victim's world is inert bytes while Swat pokes at it.  (Swat and Swatee are
the historical names: the debugger and the debuggee's state file.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BadStateFile
from ..fs.filesystem import FileSystem
from ..memory.core import MEMORY_WORDS
from ..world.machine import REGISTER_COUNT
from ..world.statefile import pack_state, unpack_state
from ..world.swap import Transfer
from ..words import check_word


class Swat:
    """Examine and alter a saved world, then resume it."""

    def __init__(self, fs: FileSystem, state_file_name: str = "Swatee") -> None:
        self.fs = fs
        self.state_file_name = state_file_name
        self._load()

    def _load(self) -> None:
        file = self.fs.open_file(self.state_file_name)
        (self.memory_words, self.registers, self.program, self.phase,
         self.typeahead) = unpack_state(file.read_data())
        self.dirty = False

    # ------------------------------------------------------------------------
    # Examining
    # ------------------------------------------------------------------------

    def read_word(self, address: int) -> int:
        self._check_address(address)
        return self.memory_words[address]

    def read_block(self, address: int, count: int) -> List[int]:
        self._check_address(address)
        self._check_address(address + count - 1)
        return self.memory_words[address : address + count]

    def read_register(self, index: int) -> int:
        if not 0 <= index < REGISTER_COUNT:
            raise IndexError(f"register {index} out of range")
        return self.registers[index]

    def where(self) -> Tuple[str, str]:
        """The victim's identity: (program, resumption phase)."""
        return self.program, self.phase

    def search(self, value: int, start: int = 0, end: int = MEMORY_WORDS) -> List[int]:
        """Addresses in [start, end) whose word equals *value*."""
        return [a for a in range(start, min(end, MEMORY_WORDS))
                if self.memory_words[a] == value]

    def dump(self, address: int, count: int = 8) -> str:
        """An octal-free, human-readable dump line (hex, like this era of
        tooling rendered for maintenance)."""
        words = self.read_block(address, count)
        cells = " ".join(f"{w:04x}" for w in words)
        return f"{address:04x}: {cells}"

    # ------------------------------------------------------------------------
    # Altering
    # ------------------------------------------------------------------------

    def write_word(self, address: int, value: int) -> None:
        self._check_address(address)
        self.memory_words[address] = check_word(value, "memory word")
        self.dirty = True

    def write_block(self, address: int, values: Sequence[int]) -> None:
        for offset, value in enumerate(values):
            self.write_word(address + offset, value)

    def write_register(self, index: int, value: int) -> None:
        if not 0 <= index < REGISTER_COUNT:
            raise IndexError(f"register {index} out of range")
        self.registers[index] = check_word(value, "register")
        self.dirty = True

    def set_resume_phase(self, phase: str) -> None:
        """Redirect where the victim resumes (the saved-PC patch)."""
        self.phase = phase
        self.dirty = True

    # ------------------------------------------------------------------------
    # Committing and resuming
    # ------------------------------------------------------------------------

    def commit(self) -> None:
        """Write the (possibly altered) world back to the state file."""
        file = self.fs.open_file(self.state_file_name)
        file.write_data(
            pack_state(self.memory_words, self.registers, self.program, self.phase,
                       self.typeahead)
        )
        self.dirty = False

    def resume(self, message: Optional[Sequence[int]] = None) -> Transfer:
        """The action a debugger phase returns to restore the victim."""
        if self.dirty:
            self.commit()
        return Transfer(self.state_file_name, message or ())

    @staticmethod
    def _check_address(address: int) -> None:
        if not 0 <= address < MEMORY_WORDS:
            raise IndexError(f"address {address:#x} outside the 64k space")
