"""InLoad and OutLoad (section 4.1), and the world engine that runs swapped
programs.

"OutLoad writes the current machine state on the file, and returns with the
written flag true. ... The InLoad procedure restores the state of the
machine from the given file, and passes a message (about 20 words) to the
restored program.  The effect is that OutLoad returns again, this time with
written false and with the message that was provided in the InLoad call."

We do not interpret machine code, so the "program counter saved inside the
OutLoad procedure" is represented by a *phase name* recorded in the state
file: a program is a :class:`WorldProgram` whose phases are its entry
points, and whose durable variables live in the machine's simulated memory
(exactly as a BCPL program's lived in the real memory image).  The control
discipline, the state-file format, and the disk costs are word-exact.

A phase runs to completion and ends with one of:

* :class:`Transfer` -- the InLoad call that never returns: control moves to
  whatever program the named state file holds;
* :class:`Halt` -- the machine stops (the outer caller gets the result).

Within a phase, :meth:`SwapContext.outload` is OutLoad with written=true:
it writes the state file naming the *resume phase* -- the phase that will
run, message in hand, when somebody InLoads that file later (OutLoad
returning with written=false).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import BadStateFile, FileNotFound, WorldError
from ..fs.file import AltoFile
from ..fs.filesystem import FileSystem
from .machine import Machine
from .statefile import check_message, pack_state, unpack_state

#: Guard against runaway coroutine ping-pong in tests and examples.
DEFAULT_MAX_TRANSFERS = 10_000

#: Suffix of the shadow file :meth:`WorldSwapper.atomic_outload` writes
#: before committing it to the real state-file name.
SHADOW_SUFFIX = "!new"


# ----------------------------------------------------------------------------
# Actions a phase can end with
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    """InLoad: restore the machine from *file_name*, delivering *message*."""

    file_name: str
    message: Sequence[int] = ()


@dataclass(frozen=True)
class Halt:
    """Stop the machine; *result* is handed to the engine's caller."""

    result: object = None


# ----------------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------------


class WorldProgram:
    """A program that can be world-swapped.

    Subclasses set ``name`` and implement phases as methods named
    ``phase_<phase>``; each receives ``(ctx, message)`` and returns a
    :class:`Transfer` or :class:`Halt`.  All state a phase wants to survive
    a swap must live in the machine (memory, registers, type-ahead) -- the
    Python object is reconstructed fresh at every resumption, just as code
    was reloaded with the image on the real machine.
    """

    name: str = ""

    def run_phase(self, ctx: "SwapContext", phase: str, message: List[int]):
        method = getattr(self, f"phase_{phase}", None)
        if method is None:
            raise WorldError(f"program {self.name!r} has no phase {phase!r}")
        return method(ctx, message)


class ProgramRegistry:
    """Maps program names to factories (the stand-in for code-in-image)."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[[], WorldProgram]] = {}

    def register(self, program_class: Callable[[], WorldProgram]) -> Callable:
        instance = program_class()
        if not instance.name:
            raise WorldError(f"{program_class!r} has no program name")
        self._factories[instance.name] = program_class
        return program_class

    def create(self, name: str) -> WorldProgram:
        factory = self._factories.get(name)
        if factory is None:
            raise WorldError(f"no program registered under {name!r}")
        return factory()

    def names(self) -> List[str]:
        return sorted(self._factories)


# ----------------------------------------------------------------------------
# The swapper: OutLoad / InLoad proper
# ----------------------------------------------------------------------------


class WorldSwapper:
    """Writes and restores world images on ordinary files.

    Keeps an open-file cache (the "hints for important files" of Junta
    level 3): repeated OutLoads to the same state file are pure data writes
    at full disk speed, which is where the paper's "about a second" comes
    from.
    """

    def __init__(self, fs: FileSystem, machine: Machine) -> None:
        self.fs = fs
        self.machine = machine
        self._files: Dict[str, AltoFile] = {}
        self.outloads = 0
        self.inloads = 0

    # -- file cache --------------------------------------------------------------

    def state_file(self, name: str, create: bool = True) -> AltoFile:
        cached = self._files.get(name)
        if cached is not None:
            return cached
        try:
            file = self.fs.open_file(name)
        except FileNotFound:
            if not create:
                raise
            file = self.fs.create_file(name)
        self._files[name] = file
        return file

    def forget_files(self) -> None:
        """Drop the hint cache (e.g. after a scavenge moved things)."""
        self._files.clear()

    # -- OutLoad ------------------------------------------------------------------

    def outload(self, file_name: str, program: str, resume_phase: str) -> AltoFile:
        """Write the current machine state; "returns with written true".

        The written=false return happens when someone InLoads the file: the
        engine then runs ``program.phase_<resume_phase>`` with the message.
        """
        obs = self.fs.drive.clock.obs
        with obs.span("world.outload", "world", file=file_name,
                      program=program, phase=resume_phase):
            state = self.machine.capture()
            data = pack_state(
                state["memory"], state["registers"], program, resume_phase, state["typeahead"]
            )
            file = self.state_file(file_name)
            file.write_data(data, now=self.fs.now())
        self.outloads += 1
        obs.registry.counter("world.outloads").inc()
        return file

    def atomic_outload(self, file_name: str, program: str, resume_phase: str) -> AltoFile:
        """Crash-safe OutLoad: old state or new state, never neither.

        The plain :meth:`outload` rewrites the state file in place, so a
        crash mid-write tears it -- detected later by the state file's
        checksums (:class:`~repro.errors.BadStateFile`), but the old state
        is gone.  Here the new state is written *completely* to a shadow
        file first, and only then takes over the real name; a crash at any
        write leaves either the old file intact or the complete new state
        (possibly still under the shadow name, where :meth:`inload` finds
        it).  Costs roughly twice the disk traffic of a plain OutLoad --
        that is why it is a separate call and not the default.
        """
        obs = self.fs.drive.clock.obs
        with obs.span("world.outload", "world", file=file_name,
                      program=program, phase=resume_phase, atomic=True):
            state = self.machine.capture()
            data = pack_state(
                state["memory"], state["registers"], program, resume_phase, state["typeahead"]
            )
            shadow_name = file_name + SHADOW_SUFFIX
            try:
                self.fs.delete_file(shadow_name)
            except FileNotFound:
                pass
            shadow = self.fs.create_file(shadow_name)
            shadow.write_data(data, now=self.fs.now())
            # The shadow must be *durably* complete before the old state is
            # destroyed: on a write-back drive its data may still be buffered.
            self.fs.flush()
            # Commit: the complete new state takes over the real name.
            try:
                self.fs.delete_file(file_name)
            except FileNotFound:
                pass
            self._files.pop(file_name, None)
            self.fs.rename_file(shadow_name, file_name)
            self.fs.flush()
            file = self.fs.open_file(file_name)
        self.outloads += 1
        obs.registry.counter("world.outloads").inc()
        self._files[file_name] = file
        return file

    def emergency_outload(self, file_name: str, program: str) -> AltoFile:
        """The emergency bootstrap OutLoad (section 4.1): saves memory but
        "could not preserve some of the most vital state (e.g., processor
        registers)" -- registers are written as zeros."""
        obs = self.fs.drive.clock.obs
        with obs.span("world.outload", "world", file=file_name,
                      program=program, phase="emergency", emergency=True):
            state = self.machine.capture()
            data = pack_state(
                state["memory"], [0] * len(state["registers"]), program, "emergency",
                state["typeahead"],
            )
            file = self.state_file(file_name)
            file.write_data(data, now=self.fs.now())
        self.outloads += 1
        obs.registry.counter("world.outloads").inc()
        return file

    # -- InLoad -------------------------------------------------------------------

    def inload(self, file_name: str):
        """Restore the machine from a state file.

        Returns (program name, phase) -- the engine resumes there.  Raises
        :class:`BadStateFile` if the image fails validation.  If the file
        is missing or invalid but a complete shadow from an interrupted
        :meth:`atomic_outload` exists, the shadow is restored instead.
        """
        obs = self.fs.drive.clock.obs
        with obs.span("world.inload", "world", file=file_name):
            try:
                file = self.state_file(file_name, create=False)
                memory_words, registers, program, phase, typeahead = unpack_state(file.read_data())
            except (FileNotFound, BadStateFile) as primary:
                # A crash between an atomic OutLoad's commit steps can leave
                # the complete new state only under the shadow name.
                try:
                    shadow = self.fs.open_file(file_name + SHADOW_SUFFIX)
                    memory_words, registers, program, phase, typeahead = unpack_state(
                        shadow.read_data()
                    )
                except (FileNotFound, BadStateFile):
                    raise primary
            self.machine.restore(
                {"memory": memory_words, "registers": registers, "typeahead": typeahead}
            )
        self.inloads += 1
        obs.registry.counter("world.inloads").inc()
        return program, phase


# ----------------------------------------------------------------------------
# The engine: runs programs and performs their transfers
# ----------------------------------------------------------------------------


@dataclass
class SwapContext:
    """What a running phase sees: the machine, the file system, and OutLoad."""

    machine: Machine
    fs: FileSystem
    swapper: WorldSwapper
    program: str = ""
    transfers: int = 0

    def outload(self, file_name: str, resume_phase: str, atomic: bool = False) -> None:
        """OutLoad with written=true: write our state, keep running.

        With ``atomic=True`` the crash-safe shadow-and-commit protocol is
        used (see :meth:`WorldSwapper.atomic_outload`).
        """
        if atomic:
            self.swapper.atomic_outload(file_name, self.program, resume_phase)
        else:
            self.swapper.outload(file_name, self.program, resume_phase)

    def now(self) -> int:
        return self.fs.now()


class WorldEngine:
    """Runs :class:`WorldProgram` phases, performing InLoad transfers."""

    def __init__(
        self,
        machine: Machine,
        fs: FileSystem,
        registry: ProgramRegistry,
        max_transfers: int = DEFAULT_MAX_TRANSFERS,
    ) -> None:
        self.machine = machine
        self.fs = fs
        self.registry = registry
        self.swapper = WorldSwapper(fs, machine)
        self.max_transfers = max_transfers
        self.transfer_log: List[str] = []

    def run(
        self,
        program_name: str,
        phase: str = "start",
        message: Optional[Sequence[int]] = None,
    ):
        """Run from (program, phase) until a :class:`Halt`; returns its result."""
        current_message = check_message(message)
        transfers = 0
        while True:
            program = self.registry.create(program_name)
            ctx = SwapContext(
                machine=self.machine,
                fs=self.fs,
                swapper=self.swapper,
                program=program_name,
                transfers=transfers,
            )
            action = program.run_phase(ctx, phase, current_message)
            if isinstance(action, Halt):
                return action.result
            if not isinstance(action, Transfer):
                raise WorldError(
                    f"phase {phase!r} of {program_name!r} returned {action!r}, "
                    "expected Transfer or Halt"
                )
            transfers += 1
            if transfers > self.max_transfers:
                raise WorldError(f"more than {self.max_transfers} world transfers; runaway?")
            self.transfer_log.append(action.file_name)
            program_name, phase = self.swapper.inload(action.file_name)
            current_message = check_message(action.message)

    def run_from_file(self, file_name: str, message: Optional[Sequence[int]] = None):
        """InLoad a state file and run from whatever it holds (the way the
        operating system itself is entered from a foreign environment,
        section 5.1)."""
        program_name, phase = self.swapper.inload(file_name)
        return self.run_via_resume(program_name, phase, message)

    def run_via_resume(
        self, program_name: str, phase: str, message: Optional[Sequence[int]] = None
    ):
        return self.run(program_name, phase=phase, message=message)
