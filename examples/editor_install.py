#!/usr/bin/env python
"""The installed-program pattern of section 3.6.

"Many programs use a collection of auxiliary files to which they need rapid
access.  The editor, for example, uses two scratch files, a journal file, a
file of messages etc.  When these programs are 'installed', they create the
necessary files and store hints for them in a data structure that is then
written onto a state file.  Subsequently the program can start up, read the
state file, and access all its auxiliary files at maximum disk speed.  If a
hint fails, e.g. because a scratch file got deleted or moved, the program
must repeat the installation phase."

This example builds exactly that editor: install once, start up fast from
hints, then have a hint invalidated by a compaction and watch the editor
notice and reinstall -- the *proper* recovery, not the "Hint failed, please
reinstall" crash the paper's conclusion complains about.
"""

from repro import DiskDrive, DiskImage, FileSystem, FullName, diablo31, Compactor
from repro.errors import FileNotFound, HintFailed
from repro.streams import open_read_stream, open_write_stream, read_string, write_string
from repro.world.statefile import full_name_from_words, full_name_to_words
from repro.words import bytes_to_words, words_to_bytes

AUXILIARY_FILES = ("Editor.scratch1", "Editor.scratch2", "Editor.journal", "Editor.messages")
STATE_FILE = "Editor.install"


class Editor:
    """A tiny editor that starts up from stored hints."""

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self.files = {}
        self.installed_fresh = False
        self.startup_commands = 0

    # -- installation (slow path) ------------------------------------------------

    def install(self) -> None:
        """Create the auxiliary files and write their full names (hints
        included) onto the state file."""
        self.installed_fresh = True
        words = []
        for name in AUXILIARY_FILES:
            try:
                file = self.fs.open_file(name)
            except FileNotFound:
                file = self.fs.create_file(name)
            self.files[name] = file
            words.extend(full_name_to_words(file.full_name()))
        try:
            state = self.fs.open_file(STATE_FILE)
        except FileNotFound:
            state = self.fs.create_file(STATE_FILE)
        state.write_data(words_to_bytes(words))

    # -- startup (fast path) --------------------------------------------------------

    def start(self) -> str:
        """Open every auxiliary file from the state-file hints alone --
        no directory lookups.  On any hint failure, reinstall and retry."""
        commands_before = self.fs.drive.stats()["disk.drive.commands"]
        try:
            state = self.fs.open_file(STATE_FILE)
            words = bytes_to_words(state.read_data())
            if len(words) != 4 * len(AUXILIARY_FILES):
                raise HintFailed("state file malformed")
            from repro.fs.file import AltoFile

            for i, name in enumerate(AUXILIARY_FILES):
                full_name = full_name_from_words(words[4 * i : 4 * i + 4])
                file = AltoFile.open(self.fs.page_io, self.fs.allocator, full_name)
                if file.name != name:
                    raise HintFailed(f"hint for {name} leads to {file.name}")
                self.files[name] = file
            self.installed_fresh = False
            path = "hints"
        except (FileNotFound, HintFailed):
            self.install()
            path = "reinstall"
        self.startup_commands = self.fs.drive.stats()["disk.drive.commands"] - commands_before
        return path

    # -- editing --------------------------------------------------------------------

    def journal(self, text: str) -> None:
        stream = open_write_stream(self.files["Editor.journal"], append=True)
        write_string(stream, text + "\n")
        stream.close()


def main() -> None:
    image = DiskImage(diablo31())
    drive = DiskDrive(image)
    fs = FileSystem.format(drive)

    # Fill the disk a bit so installation means something.
    for i in range(20):
        fs.create_file(f"doc{i:02}.txt").write_data(f"document {i}\n".encode() * 40)

    editor = Editor(fs)
    editor.install()
    editor.journal("installed")
    print("installed; auxiliary files:", sorted(editor.files))

    # Fast startup: hints only.
    editor2 = Editor(fs)
    path = editor2.start()
    print(f"startup via {path}: {editor2.startup_commands} disk commands")
    assert path == "hints"

    # A compaction moves files; stored hint addresses go stale.
    report = Compactor(drive).compact()
    print(f"compaction moved {report.pages_moved} pages "
          f"({report.elapsed_s:.1f} simulated seconds)")

    fs2 = FileSystem.mount(DiskDrive(image, clock=drive.clock))
    editor3 = Editor(fs2)
    path = editor3.start()
    print(f"startup after compaction via {path}: {editor3.startup_commands} disk commands")
    editor3.journal("survived the compaction")

    # And the journal is intact, through every move.
    stream = open_read_stream(fs2.open_file("Editor.journal"))
    print("journal contents:", repr(read_string(stream)))
    stream.close()


if __name__ == "__main__":
    main()
