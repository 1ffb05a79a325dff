"""The unchecked builders are used only where the words they carry are
known to be past a word door.

``repro.net.network._packet`` builds a packet and
``repro.server.protocol._frame`` a frame without the loop over the
payload's words; ``repro.disk.sector._page_value`` builds a sector value
without ``value_words``' loop, and the file system's private value paths
beneath its public page writes take such a value unchecked.  Each is safe
only at the call sites below, where the words' provenance is known; a new
use is a reviewed change to this table.  The walk reads every module
under ``src/repro`` and records each reference to any of these names (a
call, an alias or an import), by the function or class body it sits in.
No string names them either, so no ``lazy_exports`` map or ``getattr`` can
reach them.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: builder -> {(module, the function holding a reference)}; ``<import>``
#: for the module's import of it, ``<module>`` for its definition.
USES = {
    "_packet": {
        ("repro.net.network", "<module>"),
        ("repro.net.network", "Packet.relayed"),
        ("repro.server.protocol", "<import>"),
        ("repro.server.protocol", "_encode"),
        ("repro.server.replica", "<import>"),
        ("repro.server.replica", "ReplicationPrimary.ship"),
    },
    "_frame": {
        ("repro.server.protocol", "<module>"),
        ("repro.server.protocol", "_build"),
        ("repro.server.engine", "<import>"),
        ("repro.server.engine", "FileServer._do_read"),
        ("repro.server.client", "<import>"),
        ("repro.server.client", "FileClient.build_write"),
    },
    "_page_value": {
        ("repro.disk.sector", "<module>"),
        ("repro.fs.file", "<import>"),
        ("repro.fs.file", "AltoFile.create"),
        ("repro.fs.file", "AltoFile.write_data"),
        ("repro.fs.file", "AltoFile._write_leader"),
        ("repro.server.engine", "<import>"),
        ("repro.server.engine", "FileServer._do_write"),
    },
    # AltoFile's value paths: its public page writes, write_data and the
    # server's WRITE.
    "_write_full_value": {
        ("repro.fs.file", "AltoFile.write_full_page"),
        ("repro.fs.file", "AltoFile.write_data"),
        ("repro.server.engine", "FileServer._do_write"),
    },
    "_write_last_value": {
        ("repro.fs.file", "AltoFile.write_last_page"),
        ("repro.fs.file", "AltoFile.write_data"),
        ("repro.server.engine", "FileServer._do_write"),
    },
    "_append_value": {
        ("repro.fs.file", "AltoFile.append_page"),
        ("repro.fs.file", "AltoFile.write_data"),
        ("repro.server.engine", "FileServer._do_write"),
    },
    # The page and allocator value paths beneath them.
    "_write_value": {
        ("repro.fs.page", "PageIO.write"),
        ("repro.fs.file", "AltoFile._write_full_value"),
        ("repro.fs.file", "AltoFile._write_last_value"),
        ("repro.fs.file", "AltoFile._write_last_value.rewrite"),
        ("repro.fs.file", "AltoFile._write_leader"),
    },
    "_allocate_value": {
        ("repro.fs.allocator", "PageAllocator.allocate"),
        ("repro.fs.file", "AltoFile.create"),
        ("repro.fs.file", "AltoFile._append_value"),
    },
    "_claim_value": {
        ("repro.fs.page", "PageIO.claim"),
        ("repro.fs.allocator", "PageAllocator._allocate_value"),
    },
}


class _Uses(ast.NodeVisitor):
    def __init__(self, module, found):
        self.module = module
        self.found = found
        self.scope = []

    def _note(self, name, where):
        if name in self.found:
            self.found[name].add((self.module, where))

    def _enter(self, node):
        if not self.scope:
            self._note(node.name, "<module>")
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _here(self):
        return ".".join(self.scope) or "<module-level code>"

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._note(alias.name, "<import>")

    def visit_Name(self, node):
        self._note(node.id, self._here())

    def visit_Attribute(self, node):
        self._note(node.attr, self._here())
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._note(node.value, f"string in {self._here()}")


def uses():
    found = {name: set() for name in USES}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        _Uses(module, found).visit(ast.parse(path.read_text(), str(path)))
    return found


def test_the_unchecked_builders_are_used_only_where_words_have_passed_a_door():
    assert uses() == USES


def test_neither_builder_is_exported():
    import repro.disk
    import repro.fs
    import repro.net
    import repro.server

    for package in (repro, repro.disk, repro.fs, repro.net, repro.server):
        assert not set(USES) & set(package.__all__)
