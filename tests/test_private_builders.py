"""The wire's two unchecked builders are used only where the words they
carry are known to be past a word door.

``repro.net.network._packet`` builds a packet and
``repro.server.protocol._frame`` a frame without the loop over the
payload's words.  Each is safe only at the call sites below, where the
words' provenance is known; a new use is a reviewed change to this table.
The walk reads every module under ``src/repro`` and records each
reference to either name (a call, an alias or an import), by the function
or class body it sits in.  No string names them either, so no
``lazy_exports`` map or ``getattr`` can reach them.
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
    import repro.net
    import repro.server

    for package in (repro, repro.net, repro.server):
        assert not {"_packet", "_frame"} & set(package.__all__)
