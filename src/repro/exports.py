"""Package exports that resolve on first use.

Each package initialiser names what it re-exports once, as a map from
submodule to names, and hands that map to :func:`lazy_exports`.  A name's
submodule is imported the first time the name is looked up on the
package (PEP 562), so a process compiles and builds only the modules it
uses -- as Junta lets a program keep only the facilities it needs
(section 5.2).  ``from repro.fs import FileSystem``, ``repro.DiskDrive``,
``from repro.server import *`` and ``dir(repro.fs)`` all work as they
would with eager imports.
"""

from importlib import import_module
from typing import Dict, Tuple


def lazy_exports(namespace: dict, exports: Dict[str, Tuple[str, ...]]) -> None:
    """Export the names *exports* lists from the package whose globals are
    *namespace*.

    *exports* maps a submodule, named relative to the package, to the
    names the package re-exports from it; the key ``""`` lists submodules
    the package exports as themselves.  Sets the package's ``__all__``
    (every name, in map order), its ``__dir__``, and a ``__getattr__``
    that imports a name's submodule on its first lookup and binds the
    name in the package, so later lookups are plain attribute reads.
    """
    package = namespace["__name__"]
    names = [name for listed in exports.values() for name in listed]
    home = {name: module for module, listed in exports.items() for name in listed}

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if module:
            value = getattr(import_module(f"{package}.{module}"), name)
        else:
            value = import_module(f"{package}.{name}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    namespace.update(__all__=names, __getattr__=__getattr__, __dir__=__dir__)
