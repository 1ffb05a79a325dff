"""Run the docstring examples of every package: ``repro.net``,
``repro.server``, ``repro.disk``, ``repro.obs``, ``repro.fs``,
``repro.streams``, ``repro.world``, ``repro.os``, ``repro.memory`` and
``repro.words``.

CI's docs job runs ``pytest --doctest-modules src/repro/net
src/repro/server src/repro/disk src/repro/obs src/repro/fs
src/repro/streams src/repro/world src/repro/os src/repro/memory
src/repro/words.py`` directly;
this test keeps the same examples green under the plain test run, so a
stale docstring fails close to the change that broke it.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.disk
import repro.fs
import repro.memory
import repro.net
import repro.obs
import repro.os
import repro.server
import repro.streams
import repro.world

PACKAGES = (repro.net, repro.server, repro.disk, repro.obs, repro.fs,
            repro.streams, repro.world, repro.os, repro.memory)


def doctest_modules():
    yield "repro.words"
    for package in PACKAGES:
        yield package.__name__
        for info in pkgutil.iter_modules(package.__path__):
            # Importing a package's __main__ runs its command (repro.obs's
            # validates a trace file and exits).
            if info.name != "__main__":
                yield f"{package.__name__}.{info.name}"


@pytest.mark.parametrize("module_name", sorted(doctest_modules()))
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_has_a_docstring(package):
    """The audit itself: everything exported by the package documents itself."""
    missing = []
    for name in package.__all__:
        obj = getattr(package, name)
        if callable(obj) and not (obj.__doc__ or "").strip():
            missing.append(name)
    assert not missing, f"{package.__name__} exports lack docstrings: {missing}"
