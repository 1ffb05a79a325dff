"""Package exports resolve on first use (``repro.exports``).

Every name a package initialiser exports resolves to the object its
submodule holds, ``dir`` lists it, and an unknown name raises
``AttributeError``.  In a fresh interpreter, importing what the
repository benchmark and the CLI import loads none of the packages they
never use.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ("repro", "repro.disk", "repro.fs", "repro.net", "repro.obs",
            "repro.server", "repro.os", "repro.world", "repro.streams",
            "repro.memory")

SRC = Path(repro.__file__).resolve().parents[1]


def submodules(package):
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":  # importing one runs its command
            yield importlib.import_module(f"{package.__name__}.{info.name}")


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_the_object_its_submodule_holds(name):
    package = importlib.import_module(name)
    modules = list(submodules(package))
    for export in package.__all__:
        value = getattr(package, export)
        assert any(value is module or value is getattr(module, export, None)
                   for module in modules), f"{name}.{export}"


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_no_export_is_named_twice(name):
    exports = importlib.import_module(name).__all__
    assert len(exports) == len(set(exports))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro.server import *", namespace)
    assert set(repro.server.__all__) <= set(namespace)


def loaded_after(statement: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after *statement*."""
    code = (f"import sys\n{statement}\nimport json\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'repro')))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def under(modules: list, prefixes: tuple) -> list:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_a_file_service_run_loads_no_os_world_streams_or_memory():
    # What perfbench/workloads.py imports.
    modules = loaded_after("import repro.server.loadgen, repro.server.failover, "
                           "repro.fs.online, repro.obs")
    unused = ("repro.os", "repro.world", "repro.streams", "repro.memory",
              "repro.net.printing", "repro.obs.export", "repro.obs.top",
              "repro.fs.volumes")
    assert under(modules, unused) == []


def test_the_cli_loads_the_os_only_where_a_command_runs_one():
    assert under(loaded_after("import repro.__main__"), ("repro.os",)) == []


def test_a_scavenge_loads_no_memory_package():
    # The sweep's memory-budget check reads MEMORY_WORDS from repro.words.
    modules = loaded_after(
        "from repro.fs.scavenger import Scavenger\n"
        "from repro.disk import DiskDrive, DiskImage, tiny_test_disk\n"
        "from repro.fs import FileSystem\n"
        "drive = DiskDrive(DiskImage(tiny_test_disk()))\n"
        "FileSystem.format(drive)\n"
        "assert Scavenger(drive).scavenge().table_fits_in_memory")
    assert under(modules, ("repro.memory",)) == []
