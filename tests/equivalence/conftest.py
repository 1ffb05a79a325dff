"""Every equivalence test runs with numpy loaded and with numpy hidden.

No code path in ``repro`` imports numpy, so the two legs of the
``numpy_mode`` fixture run the same code; what differs is the process
around it.  The ``numpy`` leg runs with numpy imported (where it is
installed), the ``pure`` leg with every ``import numpy`` failing, the way
it fails on a machine without numpy.  Both legs must produce identical
results -- the golden digests are shared, not per-leg.
"""

import importlib.abc
import sys

import pytest


class NumpyHider(importlib.abc.MetaPathFinder):
    """An import hook under which ``import numpy`` finds nothing."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


def hide_numpy(monkeypatch):
    """Make every ``import numpy`` fail until *monkeypatch* undoes it."""
    for name in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(sys, "meta_path", [NumpyHider(), *sys.meta_path])


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    """Run the test with numpy loaded or hidden; restore after."""
    if request.param == "numpy":
        try:
            import numpy  # noqa: F401 - loaded, as a caller's process may have it
        except ImportError:
            pass  # not installed: this leg runs as the machine is
    else:
        hide_numpy(monkeypatch)
    return request.param
