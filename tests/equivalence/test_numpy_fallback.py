"""The numpy-absent machine, simulated on a machine that has numpy.

The ``pure`` leg of ``numpy_mode`` exercises the pure-Python branches by
*flag* (``force_pure_python``); this module goes further and makes the
import itself fail, the way a genuinely numpy-less machine would: a
``sys.modules`` entry of ``None`` makes ``import numpy`` raise
``ImportError``, and :func:`repro.fastpath.reset` forgets the cached module
so the gate re-probes and finds nothing.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro import fastpath
from tests.equivalence.reference import (
    bytes_to_words_reference,
    checksum_reference,
    random_bytes_reference,
    words_to_bytes_reference,
)
from repro.words import (
    WORD_MASK,
    bytes_to_words,
    checksum,
    random_bytes,
    words_to_bytes,
)
from repro.words import _NUMPY_MIN_ITEMS


def hide_numpy(monkeypatch):
    """Make every ``import numpy`` fail until *monkeypatch* undoes it."""
    for name in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "numpy", None)  # import -> ImportError
    fastpath.reset()


@pytest.fixture
def numpy_hidden(monkeypatch):
    """numpy uninstalled, as far as any ``import numpy`` can tell."""
    hide_numpy(monkeypatch)
    yield
    fastpath.reset()  # re-probe with the real sys.modules restored


def test_gate_degrades_cleanly(numpy_hidden):
    assert fastpath.numpy() is None
    assert not fastpath.numpy_available()
    with pytest.raises(ImportError):
        import numpy  # noqa: F401 - proving the hiding works


def test_equivalence_holds_without_numpy(numpy_hidden):
    """The full word-substrate equivalence slice, import genuinely failing.

    Sizes above ``_NUMPY_MIN_ITEMS`` matter most: those are the calls that
    would have taken the numpy branch and now must fall through.
    """
    rng = random.Random(41)
    for n in (0, 1, 7, _NUMPY_MIN_ITEMS - 1, _NUMPY_MIN_ITEMS, _NUMPY_MIN_ITEMS + 9):
        data = [rng.randrange(WORD_MASK + 1) for _ in range(n)]
        assert checksum(data) == checksum_reference(data)
        assert words_to_bytes(data) == words_to_bytes_reference(data)
        raw = bytes(rng.randrange(256) for _ in range(n + 1))  # odd length
        assert bytes_to_words(raw, 0x5A) == bytes_to_words_reference(raw, 0x5A)

    a, b = random.Random(1979), random.Random(1979)
    assert random_bytes(a, 4000) == random_bytes_reference(b, 4000)
    assert a.getrandbits(64) == b.getrandbits(64)


def test_float_words_raise_alike_with_and_without_numpy(monkeypatch):
    """A non-int word is rejected the same way on both sides of the gate,
    at the size where packing once switched to numpy (which truncated
    1.5 to 1 instead of raising)."""
    words = [1.5] * _NUMPY_MIN_ITEMS
    with pytest.raises(TypeError) as present:
        words_to_bytes(words)
    hide_numpy(monkeypatch)
    try:
        with pytest.raises(TypeError) as hidden:
            words_to_bytes(words)
    finally:
        monkeypatch.undo()
        fastpath.reset()
    assert str(hidden.value) == str(present.value)


def test_workload_digest_identical_without_numpy(numpy_hidden):
    """A full golden workload on the no-numpy path pins the same digest."""
    from .test_golden_images import GOLDEN_PATH, WORKLOADS
    import json, os

    if os.environ.get("REPRO_UPDATE_GOLDENS") or not GOLDEN_PATH.exists():
        pytest.skip("goldens being regenerated")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert WORKLOADS["mount_write"]() == golden["mount_write"]


def test_small_random_bytes_leave_numpy_unimported():
    """Below ``_NUMPY_MIN_ITEMS`` the pure block path is the fast one, so a
    fresh process drawing that many bytes must not pay numpy's import."""
    code = ("import random, sys\n"
            "from repro.words import _NUMPY_MIN_ITEMS, random_bytes\n"
            "random_bytes(random.Random(1), _NUMPY_MIN_ITEMS - 1)\n"
            "sys.exit('numpy' in sys.modules)\n")
    env = {key: value for key, value in os.environ.items() if key != "REPRO_NO_NUMPY"}
    env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
    status = subprocess.run([sys.executable, "-c", code], env=env).returncode
    assert status == 0, "random_bytes imported numpy below the threshold"
