"""The optional-acceleration gate: lazy numpy with a clean fallback.

One caller uses it: :func:`repro.words.random_bytes`, which scans large
random blocks with numpy.  The word packing helpers do not: no
benchmark workload packs 2048 or more items at once, and below that
their ``array`` paths beat numpy's per-call overhead.

Nothing imports numpy at module load.  Callers ask this gate, which
tries the import exactly once, remembers the answer, and can be forced
off -- either by the ``REPRO_NO_NUMPY=1`` environment variable (the CI
"numpy absent" leg) or programmatically by the test suite
(:func:`force_pure_python` / :func:`reset`), which also covers machines
where numpy simply is not installed.

Everything downstream must behave *identically* with and without numpy:
the differential harness in ``tests/equivalence/`` runs both branches and
asserts byte-identical results.  A fast path therefore uses numpy only
for an operation whose output is exactly reproducible in pure Python
(picking bytes out of random words) -- never for anything with float
rounding.
"""

from __future__ import annotations

import os

#: Tri-state: "unknown" until the first query, then the module or None.
_NUMPY = "unknown"

#: When True, :func:`numpy` answers None regardless of installation.
_FORCED_OFF = False


def numpy():
    """The numpy module, or None when unavailable or disabled.

    The import is attempted once and cached; any import failure (missing
    package, broken installation) degrades silently to the pure-Python
    bulk paths.
    """
    global _NUMPY
    if _FORCED_OFF or os.environ.get("REPRO_NO_NUMPY"):
        return None
    if _NUMPY == "unknown":
        try:
            import numpy as np  # deferred: never a hard dependency

            _NUMPY = np
        except Exception:
            _NUMPY = None
    return _NUMPY


def numpy_available() -> bool:
    """True when the numpy fast paths are active."""
    return numpy() is not None


def force_pure_python(flag: bool = True) -> None:
    """Test hook: disable (or re-enable) the numpy branch at runtime."""
    global _FORCED_OFF
    _FORCED_OFF = flag


def reset() -> None:
    """Test hook: forget the cached import so the next query re-probes.

    Used with ``sys.modules`` monkeypatching to simulate an absent numpy
    on a machine that has it installed.
    """
    global _NUMPY, _FORCED_OFF
    _NUMPY = "unknown"
    _FORCED_OFF = False
