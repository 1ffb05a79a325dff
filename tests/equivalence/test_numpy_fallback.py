"""The numpy-absent machine, simulated on a machine that has numpy.

The ``pure`` leg of ``numpy_mode`` hides numpy inside this process, after
``repro`` is already imported; this module goes further and starts a
fresh process in which ``import numpy`` fails from its first line, the way
a genuinely numpy-less machine would: a ``sys.modules`` entry of ``None``
makes ``import numpy`` raise ``ImportError``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

from tests.equivalence.test_golden_images import workload_mount_write


def test_workload_digest_identical_without_numpy():
    """A full golden workload, numpy unimportable from the start, pins the
    same result as this process."""
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None  # import numpy -> ImportError\n"
            "from tests.equivalence.test_golden_images import workload_mount_write\n"
            "print(json.dumps(workload_mount_write()))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    root = Path(__file__).resolve().parents[2]  # where ``tests`` imports from
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == workload_mount_write()
