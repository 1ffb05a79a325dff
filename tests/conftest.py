"""Shared fixtures: small disks are enough for almost every behaviour.

Reproducibility: every source of randomness in the suite flows from one
seed, settable with ``--repro-seed`` (default 1979).  When a test that used
the seed fails, the seed is printed alongside the failure so the exact run
can be replayed with ``pytest --repro-seed <N> <nodeid>``.
"""

import os
import random

import pytest

from repro.clock import SimClock
from repro.disk import (
    CachedDrive,
    DiskDrive,
    DiskImage,
    FaultPlan,
    tiny_test_disk,
)
from repro.fs import FileSystem

try:
    from hypothesis import settings as _hyp_settings, HealthCheck as _HealthCheck

    _hyp_settings.register_profile("default", max_examples=100)
    _hyp_settings.register_profile(
        "smoke",
        max_examples=15,
        suppress_health_check=[_HealthCheck.too_slow],
        deadline=None,
    )
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover - hypothesis tests skip themselves
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        type=int,
        default=1979,
        help="seed for every rng/fault-plan fixture (printed on failure)",
    )


@pytest.fixture
def repro_seed(request):
    """The suite-wide seed; fixtures derive all randomness from it."""
    return request.config.getoption("--repro-seed")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed and "repro_seed" in item.fixturenames:
        seed = item.config.getoption("--repro-seed")
        report.sections.append(
            (
                "repro seed",
                f"this test derives its randomness from --repro-seed {seed}; "
                f"replay with: pytest --repro-seed {seed} {item.nodeid!r}",
            )
        )


@pytest.fixture
def shape():
    return tiny_test_disk(cylinders=30)  # 720 sectors


@pytest.fixture
def image(shape):
    return DiskImage(shape)


@pytest.fixture
def drive(image):
    return DiskDrive(image)


@pytest.fixture
def fs(drive):
    return FileSystem.format(drive)


@pytest.fixture
def cached_drive(image):
    return CachedDrive(image)


@pytest.fixture
def cached_fs(cached_drive):
    return FileSystem.format(cached_drive)


@pytest.fixture
def fault_plan(image, repro_seed):
    """A FaultPlan on the ``image`` fixture, not attached to any drive: its
    direct-corruption methods need none; pair with ``planned_drive`` to
    schedule faults through a drive."""
    return FaultPlan(image, seed=repro_seed)


@pytest.fixture
def planned_drive(image, fault_plan):
    """A drive carrying the ``fault_plan`` fixture as its fault injector."""
    return DiskDrive(image, fault_injector=fault_plan)


@pytest.fixture
def crash_sweeper(repro_seed):
    """Run the canonical crash-point sweep (see repro.fs.check), seeded by
    --repro-seed so every failure is replayable."""
    from repro.fs.check import canonical_build, canonical_workload, crash_point_sweep

    def sweep(points=None, tear=False, seed=None, cylinders=20, cached=False):
        chosen = repro_seed if seed is None else seed
        make_drive = None
        if cached:
            make_drive = lambda image, plan: CachedDrive(image, fault_injector=plan)
        return crash_point_sweep(
            canonical_build(chosen, cylinders=cylinders),
            canonical_workload(chosen),
            seed=chosen,
            points=points,
            tear=tear,
            make_drive=make_drive,
        )

    return sweep


@pytest.fixture
def rng(repro_seed):
    return random.Random(repro_seed)


@pytest.fixture
def populated_fs(fs, rng):
    """A file system with a spread of files (and some deletions)."""
    payloads = {}
    for i in range(12):
        name = f"file{i:02}.dat"
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 2500)))
        fs.create_file(name).write_data(data)
        payloads[name] = data
    for i in (3, 7):
        fs.delete_file(f"file{i:02}.dat")
        del payloads[f"file{i:02}.dat"]
    sub = fs.create_directory("Sub")
    fs.create_file("nested.txt", directory=sub).write_data(b"nested data")
    payloads["nested.txt"] = b"nested data"
    fs.sync()
    fs.payloads = payloads
    return fs
