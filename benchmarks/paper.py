"""Shared helpers for the paper-claim benchmarks.

Every benchmark prints a `paper vs measured` table row and asserts the
claim's *shape* (who wins, rough factor).  Absolute simulated numbers are
deterministic model outputs, so the assertions are hard, not flaky.

Results are also structured: :func:`report` returns a :class:`BenchResult`,
and each ``bench_*.py`` module exposes ``bench(profile)`` returning a list
of them, built from the *same* measure functions the pytest tests call.
``python -m repro bench`` (see :mod:`repro.bench`) collects these into
``BENCH_PR2.json`` and enforces the checked-in baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.disk import DiskDrive, DiskImage, DiskShape, FaultPlan, diablo31
from repro.fs import FileSystem, Scavenger
from repro.words import random_bytes


@dataclass
class BenchResult:
    """One benchmark measurement, machine-readable.

    ``simulated_seconds`` is the regression-tracked quantity: it is a
    deterministic output of the timing model, so any drift is a real
    performance change, not noise.  ``cached`` records whether the run used
    the write-back cache (``None``: not applicable).
    """

    name: str
    experiment: str
    simulated_seconds: float
    cached: Optional[bool] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    claim: str = ""
    measured: str = ""
    verdict: str = "matches"
    obs: Dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "simulated_seconds": self.simulated_seconds,
            "cached": self.cached,
            "metrics": self.metrics,
            "claim": self.claim,
            "measured": self.measured,
            "verdict": self.verdict,
            "obs": self.obs,
        }


def report(
    experiment: str,
    claim: str,
    measured: str,
    verdict: str = "matches",
    *,
    name: Optional[str] = None,
    simulated_seconds: float = 0.0,
    cached: Optional[bool] = None,
    **metrics: float,
) -> BenchResult:
    """Print the `paper vs measured` row and return it as a record.

    Under ``python -m repro bench`` (which turns on
    :func:`repro.obs.runtime.retain_stats`) every row also carries the
    merged metrics snapshot of all clocks created since the previous row;
    under pytest retention is off and ``obs`` stays empty.
    """
    from repro.obs import runtime as obs_runtime

    print(f"\n[{experiment}] paper: {claim}")
    print(f"[{experiment}] measured: {measured}  ({verdict})")
    return BenchResult(
        name=name or experiment,
        experiment=experiment,
        simulated_seconds=simulated_seconds,
        cached=cached,
        metrics=dict(metrics),
        claim=claim,
        measured=measured,
        verdict=verdict,
        obs=obs_runtime.drain_stats(),
    )


def populated_disk(
    shape: Optional[DiskShape] = None,
    files: int = 150,
    mean_bytes: int = 6000,
    seed: int = 1979,
    deletions: int = 30,
) -> Tuple[DiskImage, FileSystem, Dict[str, bytes]]:
    """A realistically loaded pack: many files, some churn, synced map."""
    image = DiskImage(shape if shape is not None else diablo31())
    fs = FileSystem.format(DiskDrive(image))
    rng = random.Random(seed)
    payloads: Dict[str, bytes] = {}
    for i in range(files):
        name = f"file{i:04}.dat"
        size = max(0, int(rng.gauss(mean_bytes, mean_bytes / 2)))
        data = random_bytes(rng, min(size, 20_000))
        fs.create_file(name).write_data(data)
        payloads[name] = data
    victims = rng.sample(sorted(payloads), min(deletions, len(payloads)))
    for name in victims:
        fs.delete_file(name)
        del payloads[name]
    fs.sync()
    return image, fs, payloads


def scatter_file(image: DiskImage, fs: FileSystem, name: str, payload: bytes, seed: int = 7):
    """Create *name* and scatter its pages over the whole disk, repairing
    links with a scavenge.  Returns a freshly mounted FileSystem."""
    rng = random.Random(seed)
    fs.create_file(name).write_data(payload)
    fs.sync()
    plan = FaultPlan(image, seed=seed)
    file = fs.open_file(name)
    addresses = [file.page_name(pn).address for pn in range(file.page_count())]
    free = [s.header.address for s in image.sectors() if s.label.is_free]
    rng.shuffle(free)
    for address in addresses:
        plan.swap_sectors(address, free.pop())
    clock = fs.drive.clock
    Scavenger(DiskDrive(image, clock=clock)).scavenge()
    return FileSystem.mount(DiskDrive(image, clock=clock))
