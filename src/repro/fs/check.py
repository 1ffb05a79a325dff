"""Crash-recovery invariant checking (sections 3.4-3.6, machine-checked).

The paper's central engineering claim is that label-checked pages plus the
Scavenger make the file system robust against "any single-page failure" and
most multi-page ones.  This module turns that claim into machine-checked
invariants: after an injected crash (see :class:`~repro.disk.faults.FaultPlan`),
:func:`check_recovery` runs the Scavenger, remounts, and asserts

* **structure** -- the recovered pack passes the read-only fsck
  (:func:`~repro.fs.fsck.check_image`) with no residue beyond the documented
  ``ragged-end`` case: no page doubly allocated, no gaps, no dangling or
  unreachable directory entries;
* **accounting** -- the rebuilt allocation map agrees with the labels: no
  in-use page called free, no free page leaked as busy;
* **reachability** -- every surviving file opens and reads through the
  ordinary mount path;
* **contents** -- every file untouched by the in-flight operation is
  byte-identical to its pre-crash state, and the in-flight file itself is in
  a *prefix-consistent* state: page-wise, a prefix of the new contents
  followed by a suffix of the old (or a page-boundary truncation of either).

:func:`crash_point_sweep` is the exhaustive engine on top: run a workload
once to count its part-writes, then replay it once per write with a clean
crash (or torn write) injected there, checking recovery after every crash.
``python -m repro crashtest`` and the ``crash_sweeper`` pytest fixture both
drive this function.

Every crash-point sweep in the repo -- this one, the rebalance sweep
(:mod:`repro.server.rebalance`) and the failover sweep
(:mod:`repro.server.failover`) -- runs on the driver here: one report
base (:class:`PointReport`), one :class:`SweepResult`, and one point loop
(:func:`sweep_points`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..disk.drive import DiskDrive
from ..disk.faults import FaultPlan
from ..disk.geometry import tiny_test_disk
from ..disk.image import DiskImage
from ..errors import PowerFailure, ReproError
from ..words import PAGE_DATA_BYTES, random_bytes
from .descriptor import BOOT_PAGE_ADDRESS, DESCRIPTOR_NAME
from .filesystem import FileSystem, ROOT_DIRECTORY_NAME
from .fsck import check_image
from .names import FileId
from .scavenger import ScavengeReport, Scavenger

#: fsck issue kinds tolerated after a recovery (see EXPERIMENTS.md): a file
#: truncated at a corruption gap keeps L=512 on its new last page, because L
#: is absolute and the scavenger will not invent data lengths.
TOLERATED_ISSUES = ("ragged-end",)

#: Names present on every formatted pack that the checker skips.
SYSTEM_NAMES = (ROOT_DIRECTORY_NAME, DESCRIPTOR_NAME)


# ----------------------------------------------------------------------------
# Expected state
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Change:
    """What the workload did (or was doing) to one file at crash time."""

    before: Optional[bytes]  # None: the file did not exist pre-workload
    after: Optional[bytes]  # None: the workload deleted it
    renamed_to: Optional[str] = None


def snapshot_files(fs: FileSystem) -> Dict[str, bytes]:
    """Contents of every ordinary root-level file, by name."""
    out: Dict[str, bytes] = {}
    for name in fs.list_files():
        if name in SYSTEM_NAMES:
            continue
        entry = fs.root.require(name)
        if FileId(entry.fid.serial).is_directory:
            continue
        out[name] = fs.open_file(name).read_data()
    return out


# ----------------------------------------------------------------------------
# The per-crash invariant check
# ----------------------------------------------------------------------------


@dataclass
class PointReport:
    """One crash point's verdict: the base every sweep's report extends."""

    crash_point: int = -1
    crash_reason: str = ""  #: why the run stopped; empty if it never crashed
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def note(self, problem: str) -> None:
        self.problems.append(problem)

    @staticmethod
    def summarize(result: "SweepResult") -> str:
        """The one-line summary of a sweep of this report kind."""
        return (f"{result.points_tested}/{result.total_writes} crash points "
                f"swept: {result.verdict()}")


@dataclass
class RecoveryReport(PointReport):
    """Everything one post-crash recovery check found."""

    scavenge: Optional[ScavengeReport] = None
    files_verified: int = 0
    files_in_flight: int = 0
    fsck_issues: int = 0

    def __str__(self) -> str:
        status = "ok" if self.ok else "; ".join(self.problems)
        return (
            f"crash@{self.crash_point}: {self.files_verified} verified, "
            f"{self.files_in_flight} in-flight -- {status}"
        )


def _pad_chunk(data: bytes, start: int, size: int) -> bytes:
    """*size* bytes of *data* from *start*, zero-padded past the end."""
    chunk = data[start : start + size]
    return chunk + b"\x00" * (size - len(chunk))


def prefix_consistent(found: bytes, old: Optional[bytes], new: Optional[bytes]) -> bool:
    """Is *found* a legitimate crash state between *old* and *new*?

    Page-wise (512-byte chunks): every chunk of *found* must match the
    corresponding chunk of *old* or of *new* (zero-padded at short tails,
    matching the padded page writes), or be all zeros (a grown-but-unfilled
    page).  Exact matches and page-boundary truncations are special cases.
    ``None`` means "did not exist" (old) / "was being deleted" (new).
    """
    old = old if old is not None else b""
    candidates = [old] if new is None else [old, new]
    if any(found == c for c in candidates):
        return True
    limit = max(len(c) for c in candidates)
    if len(found) > limit + PAGE_DATA_BYTES:
        return False
    for start in range(0, max(len(found), 1), PAGE_DATA_BYTES):
        chunk = found[start : start + PAGE_DATA_BYTES]
        options = [_pad_chunk(c, start, len(chunk)) for c in candidates]
        options.append(b"\x00" * len(chunk))
        if chunk not in options:
            return False
    return True


def check_recovery(
    image: DiskImage,
    before: Dict[str, bytes],
    changes: Optional[Dict[str, Change]] = None,
    crash_point: int = -1,
    crash_reason: str = "",
) -> RecoveryReport:
    """Scavenge a crashed pack and verify every recovery invariant.

    *before* maps file names to their pre-workload contents; *changes* maps
    the names the workload touched to what it did.  Returns a
    :class:`RecoveryReport`; ``report.ok`` is the overall verdict.
    """
    changes = changes or {}
    report = RecoveryReport(crash_point=crash_point, crash_reason=crash_reason)

    # -- recovery: one scavenge must make the pack mountable -------------------
    try:
        report.scavenge = Scavenger(DiskDrive(image)).scavenge()
        fs = FileSystem.mount(DiskDrive(image))
    except ReproError as exc:
        report.note(f"recovery failed: {type(exc).__name__}: {exc}")
        return report

    # -- structure: read-only fsck ------------------------------------------------
    fsck = check_image(image)
    residue = [issue for issue in fsck.issues if issue.kind not in TOLERATED_ISSUES]
    report.fsck_issues = len(residue)
    for issue in residue:
        report.note(f"fsck: {issue}")

    # -- accounting: the map must agree with the labels ---------------------------
    unreadable_labels = {addr for (addr, part) in image.checksum_bad if part == "label"}
    total = image.shape.total_sectors()
    for sector in image.sectors():
        address = sector.header.address
        if (
            address == BOOT_PAGE_ADDRESS
            or address >= total  # an off-pack header: fsck names it above
            or address in image.bad_media
            or address in unreadable_labels
        ):
            continue
        if sector.label.is_free and not fs.allocator.is_free(address):
            report.note(f"page-leaked @{address}: free label, busy in map")
        elif sector.label.in_use and fs.allocator.is_free(address):
            report.note(f"map-lies-free @{address}: in-use label, free in map")

    # -- reachability + contents ---------------------------------------------------
    recovered = _read_all_files(fs, report)
    expected_names = set(before) | set(changes)
    for name in sorted(expected_names):
        change = changes.get(name)
        old = before.get(name)
        aliases = [name]
        if change is not None and change.renamed_to:
            aliases.append(change.renamed_to)
        found_name = _find_surviving(recovered, aliases)

        if change is None:
            # Untouched by the in-flight operation: must be byte-identical.
            if found_name is None:
                report.note(f"{name}: untouched file unreachable after recovery")
            elif recovered[found_name] != old:
                report.note(f"{name}: untouched file contents changed")
            else:
                report.files_verified += 1
            continue

        report.files_in_flight += 1
        if found_name is None:
            # Absent is legitimate only when it could have been absent: the
            # workload was deleting it, or creating it from nothing.
            if change.after is not None and old is not None:
                report.note(f"{name}: in-flight file lost entirely")
            continue
        if not prefix_consistent(recovered[found_name], old, change.after):
            report.note(
                f"{name}: contents are not a prefix-consistent crash state "
                f"({len(recovered[found_name])} bytes found)"
            )
    return report


def _read_all_files(fs: FileSystem, report: RecoveryReport) -> Dict[str, bytes]:
    """Open and read every root-level file through the ordinary mount path."""
    out: Dict[str, bytes] = {}
    for name in fs.list_files():
        if name in SYSTEM_NAMES:
            continue
        entry = fs.root.require(name)
        if FileId(entry.fid.serial).is_directory:
            continue
        try:
            out[name] = fs.open_file(name).read_data()
        except ReproError as exc:
            report.note(f"{name}: unreadable after recovery ({type(exc).__name__})")
    return out


def _find_surviving(recovered: Dict[str, bytes], aliases: Sequence[str]) -> Optional[str]:
    """A file may survive under its name, its new name, or a rescued
    ``name!N`` variant; pick the first present."""
    for alias in aliases:
        if alias in recovered:
            return alias
    for alias in aliases:
        for candidate in recovered:
            if candidate.startswith(alias + "!"):
                return candidate
    return None


# ----------------------------------------------------------------------------
# The exhaustive crash-point sweep
# ----------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Outcome of a crash-point sweep: the workload's part-write count and
    one report per point swept, worded by the report kind (*kind*)."""

    total_writes: int = 0
    reports: List[PointReport] = field(default_factory=list)
    kind: Type[PointReport] = RecoveryReport

    @property
    def points_tested(self) -> int:
        return len(self.reports)

    @property
    def failures(self) -> List[PointReport]:
        return [r for r in self.reports if not r.ok]

    @property
    def ok(self) -> bool:
        return self.points_tested > 0 and not self.failures

    def verdict(self, clean: str = "all recovered") -> str:
        return clean if self.ok else f"{len(self.failures)} FAILED"

    def summary(self) -> str:
        return self.kind.summarize(self)


def sweep_points(
    total: int,
    points: Optional[Sequence[int]],
    run_point: Callable[[int], PointReport],
    on_point: Optional[Callable[[PointReport], None]] = None,
    kind: Type[PointReport] = RecoveryReport,
) -> SweepResult:
    """The one point loop: ``run_point(n)`` for each crash point, in order.

    *points* defaults to every part-write, ``1..total``; a point outside
    that range raises ``ValueError`` when the loop reaches it.  *on_point*
    sees each report as soon as its point is done.
    """
    result = SweepResult(total_writes=total, kind=kind)
    for n in range(1, total + 1) if points is None else points:
        if not 1 <= n <= total:
            raise ValueError(f"crash point {n} outside 1..{total}")
        report = run_point(n)
        result.reports.append(report)
        if on_point is not None:
            on_point(report)
    return result


def crash_point_sweep(
    build: Callable[[], Tuple[DiskImage, FileSystem]],
    workload: Callable[[FileSystem], Dict[str, Change]],
    seed: int = 1979,
    points: Optional[Sequence[int]] = None,
    tear: bool = False,
    on_point: Optional[Callable[[RecoveryReport], None]] = None,
    make_drive: Optional[Callable[[DiskImage, FaultPlan], DiskDrive]] = None,
) -> SweepResult:
    """Crash the workload at every part-write and verify recovery each time.

    *build* creates a deterministic populated pack; *workload* mutates it
    and returns the :class:`Change` set it performed (what it *would* have
    done, had it completed).  The sweep first runs the workload uninjured to
    count part-writes, then replays it from an image snapshot once per
    crash point -- write N with a clean power failure (or, with ``tear``, a
    torn write) injected there -- and runs :func:`check_recovery` on the
    wreckage.  Deterministic given (*build*, *workload*, *seed*).

    *make_drive* builds the drive the workload runs on (default: a plain
    :class:`DiskDrive`).  Passing a :class:`~repro.disk.cache.CachedDrive`
    factory sweeps the same workload with write-back caching in play --
    crash points then fall inside flush drains too, and any buffered data
    alive at the crash is lost exactly as a real power failure would lose
    it.  Recovery always runs on a fresh uncached drive: the platter is all
    that survives.
    """
    if make_drive is None:
        make_drive = lambda img, plan: DiskDrive(img, fault_injector=plan)
    image, fs = build()
    baseline = image.snapshot()
    before = snapshot_files(fs)

    def run(n: int = 0):
        """Replay the workload from the snapshot with a fault at write *n*
        (0: none); returns the plan, the changes, and the crash reason."""
        image.restore(baseline)
        plan = FaultPlan(image, seed=seed)
        if n:
            (plan.tear_at_write if tear else plan.crash_at_write)(n)
        try:
            return plan, workload(FileSystem.mount(make_drive(image, plan))), ""
        except PowerFailure as exc:
            return plan, None, str(exc)

    # The counting pass takes the same mount-then-run path as the replays,
    # so crash points line up exactly.
    plan, changes, _ = run()

    def check_point(n: int) -> RecoveryReport:
        plan, _, reason = run(n)
        report = check_recovery(
            image, before, changes, crash_point=n, crash_reason=reason
        )
        if not reason:
            report.note(f"fault at write {n} never fired ({plan.writes_seen} writes seen)")
        return report

    return sweep_points(plan.writes_seen, points, check_point, on_point)


# ----------------------------------------------------------------------------
# The canonical workload (used by tests and ``python -m repro crashtest``)
# ----------------------------------------------------------------------------


def canonical_build(seed: int = 1979, cylinders: int = 20):
    """A deterministic populated pack: 8 files of varied sizes."""

    def build() -> Tuple[DiskImage, FileSystem]:
        image = DiskImage(tiny_test_disk(cylinders=cylinders))
        fs = FileSystem.format(DiskDrive(image))
        rng = random.Random(seed)
        for i in range(8):
            data = random_bytes(rng, rng.randrange(100, 1800))
            fs.create_file(f"f{i}.dat").write_data(data)
        fs.sync()
        return image, fs

    return build


def canonical_workload(seed: int = 1979):
    """Rewrite, extend, shrink, create, delete, and rename -- every kind of
    in-flight operation a crash can interrupt."""

    def workload(fs: FileSystem) -> Dict[str, Change]:
        rng = random.Random(seed + 1)
        grown = random_bytes(rng, 2300)
        shrunk = random_bytes(rng, 150)
        created = random_bytes(rng, 900)
        old = {name: fs.open_file(name).read_data() for name in
               ("f0.dat", "f1.dat", "f2.dat", "f3.dat", "f4.dat")}
        changes = {
            "f0.dat": Change(before=old["f0.dat"], after=grown),
            "f1.dat": Change(before=old["f1.dat"], after=shrunk),
            "f2.dat": Change(before=old["f2.dat"], after=None),
            "new.dat": Change(before=None, after=created),
            "f3.dat": Change(before=old["f3.dat"], after=old["f3.dat"],
                             renamed_to="f3-renamed.dat"),
            "f4.dat": Change(before=old["f4.dat"], after=old["f4.dat"][:512] + shrunk),
        }
        fs.open_file("f0.dat").write_data(grown)
        fs.open_file("f1.dat").write_data(shrunk)
        fs.delete_file("f2.dat")
        fs.create_file("new.dat").write_data(created)
        fs.rename_file("f3.dat", "f3-renamed.dat")
        fs.open_file("f4.dat").write_data(old["f4.dat"][:512] + shrunk)
        fs.sync()
        return changes

    return workload
