"""Crash-safe slot shipping: moving a name range between shard packs.

A rebalance moves every file of one :class:`~repro.server.shardmap.ShardMap`
slot from the source shard's pack to the target's.  Each pack is an
independently verifiable replica unit (the LOCKSS stance), so the protocol
must leave every moving name **intact on exactly one pack** no matter
where a crash lands.  It reuses the atomic-OutLoad discipline
(shadow-then-rename is the commit point) at pack-shipping scale:

1. **stage** -- copy each moving file to the target pack under its
   ``!ship`` temp name, then flush: the copies are durably complete;
2. **commit** -- write the shipment manifest (slot, shards, names) to a
   shadow file, flush, rename it to :data:`MANIFEST_NAME`, flush.  The
   rename is the commit point: before it the shipment legally never
   happened, after it the shipment legally happened;
3. **expose** -- rename each temp to its final name on the target;
4. **retire** -- delete each original from the source;
5. **clean** -- delete the manifest.

:func:`recover_shipment` makes any crash state converge: a committed
manifest is rolled *forward* (finish steps 3-5), anything else is rolled
*back* (delete temps; the source copies were never touched).  Either way
each name ends on exactly one pack and the surviving
:class:`~repro.server.shardmap.ShardMap` side is decidable from the
manifest's presence alone.  :func:`rebalance_crash_sweep` proves this at
every part-write of the whole protocol across **both** packs
(``python -m repro crashtest --rebalance``).

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> source = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> target = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> _ = source.create_file("moving.txt").write_data(b"pack cargo")
>>> shipment = ship_names(source, target, ["moving.txt"], slot=3)
>>> shipment.names
['moving.txt']
>>> target.open_file("moving.txt").read_data()
b'pack cargo'
>>> "moving.txt" in source.list_files()
False
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..disk.cache import CachedDrive
from ..disk.drive import DiskDrive
from ..disk.faults import FaultPlan
from ..disk.geometry import tiny_test_disk
from ..disk.image import DiskImage
from ..errors import FileNotFound, PowerFailure, ReproError
from ..fs.check import TOLERATED_ISSUES, PointReport, SweepResult, sweep_points
from ..fs.filesystem import FileSystem
from ..fs.fsck import check_image
from ..fs.scavenger import Scavenger
from ..words import random_bytes
from .shardmap import ShardMap

#: The durable commit record on the *target* pack.  Its existence is the
#: whole commit state: present = roll forward, absent = roll back.
MANIFEST_NAME = "ShipManifest"

#: Shadow the manifest is staged under before the commit rename.
MANIFEST_SHADOW = MANIFEST_NAME + "!new"

#: Temp-name suffix for staged copies on the target pack.
SHIP_SUFFIX = "!ship"


@dataclass(frozen=True)
class Shipment:
    """One decoded shipment manifest.

    >>> Shipment(slot=3, source=0, target=1, names=["a.txt"]).slot
    3
    """

    slot: int
    source: int
    target: int
    names: List[str]

    def encode(self) -> bytes:
        """The manifest's on-pack byte format (one field per line).

        >>> Shipment(1, 0, 1, ["a"]).encode()
        b'slot 1\\nsource 0\\ntarget 1\\na'
        """
        head = f"slot {self.slot}\nsource {self.source}\ntarget {self.target}"
        return "\n".join([head] + list(self.names)).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "Shipment":
        """Parse :meth:`encode` output (raises ``ValueError`` when torn).

        >>> Shipment.decode(Shipment(1, 0, 1, ["a"]).encode()).names
        ['a']
        """
        lines = data.decode("utf-8").split("\n")
        if len(lines) < 3:
            raise ValueError("manifest too short")
        slot = int(lines[0].split()[1])
        source = int(lines[1].split()[1])
        target = int(lines[2].split()[1])
        return cls(slot=slot, source=source, target=target,
                   names=[line for line in lines[3:] if line])


def _delete_if_present(fs: FileSystem, name: str) -> bool:
    try:
        fs.delete_file(name)
        return True
    except FileNotFound:
        return False


def _variants(fs: FileSystem, name: str) -> List[str]:
    """*name* plus any scavenger-rescued ``name!N`` aliases present."""
    lowered = name.lower()
    out = []
    for candidate in fs.list_files():
        folded = candidate.lower()
        if folded == lowered or folded.startswith(lowered + "!"):
            out.append(candidate)
    return out


def _copy_file(source_fs: FileSystem, target_fs: FileSystem,
               name: str, new_name: str) -> int:
    """Whole-file copy (read one pack, write the other); returns bytes."""
    data = source_fs.open_file(name).read_data()
    for stale in _variants(target_fs, new_name):
        _delete_if_present(target_fs, stale)
    target_fs.create_file(new_name).write_data(data)
    return len(data)


def ship_names(source_fs: FileSystem, target_fs: FileSystem,
               names: Sequence[str], slot: int,
               source: int = 0, target: int = 1) -> Shipment:
    """Run the five-step shipping protocol for *names*; returns the shipment.

    *source*/*target* are the shard indices recorded in the manifest (the
    router passes its own; standalone callers can leave the defaults).
    Both file systems are flushed at every durability point, so the
    protocol is crash-safe on write-back drives too.
    """
    shipment = Shipment(slot=slot, source=source, target=target,
                        names=list(names))
    obs = target_fs.drive.clock.obs
    with obs.span("router.rebalance", "router", slot=slot,
                  files=len(shipment.names)):
        # 1. stage: durable complete copies under temp names.
        for name in shipment.names:
            _copy_file(source_fs, target_fs, name, name + SHIP_SUFFIX)
        target_fs.flush()
        # 2. commit: manifest shadow, flush, rename (the commit point).
        _delete_if_present(target_fs, MANIFEST_SHADOW)
        target_fs.create_file(MANIFEST_SHADOW).write_data(shipment.encode())
        target_fs.flush()
        _delete_if_present(target_fs, MANIFEST_NAME)
        target_fs.rename_file(MANIFEST_SHADOW, MANIFEST_NAME)
        target_fs.flush()
        # 3-5. expose, retire, clean -- identical to the roll-forward path.
        _finish_shipment(source_fs, target_fs, shipment)
    return shipment


def _finish_shipment(source_fs: FileSystem, target_fs: FileSystem,
                     shipment: Shipment) -> None:
    """Steps 3-5, written to be idempotent (the roll-forward replays them)."""
    for name in shipment.names:
        finals = [v for v in _variants(target_fs, name)
                  if not v.lower().startswith(name.lower() + SHIP_SUFFIX)]
        temps = _variants(target_fs, name + SHIP_SUFFIX)
        if finals:
            # Already exposed (we are re-running after a crash): drop temps.
            for temp in temps:
                _delete_if_present(target_fs, temp)
        elif temps:
            # Expose the staged copy; extra rescued temp variants go away.
            target_fs.rename_file(temps[0], name)
            for temp in temps[1:]:
                _delete_if_present(target_fs, temp)
    target_fs.flush()
    for name in shipment.names:
        for stale in _variants(source_fs, name):
            _delete_if_present(source_fs, stale)
    source_fs.flush()
    for manifest in _variants(target_fs, MANIFEST_NAME):
        _delete_if_present(target_fs, manifest)
    target_fs.flush()


def recover_shipment(source_fs: FileSystem,
                     target_fs: FileSystem) -> Optional[Shipment]:
    """Converge a possibly crashed shipment; both packs already scavenged.

    Returns the committed :class:`Shipment` when the manifest survived
    (the move is rolled forward and the slot belongs to the target), or
    ``None`` when it did not (staged temps are rolled back and the slot
    stays with the source).

    >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
    >>> a = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    >>> b = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    >>> recover_shipment(a, b) is None       # nothing in flight: a no-op
    True
    """
    manifest_data: Optional[bytes] = None
    try:
        manifest_data = target_fs.open_file(MANIFEST_NAME).read_data()
    except ReproError:
        manifest_data = None
    if manifest_data is not None:
        try:
            shipment = Shipment.decode(manifest_data)
        except (ValueError, IndexError, UnicodeDecodeError):
            # A manifest that does not parse cannot have been committed:
            # the commit rename happens only after its data is durably
            # complete.  Treat it as uncommitted wreckage.
            shipment = None
        if shipment is not None:
            _finish_shipment(source_fs, target_fs, shipment)
            return shipment
    # Roll back: no committed manifest -- delete staged wreckage; the
    # source copies were never touched before the commit point.
    for name in list(target_fs.list_files()):
        folded = name.lower()
        if SHIP_SUFFIX in folded or folded.startswith(MANIFEST_NAME.lower()):
            _delete_if_present(target_fs, name)
    target_fs.flush()
    return None


# ----------------------------------------------------------------------------
# The exhaustive rebalance crash sweep (``python -m repro crashtest --rebalance``)
# ----------------------------------------------------------------------------


class _TaggedPlan(FaultPlan):
    """A fault plan that logs each write it sees into a shared, globally
    ordered list -- the coordinate system for crash points spanning two
    packs."""

    def __init__(self, image, seed: int, tag: str, log: List[str]) -> None:
        super().__init__(image, seed=seed)
        self.tag = tag
        self.log = log

    def before_part(self, drive, address, part, action):
        if action == "write" and not self.crashed:
            self.log.append(self.tag)
        super().before_part(drive, address, part, action)


def _build_shipping_lab(seed: int, cylinders: int):
    """Two deterministic packs plus the moving name set.

    The source pack gets ten files; the slot chosen to move is the one
    holding the most of them (at least two with the default seed), so the
    sweep exercises multi-file shipments.
    """
    source_image = DiskImage(tiny_test_disk(cylinders=cylinders))
    target_image = DiskImage(tiny_test_disk(cylinders=cylinders))
    source_fs = FileSystem.format(DiskDrive(source_image))
    target_fs = FileSystem.format(DiskDrive(target_image))
    rng = random.Random(seed)
    contents: Dict[str, bytes] = {}
    for i in range(10):
        name = f"ship{i}.dat"
        data = random_bytes(rng, rng.randrange(80, 1500))
        source_fs.create_file(name).write_data(data)
        contents[name] = data
    stay = random_bytes(rng, 700)
    target_fs.create_file("resident.dat").write_data(stay)
    source_fs.sync()
    target_fs.sync()

    shard_map = ShardMap(shards=2, seed=seed)
    by_slot: Dict[int, List[str]] = {}
    for name in contents:
        by_slot.setdefault(shard_map.slot_of(name), []).append(name)
    slot = max(by_slot, key=lambda s: (len(by_slot[s]), -s))
    moving = sorted(by_slot[slot])
    return (source_image, target_image, contents, {"resident.dat": stay},
            slot, moving)


@dataclass
class ShipmentReport(PointReport):
    """One crash point's recovery verdict."""

    rolled: str = ""  # "forward" or "back"

    def __str__(self) -> str:
        status = "ok" if self.ok else "; ".join(self.problems)
        return f"crash@{self.crash_point} rolled {self.rolled or '?'}: {status}"

    @staticmethod
    def summarize(result: SweepResult) -> str:
        forward = sum(1 for r in result.reports if r.rolled == "forward")
        return (f"{result.points_tested}/{result.total_writes} shipping crash "
                f"points swept: {result.verdict()} ({forward} rolled forward, "
                f"{result.points_tested - forward} rolled back)")


def _check_shipping_recovery(
    source_image, target_image, moving: Sequence[str],
    source_contents: Dict[str, bytes], target_contents: Dict[str, bytes],
    report: ShipmentReport,
) -> None:
    """Scavenge, recover, and assert every shipping invariant."""
    try:
        Scavenger(DiskDrive(source_image)).scavenge()
        Scavenger(DiskDrive(target_image)).scavenge()
        source_fs = FileSystem.mount(DiskDrive(source_image))
        target_fs = FileSystem.mount(DiskDrive(target_image))
        shipment = recover_shipment(source_fs, target_fs)
    except ReproError as exc:
        report.note(f"recovery failed: {type(exc).__name__}: {exc}")
        return
    report.rolled = "forward" if shipment is not None else "back"
    if shipment is not None and sorted(shipment.names) != sorted(moving):
        report.note(f"manifest names {shipment.names} != moving set {moving}")

    # The invariant: every moving name intact on exactly one pack -- and
    # all on the *same* pack, so the slot stays whole.  A crash after the
    # manifest was cleaned up legitimately recovers as "back" even though
    # the shipment completed, so the winner is found per name, not
    # assumed from the roll direction.
    source_names = set(source_fs.list_files())
    target_names = set(target_fs.list_files())
    homes = set()
    for name in moving:
        on_source, on_target = name in source_names, name in target_names
        if on_source and on_target:
            report.note(f"{name}: present on BOTH packs after recovery")
            continue
        if not on_source and not on_target:
            report.note(f"{name}: lost -- on neither pack after recovery")
            continue
        winner_fs = source_fs if on_source else target_fs
        homes.add("source" if on_source else "target")
        try:
            found = winner_fs.open_file(name).read_data()
        except ReproError as exc:
            report.note(f"{name}: unreadable after recovery ({type(exc).__name__})")
            continue
        if found != source_contents[name]:
            report.note(f"{name}: contents changed in shipping "
                        f"({len(found)} bytes found)")
    if len(homes) > 1:
        report.note(f"moving names split across packs: {sorted(homes)}")

    # Files outside the moving range never move and never change.
    for name, data in source_contents.items():
        if name in moving:
            continue
        try:
            if source_fs.open_file(name).read_data() != data:
                report.note(f"{name}: bystander source file changed")
        except ReproError as exc:
            report.note(f"{name}: bystander source file lost ({type(exc).__name__})")
    for name, data in target_contents.items():
        try:
            if target_fs.open_file(name).read_data() != data:
                report.note(f"{name}: bystander target file changed")
        except ReproError as exc:
            report.note(f"{name}: bystander target file lost ({type(exc).__name__})")

    # No protocol residue survives recovery.
    for name in source_fs.list_files() + target_fs.list_files():
        lowered = name.lower()
        if SHIP_SUFFIX in lowered or lowered.startswith(MANIFEST_NAME.lower()):
            report.note(f"protocol residue {name!r} survived recovery")

    # Both packs pass the read-only fsck (the replica-unit property).
    for label, img in (("source", source_image), ("target", target_image)):
        for issue in check_image(img).issues:
            if issue.kind not in TOLERATED_ISSUES:
                report.note(f"fsck[{label}]: {issue}")


def rebalance_crash_sweep(
    seed: int = 1979,
    cylinders: int = 20,
    tear: bool = False,
    points: Optional[Sequence[int]] = None,
    on_point: Optional[Callable[[ShipmentReport], None]] = None,
    cached: bool = False,
) -> SweepResult:
    """Crash pack shipping at every part-write across both packs.

    Writes on the two drives are globally ordered by a shared log, so
    crash point N means "the Nth write the whole protocol performed,
    whichever pack it landed on".  Each point replays the shipment from
    image snapshots with the crash (clean, or torn with *tear*) scheduled
    there, scavenges **both** packs, runs :func:`recover_shipment`, and
    checks that the moving names survive intact on exactly one pack.
    """
    drive_type = CachedDrive if cached else DiskDrive
    (source_image, target_image, source_contents, target_contents,
     slot, moving) = _build_shipping_lab(seed, cylinders)
    source_base = source_image.snapshot()
    target_base = target_image.snapshot()

    def run(n: int = 0) -> Tuple[List[str], str]:
        """Replay the shipment from the snapshots with a fault at global
        write *n* (0: none); returns the write log and the crash reason."""
        source_image.restore(source_base)
        target_image.restore(target_base)
        log: List[str] = []
        source_plan = _TaggedPlan(source_image, seed, "s", log)
        target_plan = _TaggedPlan(target_image, seed + 1, "t", log)
        if n:
            # Schedule on the pack the write lands on; mounting performs
            # no writes, so scheduling before the run is safe.
            victim = source_plan if order[n - 1] == "s" else target_plan
            local = order[:n].count(order[n - 1])
            (victim.tear_at_write if tear else victim.crash_at_write)(local)
        try:
            ship_names(
                FileSystem.mount(drive_type(source_image, fault_injector=source_plan)),
                FileSystem.mount(drive_type(target_image, fault_injector=target_plan)),
                moving, slot)
        except PowerFailure as exc:
            return log, str(exc)
        return log, ""

    order = run()[0]  # the counting pass: its log is the global write order

    def check_point(n: int) -> ShipmentReport:
        report = ShipmentReport(crash_point=n, crash_reason=run(n)[1])
        if not report.crash_reason:
            report.note(f"fault at global write {n} never fired")
        _check_shipping_recovery(source_image, target_image, moving,
                                 source_contents, target_contents, report)
        return report

    return sweep_points(len(order), points, check_point, on_point,
                        kind=ShipmentReport)
