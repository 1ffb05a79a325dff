"""Incremental scavenge/compaction: bounded slices, verified boundaries.

The offline tools own the pack for a full run; :class:`OnlineMaintenance`
must do the same repairs in budgeted slices *while the file system stays
live* -- so the tests check three things the offline suite cannot: that
work actually arrives in bounded pieces, that every boundary passes the
consistency check, and that a server interleaving slices with request
service corrupts nothing.
"""

import pytest

from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
from repro.disk import FaultPlan
from repro.disk.sector import Label
from repro.errors import PowerFailure
from repro.fs.descriptor import BOOT_PAGE_ADDRESS
from repro.fs.fsck import check_image
from repro.fs.online import (
    DEFAULT_BUDGET_US,
    MaintenanceInvariantError,
    OnlineMaintenance,
    PHASE_DONE,
    PHASE_SWEEP,
)
from repro.words import words_to_bytes
from tests.fs.test_fsck import rewrite_descriptor_word

GARBAGE_LABEL = Label(serial=0x0042, version=1, page_number=1, length=0)


def build_fs(files=3):
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    for i in range(files):
        fs.create_file(f"f{i}.dat").write_data(bytes([i]) * (600 + 100 * i))
    return fs


def plant_garbage(fs, count=3):
    """Stamp in-use-but-unparseable labels on free sectors near the top."""
    image = fs.drive.image
    planted = []
    for address in range(image.shape.total_sectors() - 1, 1, -1):
        if len(planted) == count:
            break
        if address == BOOT_PAGE_ADDRESS or not fs.allocator.is_free(address):
            continue
        sector = image.sector(address)
        if not Label.unpack(sector.label_words()).is_free:
            continue
        sector.set_label_words(GARBAGE_LABEL.pack())
        planted.append(address)
    assert len(planted) == count
    return planted


def test_clean_pack_finishes_with_verified_boundaries():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    report = maint.run_to_completion()
    assert maint.phase == PHASE_DONE
    assert report.passes == 1
    assert report.slices == report.checks_passed   # every boundary verified
    assert report.sectors_audited == fs.drive.shape.total_sectors()
    assert not check_image(fs.drive.image).issues


def test_slices_are_time_bounded():
    fs = build_fs()
    maint = OnlineMaintenance(fs, budget_us=5_000)
    before = fs.drive.clock.now_us
    assert maint.step()
    elapsed = fs.drive.clock.now_us - before
    # One slice: the budget, plus at most one overshooting work unit and
    # the boundary flush -- never a whole-pack pause.
    assert elapsed < 20 * 5_000
    assert maint.report.slices == 1


def test_sweep_repairs_map_drift_in_both_directions():
    fs = build_fs()
    allocator = fs.allocator
    # A lost page: the map says busy, the label says free.
    lost = next(a for a in range(2, fs.drive.shape.total_sectors())
                if allocator.is_free(a) and a != BOOT_PAGE_ADDRESS)
    allocator.mark_busy(lost)
    # The other drift: the map says free, the label says in use.
    used = next(a for a in range(2, fs.drive.shape.total_sectors())
                if not allocator.is_free(a)
                and fs.drive.read_label(a).in_use)
    allocator.mark_free(used)
    report = OnlineMaintenance(fs).run_to_completion()
    assert report.map_freed >= 1
    assert report.map_busied >= 1
    assert allocator.is_free(lost)
    assert not allocator.is_free(used)


def test_sweep_frees_garbage_labels_and_tolerates_them_as_baseline():
    fs = build_fs()
    planted = plant_garbage(fs, count=3)
    assert any(i.kind == "garbage-label" for i in check_image(fs.drive.image).issues)
    # "garbage-label" is NOT in the tolerated kinds -- only the baseline
    # capture keeps the first boundary from declaring the patrol guilty
    # of damage it merely inherited.
    report = OnlineMaintenance(fs).run_to_completion()
    assert report.garbage_labels_freed == 3
    for address in planted:
        assert fs.allocator.is_free(address)
    assert not check_image(fs.drive.image).issues


def test_power_failure_while_freeing_garbage_surfaces_at_once():
    """A crash at the label write that frees a garbage label is the crash
    itself, not a failure to shrug off until the next command finds the
    machine down."""
    fs = build_fs()
    plant_garbage(fs, count=1)
    fs.drive.fault_injector = FaultPlan(fs.drive.image).crash_at_point("label:write")
    with pytest.raises(PowerFailure, match="^power failed at trace point label:write"):
        OnlineMaintenance(fs).run_to_completion()


def test_an_off_pack_header_is_a_verdict_not_a_crash():
    """A header address word off the pack, landing after the baseline,
    is an invariant failure of the boundary, not an escaping
    ``AddressOutOfRange``."""
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    assert maint.step()
    image = fs.drive.image
    address = next(a for a, s in enumerate(image.sectors())
                   if s.label.in_use and s.label.page_number > 1)
    FaultPlan(image).flip_bits(address, "header", 1, 1 << 15)
    with pytest.raises(MaintenanceInvariantError, match="off-pack-header"):
        maint.step()


def test_new_damage_past_the_baseline_is_fatal():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    assert maint.step()                       # baseline captured clean
    plant_garbage(fs, count=1)                # damage appears *after* it
    with pytest.raises(MaintenanceInvariantError):
        maint.run_to_completion()


# Descriptor word 7 is the root serial's high word (flag bits 15 and 14);
# word 9 is the root version.
@pytest.mark.parametrize("index, change", [(7, lambda high: high & 0x3FFF),
                                           (9, lambda version: 0)],
                         ids=["root-serial-flags", "root-version"])
def test_an_undecodable_descriptor_root_is_a_verdict(index, change):
    """The checker reports a root name it cannot decode; it does not crash."""
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    assert maint.step()
    rewrite_descriptor_word(fs.drive.image, index, change)
    with pytest.raises(MaintenanceInvariantError, match="bad-descriptor"):
        maint.step()


def test_compaction_moves_pages_down_without_breaking_files():
    fs = build_fs(files=6)
    # Free the low end of the pack so the top has somewhere to go.
    for i in range(3):
        fs.delete_file(f"f{i}.dat")
    maint = OnlineMaintenance(fs)
    report = maint.run_to_completion()
    assert report.pages_moved > 0
    for i in range(3, 6):
        assert fs.open_file(f"f{i}.dat").read_data() == bytes([i]) * (600 + 100 * i)
    assert not check_image(fs.drive.image).issues


def test_open_handle_survives_compaction_moving_every_page():
    """Compaction moves a page *and* the cached neighbour a re-walk would
    start from; the handle must fall back to walking from the leader."""
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    for i in range(6):
        fs.create_file(f"filler{i}.dat").write_data(bytes([i]) * 3072)
    data = bytes(range(256)) * 40                # 20 full pages
    fs.create_file("target.dat").write_data(data)
    for i in range(6):
        fs.delete_file(f"filler{i}.dat")
    handle = fs.open_file("target.dat")
    for page_number in range(1, handle.last_page_number + 1):
        handle.read_page(page_number)            # caches every address
    report = OnlineMaintenance(fs).run_to_completion()
    assert report.pages_moved == handle.last_page_number
    contents = handle.read_page(10)
    assert words_to_bytes(contents.value) == data[9 * 512:10 * 512]
    assert handle.read_data() == data


def test_continuous_patrol_restarts_after_done():
    fs = build_fs()
    maint = OnlineMaintenance(fs, continuous=True)
    slices = 0
    while maint.report.passes < 2:
        assert maint.step()                   # a patrol never reports done
        slices += 1
        assert slices < 10_000
    assert maint.report.passes == 2
    assert maint.report.sectors_audited >= 2 * fs.drive.shape.total_sectors()


def test_one_shot_maintenance_stays_done():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    maint.run_to_completion()
    assert maint.step() is False
    assert maint.report.passes == 1


def test_maintenance_interleaves_with_request_service():
    from repro.net import PacketNetwork
    from repro.server import FileClient, FileServer

    fs = build_fs(files=0)
    plant_garbage(fs, count=2)
    net = PacketNetwork(clock=fs.drive.clock)
    net.attach("fileserver")
    net.attach("ws")
    server = FileServer(fs, net)
    server.maintenance = OnlineMaintenance(fs)
    client = FileClient(net, "ws", pump=server.poll)
    # Requests are served while slices run between poll cycles.
    for i in range(4):
        client.write_file(f"live{i}.txt", bytes([0x40 + i]) * 900)
    while server.maintenance.step():
        pass
    for i in range(4):
        assert client.read_file(f"live{i}.txt") == bytes([0x40 + i]) * 900
    report = server.maintenance.report
    assert report.garbage_labels_freed == 2
    assert report.checks_passed > 0
    assert not check_image(fs.drive.image).issues


# -- the boundary check, incremental vs full (property) ------------------------

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.disk.sector import DIRECTORY_SERIAL_FLAG  # noqa: E402
from repro.fs import PackIndex  # noqa: E402
from repro.fs.descriptor import DESCRIPTOR_LEADER_ADDRESS  # noqa: E402
from repro.fs.online import ONLINE_TOLERATED_ISSUES  # noqa: E402
from repro.server.replica import apply_record  # noqa: E402
from tests.fs.fsck_reference import check_image as reference_check  # noqa: E402

#: Wear kinds; "off-pack" flips a high bit of the header address word
#: (past the end of any test pack), and the three "-value" kinds flip one
#: value bit in place, on a leader, a directory data page and a descriptor
#: data page.  The rest take every other raw route to the platter: a swap,
#: journal records of each part, an installed copy, a restore, and the
#: carried index handed a second pack.
WEAR = ("garbage", "links", "duplicate", "header", "off-pack", "leader-value",
        "directory-value", "descriptor-value", "swap", "header-record",
        "label-record", "value-record", "set-sector", "restore", "switch")


def wear_targets(image, kind):
    """Physical addresses of the in-use sectors *kind* may land on."""
    descriptor = image.sector(DESCRIPTOR_LEADER_ADDRESS).label
    wanted = {
        # Label page numbers are biased by one: 1 is a leader.
        "leader-value": lambda label: label.page_number == 1,
        "directory-value": lambda label: (label.page_number > 1 and bool(
            label.serial & DIRECTORY_SERIAL_FLAG)),
        "descriptor-value": lambda label: (label.page_number > 1 and (
            label.serial, label.version) == (descriptor.serial, descriptor.version)),
    }.get(kind, lambda label: True)
    return [address for address, sector in enumerate(image.sectors())
            if sector.label.in_use and wanted(sector.label)]


def apply_wear(plan, image, kind, pick, word, bit, earlier, live):
    """One piece of wear, behind the drive, aimed by *pick*.  *earlier* is
    a snapshot of the pack; *live* the carried index.  Returns True when
    *live*'s next check of *image* must re-derive in full."""
    if kind == "restore":
        image.restore(earlier)
        return True
    if kind == "switch":
        assert outcome(check_image, earlier, live) == outcome(reference_check, earlier)
        return True
    targets = wear_targets(image, kind)
    if not targets:
        return False
    address = targets[pick % len(targets)]
    other = targets[(pick + word + 1) % len(targets)]
    if kind == "garbage":
        plan.scramble_label(address)
    elif kind == "links":
        plan.scramble_links(address)
    elif kind == "duplicate":
        free = [a for a, sector in enumerate(image.sectors()) if sector.label.is_free]
        copy = image.sector(free[pick % len(free)])
        copy.label = image.sector(address).label
        copy.value = list(image.sector(address).value)
    elif kind == "header":
        plan.flip_bits(address, "header", word % 2, 1 << bit)
    elif kind == "off-pack":
        plan.flip_bits(address, "header", 1, 1 << (8 + bit % 8))
    elif kind == "swap":
        plan.swap_sectors(address, other)
    elif kind.endswith("-record"):
        part = kind[:-len("-record")]
        sector = image.sector(address)
        words = list({"header": sector.header_words(), "label": sector.label_words(),
                      "value": sector.value}[part])
        words[word % len(words)] ^= 1 << bit
        apply_record(image, address, part, words)
    elif kind == "set-sector":
        image.set_sector(other, image.sector(address).copy())
    else:
        plan.flip_bits(address, "value", word, 1 << bit)
    return False


def outcome(check, *args):
    """A check's report, or the type and text of what it raised."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - raising alike is part of the contract
        return (type(exc), str(exc))


wear = st.tuples(st.sampled_from(WEAR), st.integers(0, 10_000),
                 st.integers(0, 40), st.integers(0, 15))


@settings(deadline=None)
@given(
    sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=6),
    deleted=st.integers(0, 5),
    before=st.lists(wear, max_size=4),
    during=st.lists(st.tuples(st.integers(1, 60), wear), max_size=4),
    seed=st.integers(0, 2**16),
)
def test_every_boundary_verdict_matches_the_full_pass(sizes, deleted, before,
                                                       during, seed):
    """Slice by slice, with wear landing between slices: a carried index,
    a fresh one and the verbatim full pass agree on every report (issue
    order included) or raise alike, and the maintainer raises
    ``MaintenanceInvariantError`` exactly at the boundaries where the full
    pass shows a non-tolerated issue outside the first boundary's.  The
    carried index re-derives in full only on its first call, after a
    restore, after it checked another pack, and after a call that raised:
    the maintainer's own index reading the same change log takes nothing
    from it."""
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    image = fs.drive.image
    for i, size in enumerate(sizes):
        fs.create_file(f"f{i}.dat").write_data(bytes([i]) * size)
    if deleted < len(sizes) - 1:
        fs.delete_file(f"f{deleted}.dat")
    fs.sync()
    earlier = image.snapshot()
    plan = FaultPlan(image, seed=seed)
    live = PackIndex()
    for piece in before:
        apply_wear(plan, image, *piece, earlier, live)
    schedule = {}
    for slice_number, piece in during:
        schedule.setdefault(slice_number, []).append(piece)

    maint = OnlineMaintenance(fs)
    baseline = None
    fresh = True  # live's next check of image must be a full pass
    for slice_number in range(1, 400):
        for piece in schedule.get(slice_number, ()):
            fresh |= apply_wear(plan, image, *piece, earlier, live)
        try:
            more = maint.step()
            raised = None
        except Exception as exc:  # noqa: BLE001 - compared below
            more, raised = maint.phase != PHASE_DONE, exc
        full = outcome(reference_check, image)
        full_passes = live.full_passes
        carried = outcome(check_image, image, live)
        assert carried == full
        assert live.full_passes - full_passes == fresh, (slice_number, fresh)
        fresh = isinstance(carried, tuple)
        assert outcome(check_image, image) == full
        if (raised is not None and not isinstance(raised, MaintenanceInvariantError)
                and (type(raised), str(raised)) != full):
            return  # the slice's own work failed on the wear, before its check
        if isinstance(full, tuple):
            # The full pass itself raises: the boundary must raise alike.
            assert raised is not None and (type(raised), str(raised)) == full
        else:
            if baseline is None:
                baseline = {(issue.kind, issue.address) for issue in full.issues}
            fatal = [issue for issue in full.issues
                     if issue.kind not in ONLINE_TOLERATED_ISSUES
                     and (issue.kind, issue.address) not in baseline]
            assert isinstance(raised, MaintenanceInvariantError) == bool(fatal), (
                slice_number, fatal, raised)
        if not more:
            break
