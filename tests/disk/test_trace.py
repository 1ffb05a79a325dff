"""The per-command disk trace: one ``disk.transfer`` span per command.

While tracing is on, every sector command the drive executes records a
``disk.transfer`` span whose ``address``, ``cylinder`` and ``parts``
arguments say where the arm went and what the head did there.  These tests
read those records back, on single commands and on real workloads.
"""

import pytest

from repro.disk import DiskDrive, DiskImage, Label, tiny_test_disk, value_words
from repro.fs import FileSystem


def trace(drive):
    """Turn tracing on for *drive*'s clock; returns the drive."""
    drive.clock.obs.enable_tracing()
    return drive


def transfers(drive):
    """The ``disk.transfer`` spans recorded so far, in command order."""
    return drive.clock.obs.tracer.find("disk.transfer")


def addresses(drive):
    return [span.args["address"] for span in transfers(drive)]


def sequentiality(visited):
    """Fraction of consecutive commands that hit the next address."""
    hits = sum(1 for previous, current in zip(visited, visited[1:])
               if current == previous + 1)
    return hits / (len(visited) - 1)


@pytest.fixture
def traced():
    return trace(DiskDrive(DiskImage(tiny_test_disk(cylinders=20))))


def in_use(page=1):
    return Label(serial=0x4000_0001, version=1, page_number=page, length=0)


class TestRecording:
    def test_records_commands(self, traced):
        traced.read_sector(0)
        traced.read_label(5)
        first, second = transfers(traced)
        assert (first.args["address"], second.args["address"]) == (0, 5)
        assert first.args["parts"] == "header:read,label:read,value:read"
        assert second.args["parts"] == "label:read"

    def test_records_part_actions(self, traced):
        traced.check_label_then_rewrite(4, Label.free(), in_use(), value_words([]))
        assert [span.args["parts"] for span in transfers(traced)] == [
            "label:check", "label:write,value:write"]

    def test_timing_is_unchanged_by_tracing(self):
        plain = DiskDrive(DiskImage(tiny_test_disk(cylinders=20)))
        traced_drive = trace(DiskDrive(DiskImage(tiny_test_disk(cylinders=20))))
        for drive in (plain, traced_drive):
            for address in (0, 30, 7, 200):
                drive.read_sector(address)
        assert plain.clock.now_us == traced_drive.clock.now_us
        assert plain.clock.tallies() == traced_drive.clock.tallies()
        assert addresses(traced_drive) == [0, 30, 7, 200]

    def test_detach_and_clear(self, traced):
        traced.read_sector(0)
        traced.clock.obs.disable_tracing()
        traced.read_sector(1)
        assert addresses(traced) == [0]
        traced.clock.obs.tracer.clear()
        assert transfers(traced) == []


class TestSummaries:
    def test_arm_travel_and_seeks(self, traced):
        """The cylinder argument follows the arm, so its travel reads off
        the trace."""
        per_cyl = traced.shape.sectors_per_cylinder()
        traced.read_sector(0)                # cylinder 0
        traced.read_sector(5 * per_cyl)      # cylinder 5
        traced.read_sector(2 * per_cyl)      # cylinder 2
        cylinders = [span.args["cylinder"] for span in transfers(traced)]
        assert cylinders == [0, 5, 2]
        assert sum(abs(b - a) for a, b in zip(cylinders, cylinders[1:])) == 8


class TestTraceOnRealWorkloads:
    def test_scavenge_sweep_is_sequential(self):
        """The trace confirms the sweep's physical-order access pattern."""
        from repro.fs import Scavenger

        image = DiskImage(tiny_test_disk(cylinders=20))
        fs = FileSystem.format(DiskDrive(image))
        fs.create_file("a.dat").write_data(b"z" * 2000)
        fs.sync()
        drive = trace(DiskDrive(image))
        Scavenger(drive).scavenge()
        visited = addresses(drive)
        sweep = visited[: image.shape.total_sectors()]
        assert sweep == sorted(sweep)
        assert sequentiality(visited) > 0.8

    def test_scattered_vs_compacted_read_patterns(self):
        from repro.fs import Compactor

        image = DiskImage(tiny_test_disk(cylinders=30))
        fs = FileSystem.format(DiskDrive(image))
        fs.create_file("seq.dat").write_data(b"q" * 4000)
        Compactor(fs.drive).compact()
        fs2 = FileSystem.mount(DiskDrive(image))
        trace(fs2.drive)
        fs2.open_file("seq.dat").read_data()
        assert sequentiality(addresses(fs2.drive)) > 0.5  # consecutive pages, few jumps
