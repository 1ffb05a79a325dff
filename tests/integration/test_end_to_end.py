"""End-to-end integration: the whole system working together."""

import pytest

from repro.disk import DiskDrive, DiskImage, diablo31, tiny_test_disk
from repro.fs import Compactor, FileSystem
from repro.os import AltoOS, CodeFile, write_code_file
from repro.streams import open_read_stream, read_string
from repro.world import Halt, WorldProgram, create_boot_file, hardware_boot


class TestFullSessions:
    def test_executive_session_then_remount(self, image, drive):
        os = AltoOS.format(drive)
        os.run_executive(
            "write report.txt the label check is crucial\n"
            "write notes.txt hints are only hints\n"
            "quit\n"
        )
        os.fs.sync()
        os2 = AltoOS.mount(DiskDrive(image))
        out = os2.run_executive("type report.txt\nquit\n")
        assert "the label check is crucial" in out

    def test_program_junta_counterjunta_cycle(self, drive):
        """A program takes the machine with Junta, uses the space, returns
        via CounterJunta, and the Executive continues."""
        os = AltoOS.format(drive)

        def greedy(o, args):
            freed = o.call_junta(4)
            from repro.memory import Zone

            zone = Zone(freed, "greedy")
            zone.allocate(5000)  # use the system's memory for ourselves
            o.call_counter_junta()
            return "had the machine"

        os.executables.register("Greedy", greedy)
        write_code_file(os.fs, "greedy.run", CodeFile(entry="Greedy", code=[0]))
        out = os.run_executive("greedy\nls\nquit\n")
        assert "had the machine" in out
        assert os.junta.retained_level() == 13

    def test_scavenge_compact_remount_boot(self, image):
        """Format, fill, corrupt, scavenge, compact, install a boot world,
        press the button."""
        drive = DiskDrive(image)
        os = AltoOS.format(drive)
        for i in range(6):
            ws = os.write_stream(f"doc{i}.txt")
            for b in (f"document {i} " * 30).encode():
                ws.put(b)
            ws.close()
        os.fs.sync()

        from repro.disk import FaultPlan

        plan = FaultPlan(image, seed=99)
        for address in plan.random_in_use_addresses(5):
            plan.scramble_links(address)
        os.scavenge()
        Compactor(os.drive).compact()

        fs = FileSystem.mount(DiskDrive(image, clock=drive.clock))
        os2 = AltoOS.mount(DiskDrive(image, clock=drive.clock))

        class Greeter(WorldProgram):
            name = "greeter"

            def phase_saved(self, ctx, message):
                return Halt("booted")

        os2.programs.register(Greeter)
        create_boot_file(os2.fs)
        os2.engine.swapper.outload("Sys.boot", "greeter", "saved")
        assert hardware_boot(os2.engine) == "booted"

    def test_two_thousand_operations(self, rng):
        """A long random workload keeps the file system coherent."""
        drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=40)))
        fs = FileSystem.format(drive)
        shadow = {}
        for step in range(300):
            op = rng.choice(["create", "write", "read", "delete", "rename"])
            if op == "create" and len(shadow) < 20:
                name = f"f{step}.dat"
                fs.create_file(name)
                shadow[name] = b""
            elif op == "write" and shadow:
                name = rng.choice(sorted(shadow))
                data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 1600)))
                fs.open_file(name).write_data(data)
                shadow[name] = data
            elif op == "read" and shadow:
                name = rng.choice(sorted(shadow))
                assert fs.open_file(name).read_data() == shadow[name]
            elif op == "delete" and shadow:
                name = rng.choice(sorted(shadow))
                fs.delete_file(name)
                del shadow[name]
            elif op == "rename" and shadow:
                name = rng.choice(sorted(shadow))
                new = f"r{step}.dat"
                fs.rename_file(name, new)
                shadow[new] = shadow.pop(name)
        # Everything still reads back, even after a scavenge.
        from repro.fs import Scavenger

        Scavenger(DiskDrive(drive.image, clock=drive.clock)).scavenge()
        fs2 = FileSystem.mount(DiskDrive(drive.image, clock=drive.clock))
        for name, data in shadow.items():
            assert fs2.open_file(name).read_data() == data


class TestPaperScaleNumbers:
    def test_full_disk_scavenge_time_is_about_a_minute(self):
        """Section 3.5: "it takes about a minute for a 2.5 megabyte disk".
        Same order of magnitude required here (the bench reports exactly)."""
        drive = DiskDrive(DiskImage(diablo31()))
        fs = FileSystem.format(drive)
        for i in range(40):
            fs.create_file(f"file{i:03}.dat").write_data(bytes([i]) * (i * 211 % 4096))
        fs.sync()
        from repro.fs import Scavenger

        report = Scavenger(DiskDrive(drive.image)).scavenge()
        assert 15.0 < report.elapsed_s < 120.0

    def test_memory_is_never_exceeded_by_the_table(self):
        """48 bits/sector must fit in 64k words for the standard disk."""
        from repro.memory.core import MEMORY_WORDS

        assert 3 * diablo31().total_sectors() <= MEMORY_WORDS
