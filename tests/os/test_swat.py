"""Tests for Swat, the state-file debugger."""

import pytest

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.fs import FileSystem
from repro.os.swat import Swat
from repro.world import (
    Halt,
    Machine,
    ProgramRegistry,
    Transfer,
    WorldEngine,
    WorldProgram,
)


@pytest.fixture
def world():
    drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=60)))
    fs = FileSystem.format(drive)
    machine = Machine()
    registry = ProgramRegistry()
    engine = WorldEngine(machine, fs, registry)
    return machine, fs, registry, engine


@pytest.fixture
def swatee(world):
    machine, fs, registry, engine = world
    machine.memory.write_block(0x2000, [10, 20, 30, 40])
    machine.set_register(3, 0x077)
    engine.swapper.outload("Swatee", "victim", "checkpointed")
    return world


class TestExamining:
    def test_where(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        assert swat.where() == ("victim", "checkpointed")

    def test_read_memory_and_registers(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        assert swat.read_block(0x2000, 4) == [10, 20, 30, 40]
        assert swat.read_register(3) == 0x077

    def test_search(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        assert 0x2002 in swat.search(30)

    def test_dump_format(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        line = swat.dump(0x2000, 4)
        assert line == "2000: 000a 0014 001e 0028"

    def test_bounds(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        with pytest.raises(IndexError):
            swat.read_word(0x10000)
        with pytest.raises(IndexError):
            swat.read_register(9)


class TestAltering:
    def test_patch_commit_reload(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        swat.write_word(0x2001, 999)
        swat.write_register(0, 5)
        swat.commit()
        again = Swat(fs)
        assert again.read_word(0x2001) == 999
        assert again.read_register(0) == 5

    def test_patches_never_touch_the_live_machine(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        swat.write_word(0x2000, 0xDEAD)
        swat.commit()
        assert machine.memory[0x2000] == 10  # live machine untouched

    def test_word_validation(self, swatee):
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        with pytest.raises(ValueError):
            swat.write_word(0, 0x10000)

    def test_float_words_are_refused_before_the_commit(self, swatee):
        """Refused at the write, not stored to make commit() raise."""
        machine, fs, registry, engine = swatee
        swat = Swat(fs)
        with pytest.raises(ValueError):
            swat.write_word(0x2000, 1.5)
        with pytest.raises(ValueError):
            swat.write_register(3, 1.5)
        assert not swat.dirty
        swat.commit()
        again = Swat(fs)
        assert again.read_word(0x2000) == 10
        assert again.read_register(3) == 0x077


class TestResuming:
    def test_full_debug_cycle(self, world):
        """Victim breakpoints, Swat patches the bug, victim completes."""
        machine, fs, registry, engine = world

        @registry.register
        class Victim(WorldProgram):
            name = "victim"

            def phase_start(self, ctx, message):
                ctx.machine.memory[0x1500] = 0  # BUG: divisor of zero
                ctx.outload("Swatee", "compute")
                return Transfer("Debugger.state")

            def phase_compute(self, ctx, message):
                divisor = ctx.machine.memory[0x1500]
                if divisor == 0:
                    return Halt("would have crashed")
                return Halt(1000 // divisor)

        @registry.register
        class Debugger(WorldProgram):
            name = "debugger"

            def phase_start(self, ctx, message):
                swat = Swat(ctx.fs)
                assert swat.where() == ("victim", "compute")
                swat.write_word(0x1500, 8)  # fix the divisor
                return swat.resume()

        engine.swapper.outload("Debugger.state", "debugger", "start")
        assert engine.run("victim") == 125

    def test_resume_redirects_phase(self, world):
        machine, fs, registry, engine = world

        @registry.register
        class Victim(WorldProgram):
            name = "victim"

            def phase_bad(self, ctx, message):
                return Halt("wrong path")

            def phase_good(self, ctx, message):
                return Halt("patched path")

        engine.swapper.outload("Swatee", "victim", "bad")
        swat = Swat(fs)
        swat.set_resume_phase("good")
        swat.commit()
        assert engine.run_from_file("Swatee") == "patched path"
