"""Unit tests for the 64k-word memory and regions."""

import pytest

from repro.errors import MemoryFault
from repro.memory import MEMORY_WORDS, Memory, Region


class TestMemory:
    def test_default_size_is_64k(self):
        assert Memory().size == MEMORY_WORDS == 0x10000

    def test_read_write(self):
        memory = Memory(256)
        memory[10] = 0xBEEF
        assert memory[10] == 0xBEEF
        assert memory[11] == 0

    def test_fill_word(self):
        memory = Memory(16, fill=0xAAAA)
        assert memory[0] == 0xAAAA

    def test_bounds(self):
        memory = Memory(256)
        with pytest.raises(MemoryFault):
            memory.read(256)
        with pytest.raises(MemoryFault):
            memory.write(-1, 0)
        with pytest.raises(MemoryFault):
            memory.read("x")

    def test_word_range_enforced(self):
        memory = Memory(256)
        with pytest.raises(ValueError):
            memory.write(0, 0x10000)

    def test_block_ops(self):
        memory = Memory(256)
        memory.write_block(5, [1, 2, 3])
        assert memory.read_block(5, 3) == [1, 2, 3]
        memory.fill(5, 3, 9)
        assert memory.read_block(4, 5) == [0, 9, 9, 9, 0]

    def test_a_refused_block_writes_nothing(self):
        memory = Memory(256)
        with pytest.raises(ValueError):
            memory.write_block(5, [1, 2, 1.5])
        assert memory.read_block(5, 3) == [0, 0, 0]

    def test_block_bounds(self):
        memory = Memory(256)
        with pytest.raises(MemoryFault):
            memory.write_block(254, [1, 2, 3])
        with pytest.raises(MemoryFault):
            memory.read_block(0, 257)
        with pytest.raises(ValueError):
            memory.read_block(0, -1)

    def test_dump_and_load(self):
        memory = Memory(64)
        memory[3] = 7
        dumped = memory.dump()
        other = Memory(64)
        other.load(dumped)
        assert other[3] == 7

    def test_load_size_mismatch(self):
        with pytest.raises(MemoryFault):
            Memory(64).load([0] * 63)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Memory(0)
        with pytest.raises(ValueError):
            Memory(MEMORY_WORDS + 1)


class TestRegion:
    def test_window_semantics(self):
        memory = Memory(256)
        region = memory.region(10, 20)
        region.write(0, 5)
        assert memory[10] == 5
        assert region.read(0) == 5
        assert region.end == 30 and len(region) == 20

    def test_contains(self):
        region = Memory(256).region(10, 20)
        assert 10 in region and 29 in region
        assert 9 not in region and 30 not in region

    def test_offset_bounds(self):
        region = Memory(256).region(10, 20)
        with pytest.raises(MemoryFault):
            region.read(20)
        with pytest.raises(MemoryFault):
            region.write_block(18, [1, 2, 3])

    def test_subregion(self):
        memory = Memory(256)
        region = memory.region(10, 20)
        sub = region.subregion(5, 5)
        sub.write(0, 77)
        assert memory[15] == 77
        with pytest.raises(MemoryFault):
            region.subregion(18, 5)

    def test_fill(self):
        memory = Memory(64)
        region = memory.region(8, 4)
        region.fill(3)
        assert memory.read_block(7, 6) == [0, 3, 3, 3, 3, 0]

    def test_region_must_fit(self):
        memory = Memory(64)
        with pytest.raises(MemoryFault):
            memory.region(60, 10)
        with pytest.raises(ValueError):
            Region(memory, 0, -1)
