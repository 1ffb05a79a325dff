"""AltoOS facade tests: service gating, scavenge integration, zones."""

import pytest

from repro.disk import DiskDrive
from repro.errors import JuntaError
from repro.os import AltoOS
from repro.streams import read_string, write_string


@pytest.fixture
def os(drive):
    return AltoOS.format(drive)


class TestStreams:
    def test_write_and_read_streams(self, os):
        ws = os.write_stream("note.txt")
        write_string(ws, "remember the scavenger")
        ws.close()
        rs = os.read_stream("note.txt")
        assert read_string(rs) == "remember the scavenger"

    def test_write_stream_create_flag(self, os):
        from repro.errors import FileNotFound

        with pytest.raises(FileNotFound):
            os.write_stream("absent.txt", create=False)


class TestServiceGating:
    def test_streams_gated_by_junta(self, os):
        os.call_junta(7)
        with pytest.raises(JuntaError):
            os.read_stream("anything")
        with pytest.raises(JuntaError):
            os.write_stream("anything")
        os.call_counter_junta()

    def test_zones_gated(self, os):
        os.call_junta(6)
        with pytest.raises(JuntaError):
            os.new_zone(100)
        os.call_counter_junta()
        zone = os.new_zone(100)
        assert zone.allocate(10)

    def test_raw_components_remain_usable(self, os):
        """Openness: Junta removes the *packages*, not the programmer's
        ability to use the smaller components directly."""
        os.call_junta(1)
        file = os.fs.create_file("raw.txt")  # direct fs access still works
        file.write_data(b"no system needed")
        assert os.fs.open_file("raw.txt").read_data() == b"no system needed"
        os.call_counter_junta()


class TestZones:
    def test_new_zone_comes_from_system_storage(self, os):
        free_before = os.system_zone.free_words()
        zone = os.new_zone(200, "user")
        assert os.system_zone.free_words() < free_before
        address = zone.allocate(50)
        assert address in zone.region

    def test_counter_junta_rebuilds_system_zone(self, os):
        os.new_zone(200)
        os.call_junta(7)
        os.call_counter_junta()
        assert os.system_zone.free_words() == len(os.junta.regions[13])


class TestScavengeIntegration:
    def test_scavenge_remounts(self, os, image, fault_plan):
        os.write_stream("keep.txt").close()
        for address in fault_plan.random_in_use_addresses(4):
            fault_plan.scramble_links(address)
        report = os.scavenge()
        assert report.links_repaired >= 4
        assert "keep.txt" in os.fs.list_files()

    def test_swapper_hints_dropped_after_scavenge(self, os):
        os.engine.swapper.state_file("s.state")
        os.scavenge()
        assert os.engine.swapper._files == {}


class TestTypeAhead:
    def test_type_ahead_reaches_the_memory_buffer(self, os):
        os.type_ahead("x")
        assert os.keyboard_process.available() == 1

    def test_repr(self, os):
        assert "level=13" in repr(os)
