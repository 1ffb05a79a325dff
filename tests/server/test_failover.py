"""The failover drill: kill the primary mid-load, lose nothing acked.

The exhaustive sweep (every part-write a crash point) is the CLI's and
CI's job -- ``python -m repro failover``.  Here the drill is pinned at
test speed: the clean run, a handful of representative crash points
(early, mid-stream, late), and the CLI plumbing itself.
"""

import random

import pytest

from repro.errors import FileNotFound, RequestFailed
from repro.server import FileServer, Response, ST_ERROR
from repro.server.client import FileClient
from repro.server.failover import (
    WORKLOAD_FILES,
    WORKLOAD_MAX_BYTES,
    WORKLOAD_MIN_BYTES,
    FailoverReport,
    _verify_acked,
    failover_crash_sweep,
    failover_drill,
    workload_files,
)


def test_clean_drill_acks_the_whole_workload():
    report = failover_drill()
    assert report.ok, report.problems
    assert report.crash_point == 0
    assert report.tail_records == 0              # nothing crashed
    assert report.promotion_us == 0
    # Every page of every workload file was acked and verified.
    pages = sum(len(data) // 512 + 1 for _, data in workload_files(1979))
    assert report.acked_pages == pages


def test_workload_is_seed_deterministic():
    assert workload_files(7) == workload_files(7)
    assert workload_files(7) != workload_files(8)


def per_byte_workload(seed):
    """The drill's original one-draw-per-byte recipe, kept as the oracle."""
    rng = random.Random(seed ^ 0x5EED)
    files = []
    for index in range(WORKLOAD_FILES):
        size = rng.randrange(WORKLOAD_MIN_BYTES, WORKLOAD_MAX_BYTES)
        files.append((f"drill{index}.dat",
                      bytes(rng.randrange(256) for _ in range(size))))
    return files


@pytest.mark.parametrize("seed", [1, 7, 8, 601, 1979, 162088128])
def test_workload_matches_the_per_byte_recipe(seed):
    assert workload_files(seed) == per_byte_workload(seed)


@pytest.mark.parametrize("point", [5, 45, 90])
def test_swept_crash_points_lose_no_acked_write(point):
    result = failover_crash_sweep(points=[point])
    assert result.ok, result.summary()
    assert result.points_tested == 1
    report = result.reports[0]
    assert report.crash_point == point
    assert report.promotion_us > 0               # the standby was promoted
    assert not report.problems


def test_sweep_counts_the_clean_drills_part_writes():
    """The sweep's point count is the clean drill's own part-write count."""
    clean = failover_drill()
    assert failover_crash_sweep(points=[]).total_writes == clean.part_writes > 0


class _Pack:
    """A promoted pack whose every open fails with *error*."""

    def __init__(self, error):
        self.error = error

    def open_file(self, name):
        raise self.error


def test_acked_check_notes_repro_errors_and_raises_the_rest():
    report = FailoverReport(crash_point=1)
    acked = {("a.dat", 1): b"x"}
    _verify_acked(_Pack(FileNotFound("a.dat")), acked, report)
    assert report.problems == ["acked file a.dat lost at failover (FileNotFound)"]
    with pytest.raises(TypeError):
        _verify_acked(_Pack(TypeError("a bug, not a finding")), acked, report)


def test_a_programming_error_in_the_read_back_raises(monkeypatch):
    def broken(client, name):
        raise TypeError("a bug, not a finding")

    monkeypatch.setattr(FileClient, "read_file", broken)
    with pytest.raises(TypeError):
        failover_drill()


def test_a_refused_write_is_not_an_ack_and_fails_the_drill(monkeypatch):
    def refuse(server, session, request):
        return Response(ST_ERROR, request.request_id), False

    monkeypatch.setattr(FileServer, "_do_write", refuse)
    with pytest.raises(RequestFailed) as excinfo:
        failover_drill()
    assert excinfo.value.status == ST_ERROR


def test_sweep_rejects_out_of_range_points():
    with pytest.raises(ValueError):
        failover_crash_sweep(points=[10**9])


def test_failover_cli_drill(capsys):
    from repro.__main__ import main

    assert main(["failover", "--drill-only"]) == 0
    out = capsys.readouterr().out
    assert "crash@0" in out and "ok" in out


def test_failover_cli_sweep_subsample(capsys):
    from repro.__main__ import main

    assert main(["failover", "--points", "45", "-v"]) == 0
    out = capsys.readouterr().out
    assert "zero acked writes lost" in out


@pytest.mark.parametrize("seed,point", [(601, 112), (615, 138), (648, 102)])
def test_crash_at_the_second_to_last_part_write_fires(seed, point):
    """Each point is its seed's second-to-last part-write.  The crash used
    to never fire there: the patrol's garbage free swallowed the power
    failure, and the drill read back from a dead machine."""
    report = failover_drill(seed=seed, crash_at=point)
    assert report.crash_reason, report.problems
    assert report.ok, report.problems
