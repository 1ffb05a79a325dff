"""Load-generator tests: determinism and the concurrency win.

The acceptance bar for the server subsystem: two runs from the same seed
and schedule produce a byte-identical disk image and an identical metrics
snapshot, and multiplexing N clients beats serving them sequentially.
"""

from repro.server.loadgen import LoadGenerator, build_system, percentile


def run_load(mode="concurrent", clients=6, seed=5):
    system = build_system(clients=clients, tiny=True)
    generator = LoadGenerator(system, seed=seed, file_bytes=700, read_rounds=1)
    result = generator.run() if mode == "concurrent" else generator.run_sequential()
    return system, result


def images_identical(img_a, img_b):
    for s1, s2 in zip(img_a.sectors(), img_b.sectors()):
        if (s1.header.pack() != s2.header.pack()
                or s1.label.pack() != s2.label.pack()
                or list(s1.value) != list(s2.value)):
            return False
    return True


def test_served_runs_are_deterministic():
    system_a, result_a = run_load()
    system_b, result_b = run_load()
    assert result_a.to_json() == result_b.to_json()
    assert result_a.latencies_ms == result_b.latencies_ms
    assert system_a.clock.now_us == system_b.clock.now_us
    assert system_a.clock.obs.stats() == system_b.clock.obs.stats()
    system_a.fs.flush()
    system_b.fs.flush()
    assert images_identical(system_a.fs.drive.image, system_b.fs.drive.image)


def test_different_seeds_diverge():
    system_a, result_a = run_load(seed=5)
    system_b, result_b = run_load(seed=6)
    assert result_a.to_json() != result_b.to_json()
    system_a.fs.flush()
    system_b.fs.flush()
    assert not images_identical(system_a.fs.drive.image, system_b.fs.drive.image)


def test_concurrent_beats_sequential():
    _, concurrent = run_load("concurrent")
    _, sequential = run_load("sequential")
    assert concurrent.errors == sequential.errors == 0
    assert concurrent.requests == sequential.requests
    assert concurrent.requests_per_sec > sequential.requests_per_sec
    assert concurrent.flushes < sequential.flushes


def test_served_files_verify_after_the_run():
    system, result = run_load()
    assert result.errors == 0
    names = [n for n in system.fs.list_files() if n.startswith("load")]
    assert len(names) == len(system.clients)
    for name in names:
        data = system.fs.open_file(name).read_data()
        assert 700 <= len(data) < 700 + 256             # seeded size window


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 51.0
    assert percentile(values, 0.99) == 99.0


def test_sequential_latencies_are_lower_but_wall_time_higher():
    """The tradeoff the benchmark reports: sequential requests see an idle
    server (low p50) but the aggregate run takes longer."""
    _, concurrent = run_load("concurrent")
    _, sequential = run_load("sequential")
    assert sequential.p50_ms <= concurrent.p50_ms
    assert sequential.elapsed_s > concurrent.elapsed_s


def test_histogram_and_list_percentiles_both_reported():
    """Satellite of the telemetry PR: the loadgen's raw-list percentiles
    and the ``loadgen.request_us`` registry histogram are reported side
    by side, and ``_result`` asserts they agree within one log bucket."""
    _, result = run_load()
    assert result.p50_hist_ms > 0
    assert result.p99_hist_ms >= result.p50_hist_ms
    # The histogram estimate never undershoots the true nearest-rank and
    # overshoots by at most a bucket width (12.5% at SUB_BUCKET_BITS=3).
    assert result.p99_hist_ms <= result.p99_ms * 1.126


def test_check_quantile_agreement_rejects_a_drifted_histogram():
    import pytest

    from repro.obs import Histogram
    from repro.server.loadgen import check_quantile_agreement

    hist = Histogram("h")
    for value in (100, 200, 400):
        hist.observe(value)
    assert check_quantile_agreement([100, 200, 400], hist, 0.5) >= 200
    hist.observe(10_000)  # histogram no longer matches the list
    with pytest.raises(AssertionError):
        check_quantile_agreement([100, 200, 400], hist, 1.0)


def test_open_loop_below_capacity_completes_everything():
    system = build_system(clients=4, tiny=True)
    result = LoadGenerator(system, seed=7).run_open_loop(100, 0.5)
    assert result.errors == 0
    assert result.completed == result.offered > 0
    assert abs(result.achieved_rps - 100) / 100 < 0.25
    assert result.p50_hist_ms > 0


def test_open_loop_is_deterministic_on_one_server():
    def run():
        system = build_system(clients=4, tiny=True)
        return LoadGenerator(system, seed=7).run_open_loop(100, 0.5)

    assert run().to_json() == run().to_json()
