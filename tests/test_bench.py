"""``python -m repro bench``'s gate: a row passes only when its simulated
seconds equal its checked-in baseline."""

from types import SimpleNamespace

import pytest

from repro.bench import compare_to_baselines, main

BASELINES = {"E1.row": 28.573332}


def verdict(seconds, baselines=BASELINES):
    row = SimpleNamespace(name="E1.row", simulated_seconds=seconds)
    return compare_to_baselines([row], baselines)["E1.row"]


def test_a_row_equal_to_its_baseline_passes():
    entry = verdict(28.573332)
    assert entry["ok"]
    assert entry["ratio"] == 1.0


@pytest.mark.parametrize("offset_us", [1, -1], ids=["slower", "faster"])
def test_a_row_one_microsecond_off_its_baseline_fails(offset_us):
    assert not verdict(round(28.573332 + offset_us / 1e6, 6))["ok"]


def test_a_row_with_no_baseline_fails():
    assert not verdict(1.0, baselines={})["ok"]


def test_there_is_no_tolerance_to_set():
    with pytest.raises(SystemExit):
        main(["--tolerance", "0.2"])
