"""``python -m repro bench``'s gate: a row passes only when its simulated
seconds equal its checked-in baseline, and its report line shows what the
gate compared."""

from types import SimpleNamespace

import pytest

from repro.bench import compare_to_baselines, main, row_line

BASELINES = {"E1.row": 28.573332}


def row(seconds):
    return SimpleNamespace(name="E1.row", simulated_seconds=seconds, cached=None)


def verdict(seconds, baselines=BASELINES):
    return compare_to_baselines([row(seconds)], baselines)["E1.row"]


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


def test_a_zero_baseline_is_a_baseline_without_a_ratio():
    entry = verdict(0.0, baselines={"E1.row": 0.0})
    assert entry["ok"] and "ratio" not in entry
    assert row_line(row(0.0), entry) == "  E1.row: 0.000s (baseline 0.000s)"


def test_a_row_off_its_baseline_shows_both_values_exactly():
    seconds = round(28.573332 + 1e-6, 6)
    assert row_line(row(seconds), verdict(seconds)) == (
        "  E1.row: 28.573s (baseline 28.573332s, measured 28.573333s, "
        "+1.000 us)  << NOT ITS BASELINE")


def test_only_a_missing_baseline_reads_as_none():
    assert row_line(row(1.0), verdict(1.0, baselines={})) == (
        "  E1.row: 1.000s (no baseline)  << NOT ITS BASELINE")
    assert row_line(row(28.573332), verdict(28.573332)) == (
        "  E1.row: 28.573s (baseline 28.573s, x1.00)")
