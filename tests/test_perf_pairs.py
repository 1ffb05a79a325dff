"""tools/perf_pairs.py's verdicts, on made-up repetitions (no subprocess)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()
GATES = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def rep(seed, wall_s, digest="d", p99=10.0, failed=0):
    return {"seed": seed, "wall_s": wall_s, "setup_s": 0.2,
            "peak_rss_mb": 30.0, "ops": 100, "failed": failed,
            "digest": f"{digest}{seed}",
            "sim": {"sim_req_p99_ms": p99, "sim_throughput_rps": 1400.0}}


def pairs(base_walls, head_walls, **head):
    return [{"base": rep(seed, base), "head": rep(seed, wall, **head)}
            for seed, (base, wall) in enumerate(zip(base_walls, head_walls))]


def test_a_faster_head_passes_and_counts_its_wins():
    report = tool.compare("w", pairs([1.0, 1.1, 1.0, 1.2], [0.9, 0.9, 1.05, 1.0]),
                          GATES)
    wall = report["metrics"]["wall_s"]
    assert report["failures"] == []
    assert wall["head_wins"] == 3
    assert wall["base"]["median"] == pytest.approx(1.05)
    assert wall["head"]["median"] == pytest.approx(0.95)
    assert report["digests_agree"] == report["sim_agree"] == 4


def test_a_median_past_its_bound_fails_and_one_inside_it_does_not():
    inside = tool.compare("w", pairs([1.0] * 4, [1.2] * 4), GATES)
    assert inside["failures"] == []
    past = tool.compare("w", pairs([1.0] * 4, [1.3] * 4), GATES)
    assert [failure.split(":")[0] for failure in past["failures"]] == ["w wall_s"]


def test_changed_simulation_is_reported_and_gated_only_by_its_bound():
    moved = tool.compare("w", pairs([1.0] * 4, [1.0] * 4, digest="e", p99=11.0),
                         GATES)
    assert moved["digests_agree"] == moved["sim_agree"] == 0
    assert moved["failures"] == []          # +10% p99, inside its 0.2 bound
    worse = tool.compare("w", pairs([1.0] * 4, [1.0] * 4, p99=13.0), GATES)
    assert [failure.split(":")[0] for failure in worse["failures"]] == \
        ["w sim_req_p99_ms"]


def test_failed_operations_lower_the_ok_ratio_gate():
    report = tool.compare("w", pairs([1.0] * 4, [1.0] * 4, failed=5), GATES)
    assert report["end_to_end"]["head"]["ok_ratio"] == 0.95
    assert [failure.split(":")[0] for failure in report["failures"]] == \
        ["w ok_ratio"]


def test_a_failed_repetition_on_a_later_input_set_gates_only_its_ok_ratio():
    # A repetition whose measured phase raised reports failed operations
    # and no simulated metrics.
    measured = pairs([1.0] * 4, [1.0] * 4)
    measured[2]["head"].update(failed=5, sim={})
    report = tool.compare("w", measured, GATES)
    head = report["end_to_end"]["head"]
    assert head["ok_ratio"] == pytest.approx(395 / 400)
    assert head["sim_req_p99_ms"] == 10.0
    assert [failure.split(":")[0] for failure in report["failures"]] == \
        ["w ok_ratio"]
    assert report["sim_agree"] == 3


def test_a_side_with_no_simulated_metrics_is_gated_on_its_ok_ratio():
    measured = pairs([1.0] * 2, [1.0] * 2)
    for pair in measured:
        pair["head"].update(failed=100, sim={})
    report = tool.compare("w", measured, GATES)
    assert "sim_req_p99_ms" not in report["end_to_end"]["head"]
    assert [failure.split(":")[0] for failure in report["failures"]] == \
        ["w ok_ratio"]


def test_paths_of_different_lengths_are_warned_about(capsys):
    tool.warn_on_path_lengths(Path("/work/base"), Path("/work/head"))
    assert capsys.readouterr().err == ""
    tool.warn_on_path_lengths(Path("/work/b"), Path("/work/head"))
    assert "differ in length" in capsys.readouterr().err
