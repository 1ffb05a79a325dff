"""The benchmark regression harness: ``python -m repro bench``.

Runs every ``benchmarks/bench_*.py`` module that exposes a
``bench(profile)`` function, collects the :class:`BenchResult` records they
return (the same measure functions the pytest benchmarks call), and writes
a machine-readable report (default ``BENCH_PR2.json``) with simulated
seconds, cache on/off, and hit rates.

Simulated time is a deterministic output of the timing model, so the
checked-in ``benchmarks/baselines.json`` is exact, not statistical: a row
passes only when its simulated seconds equal its baseline, and a row with
no baseline fails.  A faster row fails as a slower one does.
``--update-baselines`` rewrites the baseline file from the current run:
it is the one way to move a number, and the move shows as a diff of
that checked-in file (do this when a deliberate change moves the
numbers, and say why in the commit).

The harness always runs with :func:`repro.obs.runtime.retain_stats` on, so
every result row carries the merged metrics snapshot of the clocks that
produced it (the ``obs`` key).  ``--trace out.json`` additionally records
simulated-time spans on every clock and writes one merged Chrome
``trace_event`` JSON next to the report (open it in Perfetto).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_OUTPUT = "BENCH_PR2.json"
BASELINES_NAME = "baselines.json"


def find_benchmarks_dir(start: Optional[Path] = None) -> Path:
    """The repository's ``benchmarks/`` directory.

    Looked up relative to this file (source checkout) and then upward from
    the working directory, so the harness runs from any subdirectory.
    """
    candidates = [Path(__file__).resolve().parents[2] / "benchmarks"]
    here = (start or Path.cwd()).resolve()
    candidates.extend(parent / "benchmarks" for parent in [here, *here.parents])
    for candidate in candidates:
        if candidate.is_dir() and list(candidate.glob("bench_*.py")):
            return candidate
    raise FileNotFoundError("no benchmarks/ directory with bench_*.py found")


def load_bench_modules(bench_dir: Path) -> List[object]:
    """Import every ``bench_*.py`` file (with ``paper.py`` importable)."""
    modules = []
    sys.path.insert(0, str(bench_dir))  # the modules do `from paper import ...`
    try:
        for path in sorted(bench_dir.glob("bench_*.py")):
            spec = importlib.util.spec_from_file_location(f"repro_bench_{path.stem}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules.append(module)
    finally:
        sys.path.remove(str(bench_dir))
    return modules


def run_benchmarks(profile: str, only: Optional[str] = None, bench_dir: Optional[Path] = None):
    """Run all ``bench(profile)`` hooks.

    Returns ``(results, wall_clock_seconds)``: the :class:`BenchResult`
    list plus a per-module wall-clock dict (with a ``"total"`` key).
    Simulated seconds are the regression-tracked output; wall seconds are
    informational -- they track how fast the *simulator itself* runs, which
    the fast-path work (ARCHITECTURE.md, "Fast paths") optimizes without
    being allowed to move the simulated numbers.
    """
    bench_dir = bench_dir or find_benchmarks_dir()
    results = []
    wall: Dict[str, float] = {}
    for module in load_bench_modules(bench_dir):
        hook = getattr(module, "bench", None)
        if hook is None:
            continue
        name = Path(module.__file__).stem
        if only and only not in name:
            continue
        print(f"== {name} (profile={profile}) ==")
        started = time.perf_counter()
        results.extend(hook(profile))
        wall[name] = round(time.perf_counter() - started, 3)
    wall["total"] = round(sum(wall.values()), 3)
    return results, wall


def compare_to_baselines(results, baselines: Dict[str, float]) -> Dict[str, dict]:
    """Per-result verdicts against the exact baselines.

    A result passes only when its simulated seconds equal its baseline:
    a faster result fails as a slower one does, and so does a result with
    no baseline (new benchmarks get one through ``--update-baselines``).
    """
    comparison: Dict[str, dict] = {}
    for result in results:
        baseline = baselines.get(result.name)
        entry = {
            "measured_s": result.simulated_seconds,
            "baseline_s": baseline,
            "ok": result.simulated_seconds == baseline,
        }
        if baseline:
            entry["ratio"] = round(result.simulated_seconds / baseline, 4)
        comparison[result.name] = entry
    return comparison


def row_line(result, entry: dict) -> str:
    """One report line: *result* against its baseline *entry*.  Only a
    missing baseline (``None``) reads "no baseline"; a row off its
    baseline shows both values exactly, as the gate compares them, and
    their difference in microseconds; a 0.0 baseline has no ratio."""
    measured, baseline = entry["measured_s"], entry["baseline_s"]
    if baseline is None:
        note = " (no baseline)"
    elif not entry["ok"]:
        note = (f" (baseline {baseline!r}s, measured {measured!r}s, "
                f"{(measured - baseline) * 1e6:+.3f} us)")
    else:
        ratio = f", x{entry['ratio']:.2f}" if "ratio" in entry else ""
        note = f" (baseline {baseline:.3f}s{ratio})"
    flag = "" if entry["ok"] else "  << NOT ITS BASELINE"
    cached = {True: " cache=on", False: " cache=off", None: ""}[result.cached]
    return f"  {result.name}: {measured:.3f}s{cached}{note}{flag}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the paper-claim benchmarks and enforce regression baselines",
    )
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="smoke: smaller packs for CI; full: the paper-scale runs")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baselines", default=None,
                        help=f"baseline file (default benchmarks/{BASELINES_NAME})")
    parser.add_argument("--only", metavar="SUBSTR",
                        help="run only bench modules whose name contains SUBSTR")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baseline file from this run instead of checking")
    parser.add_argument("--trace", metavar="PATH",
                        help="record simulated-time spans on every clock and "
                             "write one merged Chrome trace JSON")
    args = parser.parse_args(argv)

    bench_dir = find_benchmarks_dir()
    baselines_path = Path(args.baselines) if args.baselines else bench_dir / BASELINES_NAME

    from .obs import runtime as obs_runtime

    obs_runtime.retain_stats(True)
    if args.trace:
        obs_runtime.enable_trace_all()
    try:
        results, wall_clock = run_benchmarks(args.profile, only=args.only, bench_dir=bench_dir)
        if args.trace:
            trace = obs_runtime.collect_trace()
            Path(args.trace).write_text(
                json.dumps(trace, indent=1, sort_keys=True) + "\n")
            spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
            print(f"\n[trace written to {args.trace}: {spans} spans]")
    finally:
        if args.trace:
            obs_runtime.disable_trace_all()
        obs_runtime.retain_stats(False)
    if not results:
        print("no benchmark results collected")
        return 1

    all_baselines: Dict[str, Dict[str, float]] = {}
    if baselines_path.exists():
        all_baselines = json.loads(baselines_path.read_text())
    baselines = all_baselines.get(args.profile, {})

    if args.update_baselines:
        all_baselines[args.profile] = {
            r.name: r.simulated_seconds for r in results
        }
        baselines_path.write_text(json.dumps(all_baselines, indent=2, sort_keys=True) + "\n")
        print(f"baselines updated: {baselines_path} ({len(results)} entries, "
              f"profile {args.profile})")
        comparison = compare_to_baselines(results, all_baselines[args.profile])
    else:
        comparison = compare_to_baselines(results, baselines)

    regressions = [name for name, entry in comparison.items() if not entry["ok"]]
    report = {
        "profile": args.profile,
        "results": [r.to_json() for r in results],
        "baseline_comparison": comparison,
        "regressions": regressions,
        "wall_clock_seconds": wall_clock,
        "ok": not regressions,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{len(results)} results -> {args.output} "
          f"(wall clock {wall_clock['total']:.1f}s)")
    for result in results:
        print(row_line(result, comparison[result.name]))
    if regressions:
        print(f"\nFAIL: {len(regressions)} result(s) not equal to their baselines: "
              f"{', '.join(regressions)}")
        return 1
    print("\nall benchmarks equal their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
