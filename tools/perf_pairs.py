"""Compare two checkouts on the repository benchmark, in side-by-side pairs.

    python tools/perf_pairs.py --base ../base --workload read_open --seed 1
    python tools/perf_pairs.py --base ../base --workload serve_mix \\
        --workload read_open --seed 1 --rounds 2 --output pairs.json

Each pair runs ``perfbench/rep.py`` on one input set once in the base
checkout and once in the head checkout, the one holding this script, at
the same time, one process per CPU.  Which side starts first
alternates from pair to pair, and from round to round for the same input
set.  A seed's ``8N`` .. ``8N+7`` input sets are taken in turn,
``--rounds`` times over.

A repetition's peak RSS depends on the length of its checkout's path, so
the tool warns on stderr when the two roots' paths differ in length:
extract both sides side by side (``../base`` and ``../head``) and run the
head's copy of this script.

For each workload it prints each side's median and interquartile range
of ``wall_s``, ``setup_s`` and ``peak_rss_mb``, how many pairs the head
won, the median of the per-pair head/base ratios, and whether the two
sides' simulated metrics and digests agree on every input set.  A
disagreement is reported, not failed: a change may move simulated
numbers on purpose.

The exit status is 1 when the median of an end-to-end metric in
``BENCHMARK.json`` is worse on the head than on the base by more than
that metric's bound (a repetition whose measured phase raised reports
failed operations, which lower ``ok_ratio``), 2 when a repetition's
process fails or the arguments are wrong, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HEAD = Path(__file__).resolve().parents[1]
#: The benchmark's own figures: input sets per seed and the per-repetition
#: limit (perfbench/run.py).
INPUT_SETS = 8
REP_TIMEOUT_S = 150
#: Every repetition hashes strings alike, as perfbench/run.py sets it.
REP_ENV = dict(os.environ, PYTHONHASHSEED="0")
#: What each repetition measures of itself; the simulated figures are
#: exact per input set.
MEASURED = ("wall_s", "setup_s", "peak_rss_mb")


class RepFailed(Exception):
    pass


def warn_on_path_lengths(base: Path, head: Path) -> None:
    """Warn on stderr when *base* and *head* differ in path length: a
    repetition's peak RSS depends on it, so the comparison is biased."""
    if len(str(base)) != len(str(head)):
        print(f"perf_pairs: warning: the base path {base} ({len(str(base))} "
              f"characters) and the head path {head} ({len(str(head))}) differ "
              f"in length, which biases peak_rss_mb", file=sys.stderr)


def start(root: Path, workload: str, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "rep.py"), workload,
         str(seed), "0"],
        cwd=root, env=REP_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def finish(proc: subprocess.Popen, label: str) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RepFailed(f"{label}: exceeded {REP_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RepFailed(f"{label}: exited {proc.returncode}: "
                        f"{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_pair(base: Path, head: Path, workload: str, seed: int,
             head_first: bool) -> Dict[str, dict]:
    """One repetition of input set *seed* on each side, side by side."""
    order = [("head", head), ("base", base)]
    if not head_first:
        order.reverse()
    procs = [(side, start(root, workload, seed)) for side, root in order]
    return {side: finish(proc, f"{side} {workload} set {seed}")
            for side, proc in procs}


def spread(values: List[float]) -> Dict[str, float]:
    """Median and interquartile range (0 with fewer than two values)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1}


def ok_ratio(reps: List[dict]) -> float:
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return (attempted - failed) / attempted if attempted else 0.0


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """The end-to-end figures of one side, as perfbench/run.py reports
    them: medians over repetitions, and the simulated ones over input sets.

    A repetition whose measured phase raised has no simulated metrics,
    so they are taken from each input set's first repetition that has
    them, and a side with none reports none."""
    values = {name: statistics.median(rep[name] for rep in reps)
              for name in MEASURED}
    values["ok_ratio"] = ok_ratio(reps)
    first = {}
    for rep in reps:
        if rep["sim"]:
            first.setdefault(rep["seed"], rep["sim"])
    sims = list(first.values())
    for name in (sims[0] if sims else ()):
        values[name] = statistics.median(sim[name] for sim in sims)
    return values


def worse_than_bound(base: float, head: float, better: str,
                     bound: float) -> bool:
    if better == "lower":
        return head > base + bound * abs(base)
    return head < base - bound * abs(base)


def compare(workload: str, pairs: List[Dict[str, dict]],
            gates: List[dict]) -> dict:
    base = [pair["base"] for pair in pairs]
    head = [pair["head"] for pair in pairs]
    report = {"workload": workload, "pairs": len(pairs), "metrics": {}}
    for name in MEASURED:
        ratios = [h[name] / b[name] for b, h in zip(base, head) if b[name]]
        report["metrics"][name] = {
            "base": spread([rep[name] for rep in base]),
            "head": spread([rep[name] for rep in head]),
            "head_wins": sum(h[name] < b[name] for b, h in zip(base, head)),
            "median_ratio": statistics.median(ratios) if ratios else None,
        }
    digests = sims = 0
    sets = {}
    for pair in pairs:
        sets.setdefault(pair["base"]["seed"], pair)
    for pair in sets.values():
        digests += pair["base"]["digest"] == pair["head"]["digest"]
        sims += pair["base"]["sim"] == pair["head"]["sim"]
    report["input_sets"] = len(sets)
    report["digests_agree"] = digests
    report["sim_agree"] = sims
    base_e2e, head_e2e = end_to_end(base), end_to_end(head)
    report["failures"] = []
    for gate in gates:
        name = gate["name"]
        if name not in base_e2e or name not in head_e2e:
            continue
        if worse_than_bound(base_e2e[name], head_e2e[name], gate["better"],
                            gate["bound"]):
            report["failures"].append(
                f"{workload} {name}: {base_e2e[name]:.6g} -> "
                f"{head_e2e[name]:.6g}, worse than its {gate['bound']:g} bound")
    report["end_to_end"] = {"base": base_e2e, "head": head_e2e}
    return report


def render(report: dict) -> str:
    lines = [f"{report['workload']}: {report['pairs']} pairs over "
             f"{report['input_sets']} input sets"]
    for name, row in report["metrics"].items():
        base, head = row["base"], row["head"]
        ratio = row["median_ratio"]
        lines.append(
            f"  {name:<12} base {base['median']:.4f} (IQR {base['iqr']:.4f})"
            f"  head {head['median']:.4f} (IQR {head['iqr']:.4f})"
            f"  head lower {row['head_wins']}/{report['pairs']}"
            + (f"  median ratio {ratio:.4f}" if ratio is not None else ""))
    sets = report["input_sets"]
    lines.append(f"  digests agree on {report['digests_agree']}/{sets} sets, "
                 f"sim_ metrics on {report['sim_agree']}/{sets}")
    lines.extend(f"  WORSE: {failure}" for failure in report["failures"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1,
                        help="times through the seed's input sets")
    parser.add_argument("--output", type=Path, help="write the report as JSON")
    args = parser.parse_args(argv)
    if not (args.base / "perfbench" / "rep.py").is_file():
        parser.error(f"{args.base} holds no perfbench/rep.py")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    gates = json.loads((HEAD / "BENCHMARK.json").read_text())["end_to_end"]
    warn_on_path_lengths(args.base.resolve(), HEAD)

    reports = []
    try:
        for workload in args.workload:
            # Which side starts first alternates from pair to pair, and
            # from round to round for the same input set.
            pairs = [run_pair(args.base.resolve(), HEAD, workload,
                              args.seed * INPUT_SETS + index % INPUT_SETS,
                              head_first=(index + index // INPUT_SETS) % 2 == 1)
                     for index in range(INPUT_SETS * args.rounds)]
            report = compare(workload, pairs, gates)
            print(render(report), flush=True)
            reports.append(report)
    except RepFailed as exc:
        print(f"perf_pairs: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        args.output.write_text(json.dumps(reports, indent=2) + "\n")
    return 1 if any(report["failures"] for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
