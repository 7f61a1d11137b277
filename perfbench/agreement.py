"""Check the benchmark against itself: repeated runs, spreads and set agreement.

Run from the root of a checkout::

    python3 perfbench/agreement.py --seeds 10 --out agreement.json

For each seed, every workload runs once in each of two sets through the
benchmark's own command line; which set runs first alternates from seed
to seed so drift on the machine lands on both sides. For each workload
and end-to-end metric the summary gives each set's median and quartile
spread ((Q3 - Q1) / median, from ``statistics.quantiles(n=4)``) and how
far the second set's median is worse than the first's, as a share of
the first. ``ok`` means every spread except ``setup_s``'s is under a
third of the metric's bound and the second median is worse by no more
than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Two sets of the same code, interleaved.
SETS = 2


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=300, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), time.monotonic() - began


def summarize(values, bounds, better):
    summary = {}
    for workload, sets in values.items():
        for metric, bound in bounds.items():
            medians, spreads = [], []
            for runs in sets:
                series = [run[metric] for run in runs]
                q1, q2, q3 = statistics.quantiles(series, n=4)
                medians.append(statistics.median(series))
                spreads.append((q3 - q1) / medians[-1])
            sign = 1.0 if better[metric] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            spread_ok = metric == "setup_s" or max(spreads) < bound / 3.0
            summary[f"{workload}/{metric}"] = {
                "medians": medians,
                "spreads": spreads,
                "bound": bound,
                "second_worse_by": worse,
                "ok": spread_ok and worse <= bound,
            }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    values = {w: [[] for _ in range(SETS)] for w in workloads}
    failures = 0
    run_wall = {w: [] for w in workloads}
    for index in range(args.seeds):
        seed = args.first_seed + index
        order = [1, 0] if index % 2 else [0, 1]
        for workload in workloads:
            for set_index in order:
                result, elapsed = run_once(workload, seed, seconds)
                failures += result["failed"]
                run_wall[workload].append(elapsed)
                values[workload][set_index].append(
                    {name: m["value"] for name, m in result["metrics"].items()}
                )
                print(workload, seed, set_index, json.dumps(result["metrics"]), flush=True)
        if index >= 1:
            report = {"seconds": seconds, "failed_ops": failures, "runs": values,
                      "run_wall_s": {w: statistics.median(t) for w, t in run_wall.items()},
                      "summary": summarize(values, bounds, better)}
            Path(args.out).write_text(json.dumps(report, indent=1))
    for key, entry in report["summary"].items():
        spreads = ", ".join(f"{s:.3f}" for s in entry["spreads"])
        print(f"{key:32s} spread {spreads}  worse {entry['second_worse_by']:+.3f}"
              f"  bound {entry['bound']}"
              f"  {'ok' if entry['ok'] else 'NOT OK'}")
    return 0 if failures == 0 and all(e["ok"] for e in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
