"""Steadiness check: do repeated benchmark runs of the same code agree?

    python3 perfbench/steady.py --workload metaphors --runs 10 --sets 2

Runs run.py once per seed (seeds 1..runs), `sets` times over, from the
current directory, which must be the root of an mf checkout. For every
end-to-end metric in BENCHMARK.json it reports, per set, the median and
the spread (distance between the first and third quartile, as a share of
the median), and whether the spread stays within the metric's bound and
each later set's median stays within the bound of the first set's. Exits 1
if any run fails or any comparison misses its bound. `--out FILE` also
writes the figures as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = {}
    for workload in args.workload:
        sets = []
        for _ in range(args.sets):
            values = {name: [] for name in bounds}
            for seed in range(1, args.runs + 1):
                result = run_once(workload, seed, spec["run_seconds"], 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect result {result}")
                    ok = False
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{name}={values[name][-1]:.4f}" for name in bounds), flush=True)
            sets.append(values)
        report[workload] = {}
        for name, bound in bounds.items():
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            spread_ok = all(x <= bound for x in spreads)
            drift = max((m - medians[0]) / medians[0] for m in medians)
            drift_ok = drift <= bound
            ok = ok and spread_ok and drift_ok
            report[workload][name] = {"medians": medians, "spreads": spreads,
                                      "drift": drift, "bound": bound}
            print(f"{workload:10s} {name:12s} medians "
                  + " ".join(f"{m:.4f}" for m in medians)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  drift {drift:+.3f}  bound {bound}"
                  + ("" if spread_ok and drift_ok else "  MISSED"))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
