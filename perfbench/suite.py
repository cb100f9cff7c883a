"""Run every benchmark workload once and append the results to the trajectory.

Usage, from the root of a checkout:

    python3 perfbench/suite.py [--seed 1] [--seconds N] [--trace 0|1]

Each workload runs in its own process (``perfbench/run.py``), so its peak
resident set is its own.  The command prints every metric of every workload
with its unit, plus ``failed_frac`` (failed over attempted points), appends
one entry to ``perfbench/BENCH_trajectory.json``, and exits non-zero if any
workload failed a correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

import run
import workloads

TRAJECTORY = os.path.join(run.HERE, "BENCH_trajectory.json")


def default_seconds() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode} without a result"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else default_seconds()

    entry = run.machine()
    entry.update(seed=args.seed, seconds=seconds, trace=args.trace, workloads={})
    ok = True
    for name in workloads.WORKLOADS:
        res = run_workload(name, args.seed, seconds, args.trace)
        attempted = res["attempted"]
        frac = res["failed"] / attempted if attempted else 1.0
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={attempted} "
              f"failed={res['failed']} {res.get('error', '')}")
        print(f"  {'failed_frac':44s} {frac:.6g} ratio")
        for k, m in res["metrics"].items():
            print(f"  {k:44s} {m['value']:.6g} {m['unit']}")
        entry["workloads"][name] = {
            "correct": res["correct"], "attempted": attempted, "failed": res["failed"],
            "failed_frac": frac,
            "metrics": {k: m["value"] for k, m in res["metrics"].items()},
        }

    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
