"""Alternating before/after benchmark of two checkouts.

Runs each checkout's own ``perfbench/run.py --trace 0`` as a subprocess, in
alternation: pair k runs OLD then NEW for even k and NEW then OLD for odd k,
so slow drift of the machine falls on both sides alike.  For every pair it
prints the four end-to-end metrics of both runs, then per metric the median
and the range of each side and the ratio of the medians, then per metric how
many pairs the new side won (ties count for neither), the interquartile
range of the old side, and whether the claim rule holds: the new side won at
least nine tenths of the pairs, and its median is better than the old one by
more than that range.  The exit code is 1 if any run reports
``correct: false`` or no result, else 0.

End-to-end metrics move with the length of a checkout's absolute path, so a
fixed layout effect can pass for a code effect: when the two checkouts' paths
differ in length, one warning line goes to standard error before the first
run.  Put both checkouts at paths of the same length, say ``../old`` and
``../new``, to compare code alone.

Example, from the root of a checkout:
    python scripts/ab_bench.py ../old . --workload congruence --pairs 3 --seconds 10 --seed 41

``--workload`` may be given more than once.  Without arguments the script
prints this help and exits 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("points_per_s", "scene_s_p50", "setup_s", "peak_rss_mb")
#: the metrics for which higher is better; lower is better for the others
HIGHER_IS_BETTER = ("points_per_s",)


def parse_result(stdout: str):
    """The result object of a ``run.py`` run: the JSON on the last line of
    its standard output, or None if there is none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_once(root: str, workload: str, seconds: float, seed: int):
    """One untraced benchmark run of the checkout at root."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if result is None:
        print(f"{root}: no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}",
              file=sys.stderr)
    return result


def _values(result) -> str:
    if result is None:
        return "no result"
    flag = "" if result.get("correct") else " INCORRECT"
    return " ".join(f"{m} {result['metrics'][m]['value']:.6g}" for m in METRICS) + flag


def pair_line(workload: str, k: int, old, new) -> str:
    return f"{workload} pair {k}: old {_values(old)} | new {_values(new)}"


def summarize(workload: str, pairs) -> tuple:
    """Report lines for the (old, new) result pairs of one workload, each
    pair's and then the medians and ranges, and whether every run is present
    and correct."""
    lines = [pair_line(workload, k, old, new) for k, (old, new) in enumerate(pairs)]
    ok = all(r is not None and r.get("correct") is True for pair in pairs for r in pair)
    sides = [[r for r in side if r is not None] for side in zip(*pairs)] if pairs else [[], []]
    if all(sides):
        for m in METRICS:
            old, new = ([r["metrics"][m]["value"] for r in side] for side in sides)
            mo, mn = statistics.median(old), statistics.median(new)
            ratio = f"{mn / mo:.3f}" if mo else "n/a"
            lines.append(f"{workload} {m}: old {mo:.6g} [{min(old):.6g}-{max(old):.6g}] -> "
                         f"new {mn:.6g} [{min(new):.6g}-{max(new):.6g}], new/old {ratio}")
    return lines, ok


def claim_lines(workload: str, pairs) -> list:
    """Per metric: the pairs the new side won, the old side's interquartile
    range and whether the claim rule holds, over the (old, new) pairs."""
    lines = []
    for m in METRICS:
        sign = 1.0 if m in HIGHER_IS_BETTER else -1.0
        both = [(o["metrics"][m]["value"], n["metrics"][m]["value"])
                for o, n in pairs if o is not None and n is not None]
        if not both:
            continue
        wins = sum(sign * (n - o) > 0 for o, n in both)
        old, new = zip(*both)
        q1, _, q3 = (statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1
                     else (old[0],) * 3)
        gain = sign * (statistics.median(new) - statistics.median(old)) + 0.0  # not -0
        held = wins >= 0.9 * len(pairs) and gain > q3 - q1
        lines.append(f"{workload} {m}: new won {wins}/{len(pairs)} pairs, old IQR {q3 - q1:.6g}, "
                     f"median gain {gain:.6g}: claim rule {'holds' if held else 'does not hold'}")
    return lines


def path_warning(old_root: str, new_root: str):
    """The warning line for checkouts whose absolute paths differ in length,
    or None."""
    old, new = os.path.abspath(old_root), os.path.abspath(new_root)
    if len(old) == len(new):
        return None
    return (f"ab_bench: warning: the checkout paths differ in length ({len(old)} and "
            f"{len(new)} characters: {old}, {new}); end-to-end metrics move with the "
            "path length, so compare checkouts at paths of the same length")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", nargs="?", help="OLD_ROOT, a checkout with perfbench/")
    parser.add_argument("new_root", nargs="?", help="NEW_ROOT, a checkout with perfbench/")
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    if args.old_root is None or args.new_root is None or not args.workload:
        parser.print_help()
        return 0

    roots, ok = (args.old_root, args.new_root), True
    warning = path_warning(*roots)
    if warning:
        print(warning, file=sys.stderr, flush=True)
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            results = [None, None]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                results[side] = run_once(roots[side], workload, args.seconds, args.seed)
            pairs.append(tuple(results))
            print(pair_line(workload, k, *results), flush=True)
        lines, good = summarize(workload, pairs)
        ok &= good
        print("\n".join(lines[len(pairs):] + claim_lines(workload, pairs)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
