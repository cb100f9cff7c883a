"""Output-identity check of the command line between two source trees.

Runs the same scenes with the ``pseudoconformal`` package of OLD_SRC and of
NEW_SRC, each tree in its own interpreter, and compares what they write:

* every shipped scene in ``scenes/`` under its command (hypersurface scenes
  under both ``classify`` and ``lightlike``), in CSV and in JSON;
* the 8 generated copies of each benchmark cycle, from
  ``perfbench/workloads.generate(workload, 3, dir)``, in their own formats;
* the ``ERROR_SCENES`` below under ``classify``, in CSV and in JSON: grids
  with point errors, which no shipped or generated scene has.

For each run it prints the two exit codes and whether the output bytes are
identical, ``.leaf.csv`` side files included.  Where they differ it says
whether the text is the same with every number masked and, if so, the
largest |new - old| / (1 + |old|) over the numbers.  One summary line ends
the report; the exit code is 0 only if every run matched byte for byte.

Example:
    python scripts/compare_outputs.py ../old/src src

Without arguments it compares this checkout's ``src`` with itself.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: command(s) each scene kind runs under
COMMANDS = {"points": ("embed",), "hypersurface": ("classify", "lightlike"),
            "congruence": ("congruence",)}

#: classify scenes with point errors: one point of the grid fails (a zero
#: division at u=(1, 0)), or every point fails ("math domain error")
ERROR_SCENES = {
    "failing_point": {"kind": "hypersurface", "builtin": "timelike_hypersphere", "n": 3,
                      "grid": {"axes": [{"start": 0.0, "stop": 1.0, "count": 3},
                                        {"start": 0.0, "stop": 1.0, "count": 3}]}},
    "all_failing": {"kind": "hypersurface", "builtin": "timelike_hypersphere", "n": 3,
                    "grid": {"axes": [{"start": 1.6, "stop": 1.9, "count": 3},
                                      {"start": 0.0, "stop": 1.0, "count": 2}]}},
}

#: numbers as the CLI writes them (shortest round-trip floats, integers)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\binf\b|\bnan\b|-?Infinity|NaN")

#: child program: run each (command, scene, out, format) with the CLI of one
#: source tree, in-process, and write the exit codes as JSON
RUNNER = """
import contextlib, io, json, os, sys
src, plan, codes_path = sys.argv[1:4]
sys.path.insert(0, src)
import pseudoconformal.cli as cli
if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(os.path.abspath(src), "pseudoconformal"):
    raise SystemExit(f"imported {cli.__file__}, not {src}")
codes = []
for command, scene, out, fmt in json.load(open(plan)):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main([command, "--scene", scene, "--out", out, "--format", fmt])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI would print a traceback and exit 1
            code = 1
    codes.append(code)
json.dump(codes, open(codes_path, "w"))
"""


def plan_runs(scenes_dir: Path) -> list:
    """(label, command, scene path, format) of every run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = []
    for path in sorted((ROOT / "scenes").glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        for command in COMMANDS[kind]:
            for fmt in ("csv", "json"):
                runs.append((f"scenes/{path.stem}.{command}.{fmt}", command, str(path), fmt))
    for workload in workloads.WORKLOADS:
        directory = scenes_dir / workload
        directory.mkdir()
        for copy in workloads.generate(workload, 3, str(directory)):
            for scene in copy:
                runs.append((f"{workload}/{Path(scene.path).stem}.{scene.slot.fmt}",
                             scene.slot.command, scene.path, scene.slot.fmt))
    for name, doc in ERROR_SCENES.items():
        path = scenes_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs += [(f"errors/{name}.classify.{fmt}", "classify", str(path), fmt)
                 for fmt in ("csv", "json")]
    return runs


def run_side(src: str, runs: list, out_dir: Path) -> subprocess.Popen:
    """Start one interpreter that runs every scene with the CLI of src."""
    out_dir.mkdir()
    plan = [(command, scene, str(out_dir / f"{i:04d}.out"), fmt)
            for i, (_, command, scene, fmt) in enumerate(runs)]
    (out_dir / "plan.json").write_text(json.dumps(plan))
    return subprocess.Popen([sys.executable, "-c", RUNNER, os.path.abspath(src),
                             str(out_dir / "plan.json"), str(out_dir / "codes.json")],
                            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))


def _read(path: Path):
    return path.read_bytes() if path.exists() else None


def _worst_relative(old: str, new: str) -> float:
    """Largest |new - old| / (1 + |old|) over paired numbers; nan pairs
    count as equal."""
    worst = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a.replace("Infinity", "inf")), float(b.replace("Infinity", "inf"))
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(y - x) / (1.0 + abs(x)))
    return worst


def compare(old_out: Path, new_out: Path) -> tuple:
    """(identical, masked text equal, worst relative difference) of one
    run's output and its leaf side file."""
    identical, masked, worst = True, True, 0.0
    for suffix in ("", ".leaf.csv"):
        a, b = _read(Path(str(old_out) + suffix)), _read(Path(str(new_out) + suffix))
        if a == b:
            continue
        identical = False
        if a is None or b is None:
            masked = False
            continue
        ta, tb = a.decode(), b.decode()
        if NUMBER.sub("#", ta) != NUMBER.sub("#", tb):
            masked = False
            continue
        worst = max(worst, _worst_relative(ta, tb))
    return identical, masked, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = str(ROOT / "src")
    parser.add_argument("old_src", nargs="?", default=default, help="OLD_SRC (default: ./src)")
    parser.add_argument("new_src", nargs="?", default=default, help="NEW_SRC (default: ./src)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        tmp = Path(tmp)
        (tmp / "scenes").mkdir()
        runs = plan_runs(tmp / "scenes")
        sides = [run_side(src, runs, tmp / name)
                 for name, src in (("old", args.old_src), ("new", args.new_src))]
        if any(proc.wait() != 0 for proc in sides):
            print("compare_outputs: a runner failed", file=sys.stderr)
            return 2
        old_codes, new_codes = (json.loads((tmp / name / "codes.json").read_text())
                                for name in ("old", "new"))
        same = masked_only = differing = code_mismatch = 0
        worst = 0.0
        for i, (label, *_rest) in enumerate(runs):
            out = f"{i:04d}.out"
            identical, masked, delta = compare(tmp / "old" / out, tmp / "new" / out)
            codes = f"exit {old_codes[i]}/{new_codes[i]}"
            if old_codes[i] != new_codes[i]:
                code_mismatch += 1
            if identical:
                same += 1
                verdict = "identical"
            elif masked:
                masked_only += 1
                worst = max(worst, delta)
                verdict = f"differs, same text with numbers masked, max rel {delta:.2e}"
            else:
                differing += 1
                verdict = "differs in text"
            print(f"{label}: {codes}, {verdict}")
    print(f"compare_outputs: {len(runs)} runs, {same} byte-identical, {masked_only} same "
          f"with numbers masked (max |d|/(1+|v|) {worst:.2e}), {differing} differing in "
          f"text, {code_mismatch} exit-code mismatches")
    return 0 if same == len(runs) and code_mismatch == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
