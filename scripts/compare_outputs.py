"""Output-identity check of the command line between two source trees.

Runs the same scenes with the ``pseudoconformal`` package of OLD_SRC and of
NEW_SRC, each tree in its own interpreter, and compares what they write:

* every shipped scene in ``scenes/`` under its command (hypersurface scenes
  under both ``classify`` and ``lightlike``), in CSV and in JSON;
* the 8 generated copies of each benchmark cycle, from
  ``perfbench/workloads.generate(workload, 3, dir)``, in their own formats;
* the ``ERROR_SCENES`` below under every command of their kind, in CSV and
  in JSON: grids with point errors, which no shipped or generated scene has.

For each run it prints the two exit codes and whether the output bytes are
identical, ``.leaf.csv`` side files and the run's standard error included
(failure messages go only there).  Where they differ it says whether the
text is the same with every number masked and, if so, the largest
|new - old| / (1 + |old|) over the numbers, then that largest difference per
field that moved, one indented line each: a JSON field is its key path with
list indices dropped (``center.degeneracy.generator_rate``), a CSV field its
column header (``leaf:`` and the header in a leaf side file), the standard
error the one field ``stderr``.  Where the text differs too, the fields are
compared the same way, JSON objects matched by key, and each JSON field
that only one side writes is named ("only in old" or "only in new").  One
summary line ends the report, with the line, AST statement and settable
value counts of each tree's ``pseudoconformal/*.py`` (old -> new; settable
values are function parameters and dataclass fields with a default), the
worst difference per field over all runs and the fields only one side
writes; the exit code is 0 only if every run matched byte for byte.

Example:
    python scripts/compare_outputs.py ../old/src src

Without arguments it compares this checkout's ``src`` with itself.
"""

import argparse
import ast
import csv
import io
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

#: scenes with point errors: under classify one point of the grid fails (a
#: zero division at u=(1, 0)) or every point fails ("math domain error"); under
#: lightlike the cone's vertex is a grid point ("non-finite jacobian at
#: u=[0.0, 0.0]") and the other 8 points each give one focal sample; the cone
#: congruence's v axis runs past 1, where its direction has no square root, so
#: the run ends at the first point whose line or neighbour fails (exit 3); with
#: a grid short of v = 1, the cone congruence's leaf runs past it (exit 3); the
#: twisted congruence's seed is not integrable (exit 3) and a cone seed outside
#: the grid's box is a scene error (exit 2); the
#: sphere's row u1 = 0 is its pole, where the Jacobian is rank deficient (a
#: J^T J check), and the spacelike sphere is no lightlike scene (exit 3)
ERROR_SCENES = {
    "failing_point": {"kind": "hypersurface", "builtin": "timelike_hypersphere", "n": 3,
                      "grid": {"axes": [{"start": 0.0, "stop": 1.0, "count": 3},
                                        {"start": 0.0, "stop": 1.0, "count": 3}]}},
    "all_failing": {"kind": "hypersurface", "builtin": "timelike_hypersphere", "n": 3,
                    "grid": {"axes": [{"start": 1.6, "stop": 1.9, "count": 3},
                                      {"start": 0.0, "stop": 1.0, "count": 2}]}},
    "cone_vertex": {"kind": "hypersurface", "builtin": "light_cone", "n": 3,
                    "grid": {"axes": [{"start": 0.0, "stop": 1.0, "count": 3},
                                      {"start": 0.0, "stop": 1.0, "count": 3}]}},
    "cone_past_one": {"kind": "congruence", "builtin": "cone_normal_congruence", "n": 3,
                      "grid": {"axes": [{"start": 0.5, "stop": 1.5, "count": 3},
                                        {"start": -1.0, "stop": 1.0, "count": 3}]}},
    "cone_leaf_past_one": {"kind": "congruence", "builtin": "cone_normal_congruence", "n": 3,
                           "grid": {"axes": [{"start": 0.5, "stop": 0.999, "count": 3},
                                             {"start": -1.0, "stop": 1.0, "count": 3}]},
                           "stratify": {"seed": [0.9, 0.2], "step": 0.01, "count": 40}},
    "twisted_leaf": {"kind": "congruence", "builtin": "twisted_congruence", "n": 4,
                     "grid": [3, 3, 3], "stratify": {"seed": [0.1, 0.2, -0.3], "count": 3}},
    "cone_seed_outside": {"kind": "congruence", "builtin": "cone_normal_congruence", "n": 3,
                          "grid": {"axes": [{"start": -0.2, "stop": 0.2, "count": 3},
                                            {"start": -0.5, "stop": 0.5, "count": 3}]},
                          "stratify": {"seed": [0.45, 0.9]}},
    "sphere_pole": {"kind": "hypersurface", "builtin": "euclidean_sphere", "n": 3,
                    "grid": {"axes": [{"start": 0.0, "stop": 1.0, "count": 3},
                                      {"start": 0.0, "stop": 1.0, "count": 3}]}},
}

#: what a run leaves beside its output file: the leaf table, the standard error
SIDE_FILES = (".leaf.csv", ".stderr")

#: numbers as the CLI writes them (shortest round-trip floats, integers)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\binf\b|\bnan\b|-?Infinity|NaN")

#: child program: run each (command, scene, out, format) with the CLI of one
#: source tree, in-process, write each run's standard error beside its output
#: and the exit codes as JSON
RUNNER = """
import contextlib, io, json, os, sys
src, plan, codes_path = sys.argv[1:4]
sys.path.insert(0, src)
import pseudoconformal.cli as cli
if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(os.path.abspath(src), "pseudoconformal"):
    raise SystemExit(f"imported {cli.__file__}, not {src}")
codes = []
for command, scene, out, fmt in json.load(open(plan)):
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--scene", scene, "--out", out, "--format", fmt])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI would print a traceback and exit 1
            code = 1
    codes.append(code)
    with open(out + ".stderr", "w") as fh:
        fh.write(err.getvalue())
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
        runs += [(f"errors/{name}.{command}.{fmt}", command, str(path), fmt)
                 for command in COMMANDS[doc["kind"]] for fmt in ("csv", "json")]
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


def source_lines(src: str) -> int:
    """Lines of the package modules of a source tree, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(src, "pseudoconformal").glob("*.py"))


def source_statements(src: str) -> int:
    """AST statements (``ast.stmt`` nodes, nested ones included) of the
    package modules of a source tree."""
    return sum(isinstance(node, ast.stmt) for p in Path(src, "pseudoconformal").glob("*.py")
               for node in ast.walk(ast.parse(p.read_bytes())))


def source_settables(src: str) -> int:
    """Settable values of the package modules of a source tree: function
    parameters with a default plus fields with a default of the classes
    decorated with ``dataclass``."""
    count = 0
    for p in Path(src, "pseudoconformal").glob("*.py"):
        for node in ast.walk(ast.parse(p.read_bytes())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


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


#: the value of a key that one JSON document lacks
ABSENT = object()


def _json_fields(old, new, path: str = ""):
    """(field, old text, new text) of every scalar of two JSON documents,
    the field being the key path without list indices; objects are matched
    by key, and a key that one side lacks has the text None there."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from _json_fields(old.get(key, ABSENT), new.get(key, ABSENT),
                                    f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for a, b in zip(old, new):
            yield from _json_fields(a, b, path)
    else:
        yield path, *(None if x is ABSENT else str(x) for x in (old, new))




def _csv_fields(old: str, new: str, prefix: str = ""):
    """(field, old cell, new cell) of every cell of two CSV texts, the field
    being the column header of the old text."""
    rows_old, rows_new = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    header = rows_old[0] if rows_old else []
    for row_old, row_new in zip(rows_old[1:], rows_new[1:]):
        for i, (a, b) in enumerate(zip(row_old, row_new)):
            yield prefix + (header[i] if i < len(header) else f"column {i}"), a, b


def field_differences(old_out: Path, new_out: Path) -> dict:
    """Largest |new - old| / (1 + |old|) per field that moved, over one
    run's output and its side files, whose texts are the same with numbers
    masked."""
    worst = {}
    for suffix in ("",) + SIDE_FILES:
        a, b = _read(Path(str(old_out) + suffix)), _read(Path(str(new_out) + suffix))
        if a is None or b is None or a == b:
            continue
        ta, tb = a.decode(), b.decode()
        if suffix == ".stderr":
            cells = [("stderr", ta, tb)]
        elif suffix:
            cells = _csv_fields(ta, tb, "leaf:")
        else:
            try:
                cells = _json_fields(json.loads(ta), json.loads(tb))
            except ValueError:
                cells = _csv_fields(ta, tb)
        for name, x, y in cells:
            delta = 0.0 if x is None or y is None else _worst_relative(x, y)
            if delta > 0.0:
                worst[name] = max(worst.get(name, 0.0), delta)
    return worst


def key_differences(old_out: Path, new_out: Path) -> dict:
    """The fields of one run's JSON output that only one side has, each
    mapped to "old" or "new"; empty for other outputs."""
    try:
        cells = _json_fields(*(json.loads(_read(out) or b"") for out in (old_out, new_out)))
        return {name: "new" if x is None else "old" for name, x, y in cells
                if x is None or y is None}
    except ValueError:
        return {}


def compare(old_out: Path, new_out: Path) -> tuple:
    """(identical, masked text equal, worst relative difference) of one
    run's output and its side files."""
    identical, masked, worst = True, True, 0.0
    for suffix in ("",) + SIDE_FILES:
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
        worst, worst_fields, sides = 0.0, {}, {}
        for i, (label, *_rest) in enumerate(runs):
            out = f"{i:04d}.out"
            identical, masked, delta = compare(tmp / "old" / out, tmp / "new" / out)
            codes = f"exit {old_codes[i]}/{new_codes[i]}"
            if old_codes[i] != new_codes[i]:
                code_mismatch += 1
            fields, keys = {}, {}
            if identical:
                same += 1
                verdict = "identical"
            elif masked:
                masked_only += 1
                worst = max(worst, delta)
                fields = field_differences(tmp / "old" / out, tmp / "new" / out)
                verdict = f"differs, same text with numbers masked, max rel {delta:.2e}"
            else:
                differing += 1
                fields = field_differences(tmp / "old" / out, tmp / "new" / out)
                keys = key_differences(tmp / "old" / out, tmp / "new" / out)
                verdict = "differs in text"
            print(f"{label}: {codes}, {verdict}")
            for name, side in sorted(keys.items()):
                print(f"  {name}: only in {side}")
                sides[name] = side
            for name, value in sorted(fields.items()):
                print(f"  {name}: max rel {value:.2e}")
                worst_fields[name] = max(worst_fields.get(name, 0.0), value)
    per_field = ", ".join(f"{name} {value:.2e}" for name, value in sorted(worst_fields.items()))
    only = "; ".join(f"only in {side}: "
                     + ", ".join(sorted(k for k, v in sides.items() if v == side))
                     for side in ("old", "new") if side in sides.values())
    print(f"compare_outputs: {len(runs)} runs, {same} byte-identical, {masked_only} same "
          f"with numbers masked (max |d|/(1+|v|) {worst:.2e}), {differing} differing in "
          f"text, {code_mismatch} exit-code mismatches, pseudoconformal/*.py "
          f"{source_lines(args.old_src)} -> {source_lines(args.new_src)} lines, "
          f"{source_statements(args.old_src)} -> {source_statements(args.new_src)} statements, "
          f"{source_settables(args.old_src)} -> {source_settables(args.new_src)} settable values"
          + (f"; worst per field: {per_field}" if per_field else "")
          + (f"; {only}" if only else ""))
    return 0 if same == len(runs) and code_mismatch == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
