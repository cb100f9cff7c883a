"""Scene benchmark of the ``pseudoconformal`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lightlike --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client.  This process generates jittered copies
of the workload's scene cycle from the seed, then runs the scenes one after
another through the CLI entry point ``pseudoconformal.cli.main``, in
process, until ``--seconds`` have passed; a started cycle is always
finished, and each cycle uses the next copy.  The worker pool stays
off (``PSEUDOCONFORMAL_WORKERS`` unset) and BLAS runs one thread.  Each scene
is timed from outside and its output checked against analytic truth.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced cycles of the same scenes and reports per-layer metrics from the
spans of the traced cycles, normalised per cycle, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
analysed parameter points: grid points plus the lattice points of every
integrated leaf.
"""

import os

# set before numpy is first imported, below: one BLAS thread, no worker pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PSEUDOCONFORMAL_WORKERS", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import spans
import workloads
from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: what running leaves behind: run records, span dumps, scratch scenes
STATE = os.path.join(ROOT, ".perfbench")
#: fresh-interpreter imports timed per run; setup_s is their median
SETUP_REPEATS = 11

END_TO_END = {
    "points_per_s": "points/s",
    "scene_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: per-analysed-point call counts reported as waste ratios
PER_POINT = ("linalg.jacobi_eigh", "linalg.solve", "catalog.eval",
             "hypersurface.classify_point", "congruence.congruence_affinor")
#: kernels whose mean cost per call is reported
PER_CALL = ("linalg.jacobi_eigh", "linalg.solve", "linalg.durand_kerner")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit; counts and times are per
    workload cycle."""
    units = {}
    for name in spans.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in PER_POINT:
        units[f"{name}.calls_per_point"] = "calls/point"
    for name in PER_CALL:
        units[f"{name}.us_per_call"] = "us"
    units["cli.out_bytes"] = "bytes"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class SceneRun:
    scene: workloads.Scene
    code: int
    wall_s: float
    speed: float  # reference seconds per wall second around this run
    failed: int
    out_bytes: int
    digest: str

    @property
    def seconds(self) -> float:
        """Duration in reference seconds."""
        return self.wall_s * self.speed


def warn(message: str):
    print(f"warning: {message}", file=sys.stderr)


def locate_program():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    pkg = os.path.join(SRC, "pseudoconformal")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise SystemExit(f"benchmark: no program sources at {pkg}")
    sys.path.insert(0, SRC)
    import pseudoconformal.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != pkg:
        raise SystemExit(f"benchmark: imported {cli.__file__}, not the checkout's sources")
    return cli


def time_setup(workload: str, seed: int, directory: str, speed: Speedometer):
    """Median of SETUP_REPEATS set-ups, in reference seconds: importing the
    CLI in a fresh interpreter (what every CLI invocation pays, timed inside
    that interpreter) plus scene generation."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import time; t = time.perf_counter(); import pseudoconformal.cli; "
             "print(time.perf_counter() - t)")
    samples = []
    copies = None
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                               check=True, capture_output=True, text=True)
        t0 = time.perf_counter()
        copies = workloads.generate(workload, seed, directory)
        wall = float(child.stdout) + time.perf_counter() - t0
        samples.append(wall * speed.factor())
    return statistics.median(samples), copies


def run_scene(cli, scene: workloads.Scene, speed: Speedometer) -> SceneRun:
    if os.path.exists(scene.out_path):
        os.remove(scene.out_path)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([scene.slot.command, "--scene", scene.path])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI would print this traceback and exit 1
            traceback.print_exc()
            code = 1
    wall_s = time.perf_counter() - t0
    factor = speed.factor()
    failed, problem = scene.check(code)
    data = b""
    if os.path.exists(scene.out_path):
        with open(scene.out_path, "rb") as fh:
            data = fh.read()
    if problem:
        print(f"{scene.slot.label} failed: {problem}: {err.getvalue().strip()[-300:]}",
              file=sys.stderr)
    return SceneRun(scene, code, wall_s, factor, failed, len(data),
                    hashlib.sha256(data).hexdigest())


def run_cycle(cli, scenes, speed: Speedometer, recorder=None) -> list:
    """One pass over the scenes; with a recorder, each run's spans carry
    the run's index among all runs the recorder has seen."""
    runs = []
    for scene in scenes:
        if recorder is not None:
            recorder.scene += 1
        runs.append(run_scene(cli, scene, speed))
    return runs


def cycle_throughput(runs) -> float:
    done = sum(r.scene.slot.points - r.failed for r in runs)
    return done / sum(r.seconds for r in runs)


def end_to_end(cycles, setup_s: float) -> dict:
    flat = [r for c in cycles for r in c]
    return {
        "points_per_s": statistics.median(cycle_throughput(c) for c in cycles),
        "scene_s_p50": statistics.median(r.seconds for r in flat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(recorder, plain, traced) -> dict:
    calls, total, own = recorder.summary([r.speed for c in traced for r in c])
    k = len(traced)
    points = sum(r.scene.slot.points for c in traced for r in c) / k
    out = {}
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    for i, name in enumerate(recorder.names):
        out[f"{name}.calls"] = int(calls[i]) / k
        out[f"{name}.total_s"] = float(total[i]) / k
        out[f"{name}.self_s"] = float(own[i]) / k
        layer_self[name.split(".")[0]] += float(own[i]) / k
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    for name in PER_POINT:
        out[f"{name}.calls_per_point"] = out[f"{name}.calls"] / points
    for name in PER_CALL:
        c = out[f"{name}.calls"]
        out[f"{name}.us_per_call"] = 1e6 * out[f"{name}.total_s"] / c if c else 0.0
    out["cli.out_bytes"] = sum(r.out_bytes for c in traced for r in c) / k
    traced_wall = sum(r.seconds for c in traced for r in c)
    plain_wall = sum(r.seconds for c in plain for r in c)
    out["trace.wall_s"] = traced_wall / k
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


def machine() -> dict:
    """Where a run was made: commit, interpreter, numpy, CPUs."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = locate_program()
    os.makedirs(STATE, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE)
    try:
        speed = Speedometer()
        if args.trace:
            setup_s = None
            copies = workloads.generate(args.workload, args.seed, tmp)
        else:
            setup_s, copies = time_setup(args.workload, args.seed, tmp, speed)

        plain, traced = [], []
        recorder = spans.SpanRecorder(spans.span_names())
        started = time.perf_counter()
        while not plain or time.perf_counter() - started < args.seconds:
            scenes = copies[len(plain) % len(copies)]
            plain.append(run_cycle(cli, scenes, speed))
            if args.trace:
                with spans.installed(recorder, warn=warn):
                    traced.append(run_cycle(cli, scenes, speed, recorder))

        cycles = plain + traced
        failed = sum(r.failed for c in cycles for r in c)
        attempted = sum(r.scene.slot.points for c in cycles for r in c)
        for p_cycle, t_cycle in zip(plain, traced):
            for p, t in zip(p_cycle, t_cycle):
                if p.digest != t.digest:
                    print(f"output differs with tracing on: {p.scene.slot.label}",
                          file=sys.stderr)
                    failed += p.scene.slot.points

        if args.trace:
            values = per_layer(recorder, plain, traced)
            units = per_layer_units()
            recorder.save(os.path.join(STATE, f"spans-{args.workload}.npz"),
                          [r.scene.slot.label for c in traced for r in c])
        else:
            values = end_to_end(plain, setup_s)
            units = END_TO_END
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

        scene_count = sum(len(c) for c in plain)
        print(f"{args.workload}: {len(plain)} cycles, {scene_count} scenes, "
              f"{attempted} points attempted, {failed} failed "
              f"(failed_frac {failed / attempted:.6g} ratio)")
        for k, m in metrics.items():
            print(f"  {k:44s} {m['value']:.6g} {m['unit']}")

        flat = [r for c in plain for r in c]
        record = machine()
        record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace,
                      wall_points_per_s=sum(r.scene.slot.points - r.failed for r in flat)
                      / sum(r.wall_s for r in flat),
                      speed_median=statistics.median(r.speed for r in flat),
                      cycles=len(plain), scenes=scene_count, attempted=attempted,
                      failed=failed, failed_frac=failed / attempted,
                      metrics={k: m["value"] for k, m in metrics.items()})
        with open(os.path.join(STATE, "runs.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
