"""Command-line driver: scene files in, CSV/JSON analyses out.

Scenes are strict JSON documents; unknown keys anywhere are errors so typos
in tolerance overrides cannot pass silently.  All output is deterministic:
floats are written in shortest round-trip form and grids are traversed in
index order.

Exit codes: 0 success, 2 scene/usage error, 3 numerical failure.  The data
go to the output file or to stdout, the one-line run summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional

import numpy as np

from . import catalog
from .conformal import (
    AmbientModel,
    AtInfinity,
    darboux_embed,
    darboux_unembed,
    quadric_residual,
)
from .congruence import _congruence_affinors, congruence_singular_points, stratify
from .errors import ConvergenceError, GeometryError, NonIntegrableError
from .hypersurface import parameter_grid, survey
from .lightlike import (
    degeneracy_check,
    focal_map,
    lightlike_affinor,
    torse_directions,
)

SCENE_KEYS = {"n", "kind", "builtin", "params", "points", "grid", "tolerances",
              "stratify", "output"}
TOLERANCE_KEYS = {"lightlike", "symmetry", "integrability"}
STRATIFY_KEYS = {"seed", "step", "count"}
OUTPUT_KEYS = {"format", "path"}
GRID_AXIS_KEYS = {"start", "stop", "count"}


class SceneError(ValueError):
    pass


@dataclass
class Scene:
    n: Optional[int]
    kind: str
    builtin: Optional[str]
    params: dict
    points: Optional[list]
    grid: Optional[object]
    tolerances: dict
    stratify: Optional[dict]
    out_format: str
    out_path: Optional[str]


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _finite(x) -> bool:
    """Whether a parsed JSON value is a finite number (booleans are not)."""
    return (type(x) is float and math.isfinite(x)
            or type(x) is int and abs(x) <= sys.float_info.max)


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise SceneError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise SceneError(f"unknown keys in {where}: {sorted(unknown)}")


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file is not valid JSON: {exc}") from exc
    _check_keys(raw, SCENE_KEYS, "scene")
    kind = raw.get("kind")
    if kind not in ("hypersurface", "congruence", "points"):
        raise SceneError("scene kind must be 'hypersurface', 'congruence' or 'points'")
    n = raw.get("n")
    if n is not None:
        if not isinstance(n, int) or n < 3:
            raise SceneError("n must be an integer >= 3")
    builtin = raw.get("builtin")
    if kind != "points":
        if not builtin:
            raise SceneError("scene needs a 'builtin' catalog name")
        if builtin not in catalog.CATALOG:
            raise SceneError(
                f"unknown builtin {builtin!r}; run the 'examples' subcommand"
            )
        if catalog.CATALOG[builtin].kind != kind:
            raise SceneError(f"builtin {builtin!r} is not a {kind}")
    points = raw.get("points")
    if kind == "points":
        if not isinstance(points, list) or not points:
            raise SceneError("a points scene needs a nonempty 'points' array")
        if n is None:
            raise SceneError("a points scene must set n explicitly")
        for p in points:
            if not (isinstance(p, list) and len(p) == n and all(_finite(v) for v in p)):
                raise SceneError(f"point {p!r} is not {n} finite numbers")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SceneError("params must be an object")
    tolerances = raw.get("tolerances", {})
    if tolerances:
        _check_keys(tolerances, TOLERANCE_KEYS, "tolerances")
    strat = raw.get("stratify")
    if strat is not None:
        _check_keys(strat, STRATIFY_KEYS, "stratify")
        if kind != "congruence":
            raise SceneError("stratify applies only to congruence scenes")
        seed = strat.get("seed")
        if not (isinstance(seed, list) and all(_finite(x) for x in seed)):
            raise SceneError("stratify needs a seed parameter point of finite numbers")
        step = strat.get("step", 1e-2)
        if not (_finite(step) and step > 0):
            raise SceneError("stratify step must be a finite number > 0")
        count = strat.get("count", 40)
        if not (type(count) is int and count >= 1):
            raise SceneError("stratify count must be an integer >= 1")
    grid = raw.get("grid")
    if isinstance(grid, dict):
        _check_keys(grid, {"axes"}, "grid")
        for ax in grid.get("axes", []):
            _check_keys(ax, GRID_AXIS_KEYS, "grid axis")
    elif grid is not None and not isinstance(grid, list):
        raise SceneError("grid must be a counts array or an axes object")
    output = raw.get("output", {})
    if output:
        _check_keys(output, OUTPUT_KEYS, "output")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise SceneError("output format must be 'csv' or 'json'")
    return Scene(
        n=n,
        kind=kind,
        builtin=builtin,
        params=params,
        points=points,
        grid=grid,
        tolerances=tolerances,
        stratify=strat,
        out_format=out_format,
        out_path=output.get("path"),
    )


def _build_object(scene: Scene):
    try:
        return catalog.build(scene.builtin, n=scene.n, **scene.params)
    except (KeyError, ValueError, TypeError) as exc:
        raise SceneError(str(exc)) from exc


def _resolve_grid(scene: Scene, obj):
    """Grid counts plus an optional domain override from the scene."""
    default_counts = [8] * obj.params
    if scene.grid is None:
        return obj, default_counts
    if isinstance(scene.grid, list):
        counts = scene.grid
        domain = None
    else:
        axes = scene.grid.get("axes", [])
        if len(axes) != obj.params:
            raise SceneError(f"grid needs {obj.params} axes")
        counts = [ax.get("count", 8) for ax in axes]
        if not all(_finite(ax[k]) for ax in axes for k in ("start", "stop") if k in ax):
            raise SceneError("grid axis start and stop must be finite numbers")
        domain = tuple(
            (float(ax.get("start", obj.domain[i][0])),
             float(ax.get("stop", obj.domain[i][1])))
            for i, ax in enumerate(axes)
        )
        for i, (lo, hi) in enumerate(domain):
            if not math.isfinite(hi - lo):
                raise SceneError(f"grid axis u{i + 1} from {lo!r} to {hi!r} has non-finite samples")
    if len(counts) != obj.params:
        raise SceneError(f"grid needs {obj.params} axis counts")
    if not all(type(c) is int and c >= 2 for c in counts):
        raise SceneError("grid counts must be integers of at least 2 per axis")
    if domain is not None:
        obj = replace(obj, domain=domain)
    return obj, counts


def _write(path, text):
    """Write output text to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SceneError(f"cannot write output file: {exc}") from exc


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _write(path, "\n".join(lines) + "\n")


def _emit(path, fmt, csv_header, csv_rows, payload):
    if fmt == "csv":
        _write_csv(path, csv_header, csv_rows)
    else:
        _write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _reprs(values: np.ndarray) -> list:
    """float.__repr__ of each entry of a float array, formatted once per
    distinct bit pattern: a grid column repeats its axis samples."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(k) for k in keys.view(float).tolist()], dtype=object)[inverse].tolist()


def _rows(template: str, sep: str, columns: list) -> str:
    """A row template filled from each row of equal-length columns of cells,
    the rows joined by sep."""
    return sep.join([template] * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _classify_text(report, fmt, header, fields) -> str:
    """Classify output written from the report's columns: the CSV table, or
    the JSON document of the small ``fields`` and the points.  The bytes are
    those of the per-cell CSV rule and of ``json.dumps(sort_keys=True,
    indent=1)`` on per-point records; floats are in ``float.__repr__`` form."""
    u = [_reprs(column) for column in report.u.T]
    ratio = list(map(float.__repr__, report.min_eig_ratio.tolist()))
    inertia = [report.plus.tolist(), report.minus.tolist(), report.zero.tolist()]
    if fmt == "csv":
        row = ",".join(["%s"] * (len(u) + 5)) + "\n"
        return ",".join(header) + "\n" + _rows(row, "", u + [report.kinds] + inertia + [ratio])
    point = ('  {\n   "inertia": [\n    %s,\n    %s,\n    %s\n   ],\n   "min_eig_ratio": %s,\n'
             '   "type": "%s",\n   "u": [\n' + ",\n".join(["    %s"] * len(u)) + "\n   ]\n  }")
    points = _rows(point, ",\n", inertia + [ratio, report.kinds] + u)
    blocks = {k: json.dumps(v, sort_keys=True, indent=1).replace("\n", "\n ")
              for k, v in fields.items()}
    blocks["points"] = f"[\n{points}\n ]" if points else "[]"
    return "{\n" + ",\n".join(f' "{k}": {v}' for k, v in sorted(blocks.items())) + "\n}\n"


def _roots_json(roots):
    """JSON records of characteristic roots."""
    return [{"x": [r.value.real, r.value.imag], "multiplicity": r.multiplicity,
             "real": r.is_real} for r in roots]


def _focal_cells(target, n):
    """CSV marker and coordinate cells of a focal point, given what
    darboux_unembed made of it, or None for a complex root."""
    if target is None:
        return ["complex"] + [""] * n
    if isinstance(target, AtInfinity):
        return ["INF"] + [""] * n
    return ["point"] + [float(v) for v in target]


def run_embed(scene: Scene, out_path, fmt) -> int:
    model = AmbientModel.standard(scene.n)
    rows = []
    entries = []
    for p in scene.points:
        p = np.asarray(p, dtype=float)
        x = darboux_embed(p, model)
        res = quadric_residual(x, model)
        back = darboux_unembed(x, model)
        roundtrip = float(np.abs(back - p).max())
        rows.append(list(p) + list(x.coords) + [res, roundtrip])
        entries.append(
            {
                "point": [float(v) for v in p],
                "coords": [float(v) for v in x.coords],
                "residual": res,
                "roundtrip": roundtrip,
            }
        )
    header = (
        [f"p{i}" for i in range(1, scene.n + 1)]
        + [f"x{i}" for i in range(scene.n + 2)]
        + ["residual", "roundtrip"]
    )
    _emit(out_path, fmt, header, rows, {"n": scene.n, "points": entries})
    print(f"embedded {len(rows)} points (n={scene.n})", file=sys.stderr)
    return 0


def run_classify(scene: Scene, out_path, fmt) -> int:
    imm, counts = _resolve_grid(scene, _build_object(scene))
    report = survey(imm, counts, tol=scene.tolerances.get("lightlike"))
    header = ([f"u{i}" for i in range(1, imm.params + 1)]
              + ["type", "plus", "minus", "zero", "min_eig_ratio"])
    fields = {
        "builtin": imm.name,
        "n": imm.n,
        "counts": report.counts,
        "pure": report.pure,
        "transitions": [{"axis": t.axis, "index_low": list(t.index_low), "u_low": list(t.u_low),
                         "u_high": list(t.u_high), "kinds": list(t.kinds)}
                        for t in report.transitions],
        "errors": [{"index": list(i), "message": m} for i, m in report.errors],
    }
    _write(out_path, _classify_text(report, fmt, header, fields))
    summary = report.pure if report.pure else "mixed"
    print(
        f"classified {sum(report.counts.values())} points: {summary} "
        f"({report.counts}, transitions={len(report.transitions)})",
        file=sys.stderr,
    )
    return 0


def run_lightlike(scene: Scene, out_path, fmt) -> int:
    imm = _build_object(scene)
    imm, counts = _resolve_grid(scene, imm)
    model = AmbientModel.standard(imm.n)
    sym_tol = scene.tolerances.get("symmetry")

    focal = focal_map(imm, counts, model=model, sym_tol=sym_tol)
    center = np.array([0.5 * (lo + hi) for lo, hi in imm.domain])
    an = lightlike_affinor(imm, center, model=model, sym_tol=sym_tol)
    torses = torse_directions(an)
    degeneracy = degeneracy_check(imm, an, model=model)

    header = (
        [f"u{i}" for i in range(1, imm.params + 1)]
        + ["root_index", "x", "multiplicity", "focal"]
        + [f"f{i}" for i in range(1, imm.n + 1)]
    )
    rows = []
    for s in focal.samples:
        target = AtInfinity(s.projective) if s.at_infinity else s.point
        rows.append(list(s.u) + [s.root_index, s.x, s.multiplicity]
                    + _focal_cells(target, imm.n))
    payload = {
        "builtin": imm.name,
        "n": imm.n,
        "center": {
            "u": [float(v) for v in center],
            "shape_operator": an.shape_operator.tolist(),
            "symmetry_defect": an.symmetry_defect,
            "determinant": an.determinant,
            "roots": _roots_json(an.roots),
            "torses": [
                {"root": t.root, "multiplicity": t.multiplicity,
                 "directions": t.directions.tolist()}
                for t in torses
            ],
            "degeneracy": {
                "max_angle": degeneracy.max_angle,
                "tangent_rank": degeneracy.tangent_rank,
                "skipped": len(degeneracy.skipped),
            },
        },
        "focal_samples": [
            {
                "u": list(s.u),
                "root_index": s.root_index,
                "x": s.x,
                "multiplicity": s.multiplicity,
                "at_infinity": s.at_infinity,
                "point": None if s.at_infinity else [float(v) for v in s.point],
            }
            for s in focal.samples
        ],
        "focal_clusters": [
            {
                "at_infinity": c.at_infinity,
                "representative": None
                if c.at_infinity
                else [float(v) for v in c.representative],
                "count": c.count,
            }
            for c in focal.clusters
        ],
        "errors": [{"u": list(u), "message": m} for u, m in focal.errors],
    }
    _emit(out_path, fmt, header, rows, payload)
    print(
        f"lightlike pipeline on {imm.name}: {len(focal.samples)} focal samples, "
        f"{len(focal.clusters)} clusters, defect={an.symmetry_defect:.2e}, "
        f"degeneracy={degeneracy.max_angle:.2e}",
        file=sys.stderr,
    )
    return 0


def run_congruence(scene: Scene, out_path, fmt) -> int:
    cong = _build_object(scene)
    cong, counts = _resolve_grid(scene, cong)
    model = AmbientModel.standard(cong.n)
    if scene.stratify and len(scene.stratify["seed"]) != cong.params:
        raise SceneError(f"stratify seed needs {cong.params} entries")

    header = (
        [f"u{i}" for i in range(1, cong.params + 1)]
        + ["defect", "root_index", "root_re", "root_im", "multiplicity", "real",
           "focal"]
        + [f"f{i}" for i in range(1, cong.n + 1)]
    )
    rows = []
    samples = []
    worst = 0.0
    grid = parameter_grid(cong, counts)[1]
    for u, an in zip(grid, _congruence_affinors(cong, grid, model)):
        if isinstance(an, Exception):
            raise an
        worst = max(worst, an.symmetry_defect)
        sample = {
            "u": [float(v) for v in u],
            "defect": an.symmetry_defect,
            "roots": _roots_json(an.roots),
        }
        samples.append(sample)
        for k, sp in enumerate(congruence_singular_points(an)):
            target = darboux_unembed(sp.point, model) if sp.is_real else None
            rows.append(
                list(float(v) for v in u)
                + [an.symmetry_defect, k, sp.x.real, sp.x.imag, sp.multiplicity,
                   int(sp.is_real)]
                + _focal_cells(target, cong.n)
            )

    payload = {
        "builtin": cong.name,
        "n": cong.n,
        "max_defect": worst,
        "samples": samples,
    }
    leaf_info = None
    if scene.stratify:
        seed = np.asarray(scene.stratify["seed"], dtype=float)
        tol = scene.tolerances.get("integrability")
        kwargs = {"step": float(scene.stratify.get("step", 1e-2)),
                  "count": int(scene.stratify.get("count", 40))}
        if tol is not None:
            kwargs["tol"] = float(tol)
        leaf = stratify(cong, seed, model=model, **kwargs)
        leaf_info = {
            "seed": list(leaf.seed),
            "size": len(leaf.parameters),
            "lightlike_fraction": leaf.lightlike_fraction,
            "truncated": leaf.truncated,
            "parameters": [list(p) for p in leaf.parameters],
        }
        payload["leaf"] = leaf_info
        if fmt == "csv" and out_path is not None:
            leaf_rows = [
                [i] + list(p) for i, p in enumerate(leaf.parameters)
            ]
            _write_csv(
                str(out_path) + ".leaf.csv",
                ["index"] + [f"u{i}" for i in range(1, cong.params + 1)],
                leaf_rows,
            )
    _emit(out_path, fmt, header, rows, payload)
    msg = f"congruence pipeline on {cong.name}: max defect={worst:.2e}"
    if leaf_info:
        msg += (
            f", leaf size={leaf_info['size']}"
            f", lightlike fraction={leaf_info['lightlike_fraction']:.3f}"
        )
    print(msg, file=sys.stderr)
    return 0


def run_examples() -> int:
    for name in sorted(catalog.CATALOG):
        e = catalog.CATALOG[name]
        dims = "any n>=3" if not e.dims else f"n in {sorted(e.dims)}"
        params = ", ".join(f"{k}={v}" for k, v in e.params.items()) or "-"
        print(f"{e.name:26s} {e.kind:12s} {dims:12s} default n={e.default_n} "
              f"params: {params}")
        print(f"{'':26s} {e.description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudoconformal",
        description="surveys and focal analyses on the quadric model of "
        "compactified Minkowski space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("embed", "map points through the quadric embedding"),
        ("classify", "causal classification survey of a hypersurface scene"),
        ("lightlike", "shape operator, focal set and degeneracy of a "
         "lightlike scene"),
        ("congruence", "shape operator, defect and stratification of a "
         "congruence scene"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scene", required=True, help="path to a JSON scene file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default=None, choices=["csv", "json"],
                       help="override the scene's output format")
    sub.add_parser("examples", help="list the built-in catalog")

    args = parser.parse_args(argv)
    if args.command == "examples":
        return run_examples()

    try:
        scene = load_scene(args.scene)
        fmt = args.format or scene.out_format
        out_path = args.out or scene.out_path
        expected, run = {
            "embed": ("points", run_embed),
            "classify": ("hypersurface", run_classify),
            "lightlike": ("hypersurface", run_lightlike),
            "congruence": ("congruence", run_congruence),
        }[args.command]
        if scene.kind != expected:
            raise SceneError(
                f"{args.command} needs a {expected} scene, got kind={scene.kind!r}"
            )
        return run(scene, out_path, fmt)
    except SceneError as exc:
        print(f"scene error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except (GeometryError, NonIntegrableError, ConvergenceError) as exc:
        print(f"numerical failure ({args.command}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
