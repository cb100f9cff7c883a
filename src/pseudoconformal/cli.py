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
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from . import catalog
from .conformal import AmbientModel, _normalized, _singular_coords, _unembed, lift_point
from .congruence import _congruence_affinors, _domain_bounds, _member_analysis, stratify
from .errors import ConvergenceError, GeometryError, NonIntegrableError
from .hypersurface import parameter_grid, survey
from .lightlike import _affinors, _analysis, _degeneracy_report, _focal_set, torse_directions
from .linalg import MAX_ROOT_ORDER, _dots

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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
        if not isinstance(builtin, str) or builtin not in catalog.CATALOG:
            raise SceneError(f"unknown builtin {builtin!r}; run the 'examples' subcommand")
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
    for key, value in params.items():
        if not _finite(value):
            raise SceneError(f"params value {key!r} must be a finite number, got {value!r}")
    tolerances = raw.get("tolerances", {})
    _check_keys(tolerances, TOLERANCE_KEYS, "tolerances")
    for key, value in tolerances.items():
        if not (_finite(value) and value > 0):
            raise SceneError(f"tolerance {key!r} must be a finite number > 0, got {value!r}")
    strat = raw.get("stratify")
    if strat is not None:
        _check_keys(strat, STRATIFY_KEYS, "stratify")
        if kind != "congruence":
            raise SceneError("stratify applies only to congruence scenes")
        seed = strat.get("seed")
        if not (isinstance(seed, list) and all(_finite(x) for x in seed)):
            raise SceneError("stratify needs a seed parameter point of finite numbers")
        if "step" in strat and not (_finite(strat["step"]) and strat["step"] > 0):
            raise SceneError("stratify step must be a finite number > 0")
        if "count" in strat and not (type(strat["count"]) is int and strat["count"] >= 1):
            raise SceneError("stratify count must be an integer >= 1")
    grid = raw.get("grid")
    if isinstance(grid, dict):
        _check_keys(grid, {"axes"}, "grid")
        if not isinstance(grid.get("axes", []), list):
            raise SceneError("grid axes must be an array")
        for ax in grid.get("axes", []):
            _check_keys(ax, GRID_AXIS_KEYS, "grid axis")
    elif grid is not None and not isinstance(grid, list):
        raise SceneError("grid must be a counts array or an axes object")
    output = raw.get("output", {})
    _check_keys(output, OUTPUT_KEYS, "output")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise SceneError("output format must be 'csv' or 'json'")
    if "path" in output and not (isinstance(output["path"], str) and output["path"]):
        raise SceneError("output path must be a non-empty string")
    return Scene(n=n, kind=kind, builtin=builtin, params=params, points=points, grid=grid,
                 tolerances=tolerances, stratify=strat, out_format=out_format,
                 out_path=output.get("path"))


def _build_object(scene: Scene):
    try:
        return catalog.build(scene.builtin, n=scene.n, **scene.params)
    except (KeyError, ValueError, TypeError) as exc:
        raise SceneError(str(exc)) from exc


def _resolve_grid(scene: Scene, obj):
    """Grid counts plus an optional domain override from the scene."""
    counts, domain = [8] * obj.params if scene.grid is None else scene.grid, None
    if isinstance(scene.grid, dict):
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
    if math.prod(counts) * len(counts) > sys.maxsize // 8:  # beyond numpy's index range
        raise SceneError(f"a grid of {len(counts)} axes has too many points to index")
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


def _reprs(values: np.ndarray) -> list:
    """float.__repr__ of each entry of a float array, formatted once per
    distinct bit pattern: a grid column repeats its axis samples."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(k) for k in keys.view(float).tolist()], dtype=object)[inverse].tolist()


def _rows(template: str, sep: str, columns: list) -> str:
    """A row template filled from each row of equal-length columns of cells,
    the rows joined by sep."""
    return sep.join([template] * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _json_text(fields: dict, blocks: dict, depth: int = 0) -> str:
    """The bytes of ``json.dumps(sort_keys=True, indent=1)`` of a document
    of the small ``fields`` and of lists given as ``blocks``: each one's
    records already written at their depth and joined by ",\n", or a pair
    (fields, blocks) of an object within.  An object within, at depth > 0,
    has no final newline."""
    pad = " " * (depth + 1)
    items = {k: json.dumps(v, sort_keys=True, indent=1).replace("\n", "\n" + pad)
             for k, v in fields.items()}
    items.update({k: _json_text(*v, depth + 1) if isinstance(v, tuple)
                  else f"[\n{v}\n{pad}]" if v else "[]" for k, v in blocks.items()})
    close = "\n" + pad[1:] + ("}" if depth else "}\n")
    return "{\n" + ",\n".join(f'{pad}"{k}": {v}' for k, v in sorted(items.items())) + close


def _classify_text(report, fmt, header, fields) -> str:
    """Classify output written from the report's columns: the CSV table, or
    the JSON document of the small ``fields``, the points and the transitions.
    The bytes are those of the per-cell CSV rule and of ``json.dumps(sort_keys=True,
    indent=1)`` on per-record dicts; floats are in ``float.__repr__`` form."""
    u = [_reprs(column) for column in report.u.T]
    ratio = _reprs(report.min_eig_ratio)
    inertia = [report.plus.tolist(), report.minus.tolist(), report.zero.tolist()]
    if fmt == "csv":
        row = ",".join(["%s"] * (len(u) + 5)) + "\n"
        return ",".join(header) + "\n" + _rows(row, "", u + [report.kinds] + inertia + [ratio])
    listed = "[\n" + ",\n".join(["    %s"] * len(u)) + "\n   ]"
    point = ('  {\n   "inertia": [\n    %s,\n    %s,\n    %s\n   ],\n   "min_eig_ratio": %s,\n'
             '   "type": "%s",\n   "u": ' + listed + "\n  }")
    edge = ('  {\n   "axis": %s,\n   "index_low": ' + listed + ',\n   "kinds": [\n    "%s",\n    "%s"\n'
            '   ],\n   "u_high": ' + listed + ',\n   "u_low": ' + listed + "\n  }")
    ends = np.array([e.u_high + e.u_low for e in report.transitions]).reshape(-1, 2 * len(u))
    cells = list(zip(*[(e.axis, *e.index_low, *e.kinds) for e in report.transitions]))
    return _json_text(fields, {
        "points": _rows(point, ",\n", inertia + [ratio, report.kinds] + u),
        "transitions": _rows(edge, ",\n", cells + [_reprs(column) for column in ends.T])})


def _lightlike_text(focal, fmt, header, fields) -> str:
    """Lightlike output written from the focal set's columns, as
    ``_classify_text``: the CSV table of the samples, or the JSON document of
    the small ``fields``, the samples and the clusters."""
    u = [_reprs(column) for column in focal.u.T]
    x, index, mult = _reprs(focal.x), focal.root_index.tolist(), focal.multiplicity.tolist()
    ideal = focal.at_infinity.tolist()
    coords = [_reprs(column) for column in focal.point.T]
    if fmt == "csv":
        if any(ideal):
            coords = [[("" if inf else c) for c, inf in zip(column, ideal)] for column in coords]
        cells = u + [index, x, mult, ["INF" if inf else "point" for inf in ideal]] + coords
        return ",".join(header) + "\n" + _rows(",".join(["%s"] * len(cells)) + "\n", "", cells)
    flags = ["true" if inf else "false" for inf in ideal]
    point = ["null" if inf else "[\n    " + ",\n    ".join(c) + "\n   ]"
             for inf, c in zip(ideal, zip(*coords))]
    sample = ('  {\n   "at_infinity": %s,\n   "multiplicity": %s,\n   "point": %s,\n'
              '   "root_index": %s,\n   "u": [\n' + ",\n".join(["    %s"] * len(u))
              + '\n   ],\n   "x": %s\n  }')
    first = focal.first.tolist()
    cluster = '  {\n   "at_infinity": %s,\n   "count": %s,\n   "representative": %s\n  }'
    counts = np.bincount(focal.cluster, minlength=len(first)).tolist()
    return _json_text(fields, {
        "focal_samples": _rows(sample, ",\n", [flags, mult, point, index] + u + [x]),
        "focal_clusters": _rows(cluster, ",\n", [[flags[f] for f in first], counts,
                                                 [point[f] for f in first]])})


def _congruence_text(columns, count, points, ideal, leaf, fmt, header, fields) -> str:
    """Congruence output written from columns, as ``_classify_text``: the CSV
    table of the roots of the first ``count`` stack members of
    ``_congruence_affinors`` columns, the real ones' singular points
    ``points`` and ``ideal`` in order, or the JSON document of the small
    ``fields``, the samples and the leaf block of ``leaf`` (the JSON leaf
    fields and the parameter points), if any."""
    k = int(np.searchsorted(columns.members, count))
    u, counts = columns.us[columns.members[:k]], columns.counts[:k]
    owner, index = np.nonzero(np.arange(columns.roots.shape[1]) < counts[:, None])
    values = columns.roots[owner, index]
    re, im = _reprs(values.real), _reprs(values.imag)
    mult = columns.multiplicities[owner, index].tolist()
    real = columns.real[owner, index]
    defect = np.array(_reprs(columns.defects[:k]), dtype=object)
    index = index.tolist()
    if fmt == "csv":
        focal = np.full(len(values), "complex", dtype=object)
        focal[real] = np.where(ideal, "INF", "point")
        coords = np.full((points.shape[1], len(values)), "", dtype=object)
        coords[:, np.flatnonzero(real)[~ideal]] = [_reprs(column) for column in points[~ideal].T]
        cells = ([np.array(_reprs(column), dtype=object)[owner].tolist() for column in u.T]
                 + [defect[owner].tolist(), index, re, im, mult, real.astype(int).tolist(),
                    focal.tolist()] + coords.tolist())
        return ",".join(header) + "\n" + _rows(",".join(["%s"] * len(cells)) + "\n", "", cells)
    root = ('    {\n     "multiplicity": %s,\n     "real": %s,\n     "x": [\n      %s,\n'
            '      %s\n     ]\n    }')
    records = [root % cells for cells in zip(mult, np.where(real, "true", "false"), re, im)]
    ends = np.cumsum(counts).tolist()
    listed = ["[\n" + ",\n".join(records[a:b]) + "\n   ]" if b > a else "[]"
              for a, b in zip([0] + ends, ends)]
    sample = ('  {\n   "defect": %s,\n   "roots": %s,\n   "u": [\n'
              + ",\n".join(["    %s"] * u.shape[1]) + "\n   ]\n  }")
    blocks = {"samples": _rows(sample, ",\n", [defect.tolist(), listed]
                               + [_reprs(column) for column in u.T])}
    if leaf is not None:
        leaf_fields, parameters = leaf
        point = "   [\n" + ",\n".join(["    %s"] * parameters.shape[1]) + "\n   ]"
        blocks["leaf"] = (leaf_fields, {"parameters": _rows(
            point, ",\n", [_reprs(column) for column in parameters.T])})
    return _json_text(fields, blocks)


def run_embed(scene: Scene, out_path, fmt) -> int:
    n, model = scene.n, AmbientModel.standard(scene.n)
    points = np.array(scene.points, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # far points, refused below
        images = _normalized(lift_point(points, model))
        back, _, off = _unembed(images, model)
    # the first point off the quadric, or so far out that its image is ideal or overflows
    first = min([*off, *np.flatnonzero(~np.isfinite(back).all(axis=1)).tolist()], default=None)
    if first is not None:
        raise off.get(first) or SceneError(f"point {scene.points[first]!r} is too far out "
                                           "to map back from the quadric")
    coords = [_reprs(c) for c in images.T]
    p = [_reprs(c) for c in points.T]
    residual = _reprs(_dots(images @ model.form.gram, images))
    roundtrip = _reprs(np.abs(back - points).max(axis=1))
    if fmt == "csv":
        header = [f"p{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(n + 2)]
        cells = p + coords + [residual, roundtrip]
        text = (",".join(header + ["residual", "roundtrip"]) + "\n"
                + _rows(",".join(["%s"] * len(cells)) + "\n", "", cells))
    else:
        record = ('  {\n   "coords": [\n' + ",\n".join(["    %s"] * (n + 2)) + '\n   ],\n'
                  '   "point": [\n' + ",\n".join(["    %s"] * n) + '\n   ],\n'
                  '   "residual": %s,\n   "roundtrip": %s\n  }')
        text = _json_text({"n": n}, {"points": _rows(record, ",\n",
                                                     coords + p + [residual, roundtrip])})
    _write(out_path, text)
    print(f"embedded {len(points)} points (n={n})", file=sys.stderr)
    return 0


def run_classify(scene: Scene, out_path, fmt) -> int:
    imm, counts = _resolve_grid(scene, _build_object(scene))
    report = survey(imm, counts, tol=scene.tolerances.get("lightlike"))
    header = ([f"u{i}" for i in range(1, imm.params + 1)]
              + ["type", "plus", "minus", "zero", "min_eig_ratio"])
    fields = {"builtin": imm.name, "n": imm.n, "counts": report.counts, "pure": report.pure,
              "errors": [{"index": list(i), "message": m} for i, m in report.errors]}
    _write(out_path, _classify_text(report, fmt, header, fields))
    summary = report.pure if report.pure else "mixed"
    print(f"classified {sum(report.counts.values())} points: {summary} "
          f"({report.counts}, transitions={len(report.transitions)})", file=sys.stderr)
    return 0


def run_lightlike(scene: Scene, out_path, fmt) -> int:
    imm, counts = _resolve_grid(scene, _build_object(scene))
    model = AmbientModel.standard(imm.n)
    sym_tol = scene.tolerances.get("symmetry")

    # one engine pass: the grid, then the centre as its last member
    grid = parameter_grid(imm, counts)[1]
    center = np.array([0.5 * (lo + hi) for lo, hi in imm.domain])
    columns = _affinors(imm, np.vstack([grid, center]), model, 1.0, sym_tol)
    focal = _focal_set(columns, len(grid), model)
    an, degeneracy = _analysis(columns, len(grid)), _degeneracy_report(columns, len(grid))
    torses = torse_directions(an) if fmt == "json" else []  # only the JSON centre lists them

    header = ([f"u{i}" for i in range(1, imm.params + 1)]
              + ["root_index", "x", "multiplicity", "focal"]
              + [f"f{i}" for i in range(1, imm.n + 1)])
    fields = {"builtin": imm.name, "n": imm.n, "center": {
        "u": [float(v) for v in center], "shape_operator": an.shape_operator.tolist(),
        "symmetry_defect": an.symmetry_defect, "determinant": an.determinant,
        "roots": [{"x": [r.value.real, r.value.imag], "multiplicity": r.multiplicity,
                   "real": r.is_real} for r in an.roots],
        "torses": [{"root": t.root, "multiplicity": t.multiplicity,
                    "directions": t.directions.tolist()} for t in torses],
        "degeneracy": {"generator_rate": degeneracy.generator_rate,
                       "tangent_rank": degeneracy.tangent_rank},
    }, "errors": [{"u": list(u), "message": m} for u, m in focal.errors]}
    _write(out_path, _lightlike_text(focal, fmt, header, fields))
    print(f"lightlike pipeline on {imm.name}: {len(focal.x)} focal samples, "
          f"{len(focal.first)} clusters, defect={an.symmetry_defect:.2e}, "
          f"degeneracy={degeneracy.generator_rate:.2e}", file=sys.stderr)
    return 0


def run_congruence(scene: Scene, out_path, fmt) -> int:
    """One engine pass over the grid and a ``stratify`` seed, its last
    member, which the leaf starts from and nothing else reads; a grid failure
    wins over the seed's.  A seed outside the domain is a scene error."""
    cong, counts = _resolve_grid(scene, _build_object(scene))
    if cong.n - 2 > MAX_ROOT_ORDER:
        raise SceneError(f"congruence scenes are limited to n <= {MAX_ROOT_ORDER + 2}, "
                         f"got n={cong.n}")
    model = AmbientModel.standard(cong.n)
    seed = np.asarray(scene.stratify["seed"], dtype=float) if scene.stratify else None
    if seed is not None:
        if len(seed) != cong.params:
            raise SceneError(f"stratify seed needs {cong.params} entries")
        lo, hi = _domain_bounds(cong)
        if ((seed < lo) | (seed > hi)).any():
            raise SceneError(f"stratify seed {seed.tolist()} lies outside the domain "
                             f"{np.array(cong.domain, dtype=float).tolist()}")

    header = ([f"u{i}" for i in range(1, cong.params + 1)]
              + ["defect", "root_index", "root_re", "root_im", "multiplicity", "real", "focal"]
              + [f"f{i}" for i in range(1, cong.n + 1)])
    grid = parameter_grid(cong, counts)[1]
    columns = _congruence_affinors(cong, grid if seed is None else np.vstack([grid, seed]), model)
    # the grid's first failure is its first failed point or, before that,
    # its first root X = A_1 + x A_0 off the quadric; a failing seed comes after both
    stop = min(columns.failures, default=len(grid))
    rows, index = np.nonzero(columns.real[columns.members < stop])
    points, ideal, off = _unembed(_singular_coords(columns.a0[rows], columns.a1[rows],
                                                   columns.roots[rows, index].real), model)
    if off or columns.failures:
        raise off[min(off)] if off else columns.failures[stop]
    worst = max([0.0] + columns.defects[: len(grid)].tolist())

    fields = {"builtin": cong.name, "n": cong.n, "max_defect": worst}
    leaf, leaf_info = None, None
    if seed is not None:
        kwargs = {key: scene.stratify[key] for key in ("step", "count") if key in scene.stratify}
        if "integrability" in scene.tolerances:
            kwargs["tol"] = scene.tolerances["integrability"]
        leaf = stratify(cong, _member_analysis(columns, len(grid)), **kwargs)
        parameters = np.array(leaf.parameters).reshape(-1, cong.params)
        leaf_info = ({"seed": list(leaf.seed), "size": len(leaf.parameters),
                      "lightlike_fraction": leaf.lightlike_fraction,
                      "truncated": leaf.truncated}, parameters)
        if fmt == "csv" and out_path is None:
            print("congruence: the leaf table is written only beside an output file "
                  "(use --out or JSON)", file=sys.stderr)
        elif fmt == "csv":
            cells = [list(range(len(parameters)))] + [_reprs(c) for c in parameters.T]
            _write(f"{out_path}.leaf.csv", ",".join(["index"] + header[: cong.params]) + "\n"
                   + _rows(",".join(["%s"] * len(cells)) + "\n", "", cells))
    _write(out_path, _congruence_text(columns, len(grid), points, ideal, leaf_info, fmt, header,
                                      fields))
    msg = f"congruence pipeline on {cong.name}: max defect={worst:.2e}"
    if leaf:
        msg += (f", leaf size={len(leaf.parameters)}"
                f", lightlike fraction={leaf.lightlike_fraction:.3f}")
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of a
    process and kept: parsing leaves it as it was."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "examples":
        return run_examples()

    try:
        scene = load_scene(args.scene)
        fmt = args.format or scene.out_format
        out_path = args.out or scene.out_path
        expected, run = {"embed": ("points", run_embed), "classify": ("hypersurface", run_classify),
                         "lightlike": ("hypersurface", run_lightlike),
                         "congruence": ("congruence", run_congruence)}[args.command]
        if scene.kind != expected:
            raise SceneError(f"{args.command} needs a {expected} scene, got kind={scene.kind!r}")
        return run(scene, out_path, fmt)
    except SceneError as exc:
        print(f"scene error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"scene error ({args.command}): out of memory ({exc})", file=sys.stderr)
        return 2
    except (GeometryError, NonIntegrableError, ConvergenceError) as exc:
        print(f"numerical failure ({args.command}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
