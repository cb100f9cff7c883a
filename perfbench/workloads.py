"""Benchmark workloads: seeded scene generation and per-scene correctness checks.

A workload is a fixed cycle of scene slots.  Each slot names a catalog
builtin, its grid counts, an optional stratify request and an output format.
The seed moves only *where* the work is (a sub-box of the builtin's domain and
the stratify seed point), never how much: grid counts and stratify counts are
constants of the slot, and stratify seeds keep a margin from the domain edge
so the integrated leaf is never truncated.

Every check reads only the scene's exit code and output file, and returns the
number of grid or leaf points that failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

#: share of each domain axis covered by a jittered sub-box
BOX_FRACTION = 0.6
#: jittered copies of a workload cycle generated per run
VARIANTS = 8

#: distance of a light-cone focal point from the vertex
VERTEX_TOL = 1e-6
#: distance of a tilted-family focal point from the analytic focal curve
HELIX_TOL = 1e-6
#: distance of a circle-wavefront focal point from the circle or its axis
CAUSTIC_TOL = 1e-6
#: |cos 2 phi| below which a euclidean-sphere grid point may read lightlike
SPHERE_EDGE_TOL = 1e-6


@dataclass(frozen=True)
class Slot:
    """One scene of a workload cycle."""

    command: str
    builtin: str
    n: int
    counts: tuple
    domain: tuple
    check: Callable
    fmt: str = "csv"
    params: dict = field(default_factory=dict)
    stratify_count: Optional[int] = None
    stratify_step: float = 1e-2
    box: float = BOX_FRACTION

    @property
    def label(self) -> str:
        return f"{self.builtin}{self.n}.{self.fmt}"

    @property
    def grid_points(self) -> int:
        return math.prod(self.counts)

    @property
    def leaf_points(self) -> int:
        """Lattice size of an untruncated leaf: one spine of 2c+1 points,
        crossed by a run of 2c+1 points per further screen direction."""
        if self.stratify_count is None:
            return 0
        return (2 * self.stratify_count + 1) ** (self.n - 2)

    @property
    def points(self) -> int:
        return self.grid_points + self.leaf_points

    def scene(self, rng: random.Random, out_path: str) -> dict:
        axes = []
        for (lo, hi), c in zip(self.domain, self.counts):
            width = self.box * (hi - lo)
            start = lo + rng.random() * (hi - lo - width)
            axes.append({"start": start, "stop": start + width, "count": c})
        doc = {
            "kind": "congruence" if self.command == "congruence" else "hypersurface",
            "builtin": self.builtin,
            "n": self.n,
            "params": dict(self.params),
            "grid": {"axes": axes},
            "output": {"format": self.fmt, "path": out_path},
        }
        if self.stratify_count is not None:
            # the leaf is integrated inside the scene's sub-box and reaches at
            # most (screen directions) * count * step from its seed; keep the
            # seed that far from the sub-box edge
            reach = (self.n - 2) * self.stratify_count * self.stratify_step + 0.05
            seed = []
            for ax in axes:
                room = ax["stop"] - ax["start"] - 2 * reach
                if room <= 0:
                    raise ValueError(f"{self.label}: sub-box too small for the leaf")
                seed.append(ax["start"] + reach + rng.random() * room)
            doc["stratify"] = {"seed": seed, "step": self.stratify_step,
                               "count": self.stratify_count}
        return doc


# ---------------------------------------------------------------------------
# output readers


def _rows(text: str, fmt: str, json_key: str):
    """Output records as dicts: CSV rows, or the JSON list under json_key."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)[json_key]


def _u_key(rec: dict, params: int) -> tuple:
    if "u" in rec:
        return tuple(float(v) for v in rec["u"])
    return tuple(float(rec[f"u{i}"]) for i in range(1, params + 1))


def _focal_point(rec: dict, n: int):
    """Finite focal point of a lightlike sample, or None at infinity."""
    if "focal" in rec:
        if rec["focal"] != "point":
            return None
        return [float(rec[f"f{i}"]) for i in range(1, n + 1)]
    return None if rec["at_infinity"] else [float(v) for v in rec["point"]]


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# checks: each returns the number of points that failed on their own


def _lightlike_check(point_test: Callable, per_point: Optional[int]):
    def check(slot: Slot, text: str) -> int:
        samples = _rows(text, slot.fmt, "focal_samples")
        seen: dict = {}
        for rec in samples:
            u = _u_key(rec, slot.n - 1)
            seen[u] = seen.get(u, 0) + 1
            p = _focal_point(rec, slot.n)
            _require(p is not None, f"focal point at infinity at u={u}")
            point_test(slot, u, p)
        if per_point is not None:
            bad = {u: k for u, k in seen.items() if k != per_point}
            _require(not bad, f"expected {per_point} focal samples per point, got {bad}")
        return slot.grid_points - len(seen)

    return check


def _at_vertex(slot, u, p):
    _require(max(abs(v) for v in p) < VERTEX_TOL, f"focal point {p} is not the vertex")


def _on_focal_helix(slot, u, p):
    from pseudoconformal.catalog import tilted_family_focal_curve

    expect = tilted_family_focal_curve(u[0], slot.params["pitch"])
    err = max(abs(a - b) for a, b in zip(p, expect))
    _require(err < HELIX_TOL, f"focal point off the helix by {err:.2e} at u={u}")


def _on_caustic(slot, u, p):
    # caustic of the circle wavefront: the circle itself, or its axis
    q = math.hypot(p[0], p[1])
    err = min(max(abs(q - slot.params["rho"]), abs(p[2])), q)
    _require(err < CAUSTIC_TOL, f"focal point {p} is off the caustic at u={u}")


def _classify_check(expected: Callable):
    def check(slot: Slot, text: str) -> int:
        points = _rows(text, slot.fmt, "points")
        for rec in points:
            u = _u_key(rec, slot.n - 1)
            allowed = expected(u)
            _require(rec["type"] in allowed, f"{rec['type']} at u={u}, expected {allowed}")
        return slot.grid_points - len(points)

    return check


def _sphere_type(u):
    # unit sphere in R^3_1: the normal p is timelike, so the surface is
    # spacelike, where g(p, p) = sin^2 phi - cos^2 phi < 0
    c = math.cos(2.0 * u[0])
    if abs(c) < SPHERE_EDGE_TOL:
        return ("spacelike", "timelike", "lightlike")
    return ("spacelike",) if c > 0 else ("timelike",)


def _congruence_samples(slot: Slot, text: str):
    """Per-point (defect, [root is real]) from congruence output."""
    out: dict = {}
    if slot.fmt == "csv":
        for rec in _rows(text, "csv", None):
            u = _u_key(rec, slot.n - 1)
            defect, reals = out.setdefault(u, (float(rec["defect"]), []))
            reals.append(rec["real"] == "1")
        return out, None
    payload = json.loads(text)
    for s in payload["samples"]:
        out[_u_key(s, slot.n - 1)] = (s["defect"], [r["real"] for r in s["roots"]])
    return out, payload


def _twisted_check(slot: Slot, text: str) -> int:
    samples, _ = _congruence_samples(slot, text)
    worst = max((d for d, _ in samples.values()), default=0.0)
    _require(worst > 0.1, f"max defect {worst:.3e} is not above 0.1")
    for u, (_, reals) in samples.items():
        _require(reals and not any(reals), f"a real root at u={u}")
    return slot.grid_points - len(samples)


def _cone_check(slot: Slot, text: str) -> int:
    samples, payload = _congruence_samples(slot, text)
    worst = max((d for d, _ in samples.values()), default=0.0)
    _require(worst < 1e-6, f"max defect {worst:.3e} is not below 1e-6")
    leaf = payload["leaf"]
    _require(not leaf["truncated"], "leaf truncated at the domain edge")
    _require(leaf["lightlike_fraction"] >= 0.99,
             f"leaf lightlike fraction {leaf['lightlike_fraction']}")
    _require(leaf["size"] == slot.leaf_points,
             f"leaf has {leaf['size']} points, expected {slot.leaf_points}")
    return slot.grid_points - len(samples)


# ---------------------------------------------------------------------------
# workloads

_LIGHT_CONE5 = tuple((0.4, 1.6) for _ in range(4))
_WAVEFRONT = ((0.4, 0.9), (0.4, 0.9), (0.3, 0.8))
_TILTED = ((0.0, 2.0 * math.pi), (0.2, 2.0))
_SPHERE = ((0.05, math.pi - 0.05), (0.0, 2.0 * math.pi))
_TIMELIKE5 = tuple((-0.4 / math.sqrt(3), 0.4 / math.sqrt(3)) for _ in range(3)) + ((-1.0, 1.0),)
_CUBE3 = tuple((-1.0, 1.0) for _ in range(3))
_CONE3 = ((-0.55, 0.55), (-1.0, 1.0))
_CONE4 = ((-0.55, 0.55), (-0.55, 0.55), (-1.0, 1.0))


_CONE3_LEAF = Slot("congruence", "cone_normal_congruence", 3, (6, 6), _CONE3,
                  _cone_check, fmt="json", stratify_count=24, box=0.8)


def _both_formats(*slots):
    return tuple(replace(s, fmt=fmt) for s in slots for fmt in ("csv", "json"))


WORKLOADS = {
    "lightlike": _both_formats(
        Slot("lightlike", "circle_wavefront", 4, (5, 5, 5), _WAVEFRONT,
             _lightlike_check(_on_caustic, 2), params={"rho": 2.0}),
        Slot("lightlike", "light_cone", 5, (3, 3, 3, 3), _LIGHT_CONE5,
             _lightlike_check(_at_vertex, None)),
        Slot("lightlike", "tilted_null_family", 3, (12, 12), _TILTED,
             _lightlike_check(_on_focal_helix, None), params={"pitch": 0.5}),
    ),
    "classify": _both_formats(
        Slot("classify", "euclidean_sphere", 3, (64, 64), _SPHERE,
             _classify_check(_sphere_type)),
        Slot("classify", "timelike_hypersphere", 5, (6, 6, 6, 6), _TIMELIKE5,
             _classify_check(lambda u: ("timelike",)), params={"a": 1.0}),
        Slot("classify", "spacelike_hypersphere", 4, (12, 12, 12), _CUBE3,
             _classify_check(lambda u: ("spacelike",)), params={"a": -1.0}),
    ),
    # the median scene is a cone n=3 run: that slot fills half the cycle, so
    # the median sits in the middle of its four jittered variants rather than
    # at the boundary between two scene types
    "congruence": tuple(
        slot
        for fmt in ("csv", "json")
        for slot in (
            Slot("congruence", "twisted_congruence", 4, (5, 5, 5), _CUBE3,
                 _twisted_check, fmt=fmt, params={"rate": 1.0}),
            _CONE3_LEAF,
            Slot("congruence", "cone_normal_congruence", 4, (3, 3, 3), _CONE4,
                 _cone_check, fmt="json", stratify_count=4),
            _CONE3_LEAF,
        )
    ),
}


@dataclass
class Scene:
    """A generated scene file and the slot it fills."""

    slot: Slot
    path: str
    out_path: str
    doc: dict

    def check(self, code: int):
        """(failed points, problem) for one run of this scene, judged from its
        exit code and output file: a failed run or check fails every point."""
        if code != 0 or not os.path.exists(self.out_path):
            return self.slot.points, f"exit code {code}"
        with open(self.out_path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            return self.slot.check(self.slot, text), ""
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            return self.slot.points, f"{type(exc).__name__}: {exc}"


def generate(workload: str, seed: int, directory: str) -> list:
    """Write VARIANTS jittered copies of the workload cycle into directory.

    Returns one list of scenes per copy; cycle k of a run uses copy k mod
    VARIANTS, so a run averages over many sub-boxes and its figures depend
    little on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    copies = []
    for v in range(VARIANTS):
        scenes = []
        for i, slot in enumerate(WORKLOADS[workload]):
            stem = os.path.join(directory, f"{v}-{i:02d}-{slot.builtin}{slot.n}")
            out_path = f"{stem}.out.{slot.fmt}"
            doc = slot.scene(rng, out_path)
            with open(f"{stem}.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            scenes.append(Scene(slot=slot, path=f"{stem}.json", out_path=out_path, doc=doc))
        copies.append(scenes)
    return copies
