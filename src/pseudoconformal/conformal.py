"""The quadric model of compactified Minkowski space.

An n-dimensional Lorentzian space with metric diag(1, ..., 1, -1) is mapped
one-to-one onto a quadric in projective (n+1)-space.  Homogeneous coordinates
are ordered (x^0, x^1, ..., x^n, x^{n+1}); the quadric is

    g_rs x^r x^s - 2 x^0 x^{n+1} = 0,      r, s = 1, ..., n,

with g_rs the Lorentzian block.  Finite points embed into the affine chart
x^0 = 1; vectors with x^0 = 0 on the quadric represent ideal elements.  The
polar pairing of this quadratic form is the scalar product of points and
hyperspheres: a point has zero scalar square, spacelike hyperspheres have
negative square and timelike ones positive square, and a point lies on a
hypersphere exactly when their product vanishes.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotOnQuadricError
from .linalg import BilinearForm, _dots, scalar_product

#: |scalar square| below this times the squared coordinate norm means "point"
POINT_TOL = 1e-10

#: residual threshold for quadric membership checks
QUADRIC_TOL = 1e-8

#: factors of the last coordinates of a lifted point and tangent
_HALF = np.array([0.5, 1.0])

POINT = "point"
SPACELIKE_SPHERE = "spacelike_hypersphere"
TIMELIKE_SPHERE = "timelike_hypersphere"


def minkowski_gram(n: int) -> np.ndarray:
    """Gram matrix diag(1, ..., 1, -1) of the flat Lorentzian metric."""
    g = np.eye(n)
    g[n - 1, n - 1] = -1.0
    return g


def minkowski_form(n: int) -> BilinearForm:
    return BilinearForm(minkowski_gram(n))


@dataclass(frozen=True)
class AmbientModel:
    """The ambient quadric model for an n-dimensional Lorentzian space.

    ``form`` is the polar bilinear form on the n+2 homogeneous coordinates:
    the Lorentzian block on coordinates 1..n plus the hyperbolic pairing
    -(x^0 y^{n+1} + x^{n+1} y^0).  Its signature is (n, 2).
    """

    n: int
    form: BilinearForm
    metric: BilinearForm

    @classmethod
    def standard(cls, n: int) -> "AmbientModel":
        """The model of n-dimensional Minkowski space, built once per n in a
        process: the model and its read-only grams are immutable."""
        n = operator.index(n)
        if n < 3:
            raise ValueError("ambient dimension must be at least 3")
        return _standard_model(cls, n)

    def product(self, u, v) -> float:
        return scalar_product(u, v, self.form)

    def quadratic(self, x) -> float:
        return scalar_product(x, x, self.form)


@lru_cache(maxsize=32)
def _standard_model(cls, n: int) -> AmbientModel:
    gram = np.zeros((n + 2, n + 2))
    gram[1 : n + 1, 1 : n + 1] = minkowski_gram(n)
    gram[0, n + 1] = gram[n + 1, 0] = -1.0
    return cls(n=n, form=BilinearForm(gram), metric=minkowski_form(n))


def normalize_coords(coords) -> np.ndarray:
    """Scale a homogeneous vector so its largest-magnitude coordinate is +1."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1:
        raise ValueError("homogeneous coordinates must be a 1-d vector")
    i = int(np.argmax(np.abs(x)))
    if x[i] == 0.0:
        raise ValueError("all homogeneous coordinates are zero")
    return x / x[i]


def _normalized(coords: np.ndarray) -> np.ndarray:
    """``normalize_coords`` of every row of a stack of nonzero vectors
    (N, m), with the same bits."""
    return coords / np.take_along_axis(coords, np.abs(coords).argmax(axis=1)[:, None], axis=1)


def _singular_coords(a0: np.ndarray, a1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Normalized coordinates of the points X = A_1 + x A_0 of lines, one
    row per root x: of one line (A_0, A_1) or of one line per root."""
    return _normalized(a1 + x[:, None] * a0)


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinate vector up to nonzero scale.

    Stored in normalized form: the largest-magnitude coordinate equals +1,
    which makes comparison and serialization deterministic.
    """

    coords: np.ndarray

    def __init__(self, coords):
        x = normalize_coords(coords)
        x.flags.writeable = False
        object.__setattr__(self, "coords", x)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def isclose(self, other: "ProjectivePoint", tol: float = 1e-12) -> bool:
        return bool(np.abs(self.coords - other.coords).max() <= tol)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.dim == other.dim and self.isclose(other)

    __hash__ = None

    def to_json(self) -> str:
        return json.dumps([float(c) for c in self.coords])

    @classmethod
    def from_json(cls, text: str) -> "ProjectivePoint":
        return cls(json.loads(text))


@dataclass(frozen=True)
class ElementKind:
    """Classification of a homogeneous element by its scalar square."""

    kind: str
    scalar_square: float


class AtInfinity:
    """Marker for ideal elements (x^0 = 0) that have no finite preimage."""

    def __init__(self, point: ProjectivePoint):
        self.point = point

    def __repr__(self):
        return f"AtInfinity({list(self.point.coords)})"

    def __eq__(self, other):
        return isinstance(other, AtInfinity) and self.point == other.point


def darboux_embed(p, model: AmbientModel) -> ProjectivePoint:
    """Image of a finite point: x^0 = 1, x^r = p^r, x^{n+1} = g(p, p)/2."""
    p = np.asarray(p, dtype=float)
    if p.shape != (model.n,):
        raise ValueError(f"point must have dimension {model.n}")
    return ProjectivePoint(lift_point(p, model))


def lift_point(p, model: AmbientModel) -> np.ndarray:
    """Raw (unnormalized) homogeneous image of a finite point in the
    x^0 = 1 chart; smooth in p, unlike the normalized representative.

    A stack of points (..., n) lifts to (..., n+2) in one pass; every member
    has the bits of its one-point lift (the square is a ``linalg._dots``)."""
    p = np.asarray(p, dtype=float)
    square = 0.5 * _dots(p @ model.metric.gram, p)[..., None]
    return np.concatenate([np.ones(square.shape), p, square], axis=-1)


def lift_tangent(p, v, model: AmbientModel) -> np.ndarray:
    """Differential of ``lift_point`` at p applied to the tangent vector v.

    Stacks broadcast: points (..., n) with vectors (..., n), one per point,
    or with rows (..., k, n) of vectors at each point.  The pairings with p
    are one stacked product, ``linalg._dots`` for one vector per point; the
    result keeps the memory layout of the rows, on which later products'
    bits depend."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    pg = (p @ model.metric.gram)[..., None, :]
    if v.ndim > p.ndim:
        pairs = np.swapaxes(pg @ np.swapaxes(v, -1, -2), -1, -2)
    else:
        pairs = (pg @ v[..., None])[..., 0]
    v = np.broadcast_to(v, pairs.shape[:-1] + v.shape[-1:])
    return np.concatenate([np.zeros(pairs.shape), v, pairs], axis=-1)


def _lift_lines(p, l, model: AmbientModel) -> np.ndarray:
    """The quadric lines (lift_point(p), lift_tangent(p, l)) of points p
    (..., n) and directions l of the same shape or (n,), as (..., 2, n+2)
    with their bits, in one pass over one product p g and one ``_dots`` call."""
    p, n = np.asarray(p, dtype=float), model.n
    lines = np.zeros(p.shape[:-1] + (2, n + 2))
    lines[..., 0, 0] = 1.0
    lines[..., 0, 1 : n + 1], lines[..., 1, 1 : n + 1] = p, l
    np.multiply(_dots((p @ model.metric.gram)[..., None, :], lines[..., 1 : n + 1]), _HALF,
                out=lines[..., n + 1])
    return lines


def quadric_residual(x, model: AmbientModel) -> float:
    """Value of the defining quadratic form on the normalized representative;
    zero exactly on the quadric."""
    if isinstance(x, ProjectivePoint):
        coords = x.coords
    else:
        coords = normalize_coords(x)
    return model.quadratic(coords)


def darboux_unembed(x, model: AmbientModel):
    """Finite point with x^r / x^0, or an AtInfinity marker when x^0 ~ 0.

    The input must lie on the quadric.  This is the one-point case of
    ``_unembed``.
    """
    point = x if isinstance(x, ProjectivePoint) else ProjectivePoint(x)
    points, ideal, failures = _unembed(point.coords[None], model)
    if failures:
        raise failures[0]
    return AtInfinity(point) if ideal[0] else points[0]


def _unembed(x: np.ndarray, model: AmbientModel) -> tuple:
    """``darboux_unembed`` of normalized vectors (N, n+2) in one pass: points
    x^r / x^0 (N, n), whether each is at infinity (point NaN) and the
    NotOnQuadricError of each whose ``quadric_residual`` exceeds QUADRIC_TOL."""
    residuals = _dots(x @ model.form.gram, x)
    ideal = np.abs(x[:, 0]) < 1e-12
    points = x[:, 1 : model.n + 1] / np.where(ideal, np.nan, x[:, 0])[:, None]
    failures = {i: NotOnQuadricError(f"vector is not on the quadric (residual {residuals[i]:.3e})")
                for i in np.flatnonzero(np.abs(residuals) > QUADRIC_TOL).tolist()}
    return points, ideal, failures


def classify_element(x, model: AmbientModel) -> ElementKind:
    """Point / spacelike hypersphere / timelike hypersphere, by the sign of
    the scalar square of the normalized representative."""
    coords = x.coords if isinstance(x, ProjectivePoint) else normalize_coords(x)
    square = model.quadratic(coords)
    norm2 = float(coords @ coords)
    if abs(square) < POINT_TOL * norm2:
        return ElementKind(kind=POINT, scalar_square=square)
    if square < 0.0:
        return ElementKind(kind=SPACELIKE_SPHERE, scalar_square=square)
    return ElementKind(kind=TIMELIKE_SPHERE, scalar_square=square)


def hypersphere_coords(center, radius2: float, model: AmbientModel) -> np.ndarray:
    """Chart-normalized (x^0 = 1) coordinates of the hypersphere
    g(p - c, p - c) = r^2.

    r^2 may be negative (then the hypersphere is spacelike) or zero (a cone).
    The scalar product with the raw lift of a point vanishes exactly when the
    point satisfies the hypersphere equation, and the scalar square of these
    coordinates equals r^2.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (model.n,):
        raise ValueError(f"center must have dimension {model.n}")
    x = np.empty(model.n + 2)
    x[0] = 1.0
    x[1 : model.n + 1] = c
    x[model.n + 1] = 0.5 * (scalar_product(c, c, model.metric) - radius2)
    return x


def hypersphere_element(center, radius2: float, model: AmbientModel) -> ProjectivePoint:
    """Projective element of the hypersphere g(p - c, p - c) = r^2; the sign
    of its scalar square (spacelike/timelike classification) is preserved by
    the normalization, the magnitude is not."""
    return ProjectivePoint(hypersphere_coords(center, radius2, model))
