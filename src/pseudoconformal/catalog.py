"""Built-in hypersurfaces and congruences with analytic jets.

Every entry is constructed from module-level functions and carries a
sensible default domain away from parametrization degeneracies.  Catalog
names are the stable identifiers used by scene files and the command line.

Each evaluator is written once and broadcasts over leading axes: it maps
parameter points u (..., d) to values (..., target), Jacobians
(..., target, d) and Hessians (..., target, d, d) of a hypersurface, or to
base points and directions (..., n) of a congruence.  Each entry is marked
``broadcasts``, so the engines evaluate a whole stack in one call and every
member has the bits of its point evaluated alone.  A negative square root
raises math.sqrt's ValueError for one point and gives NaN in a stack, whose
member ``hypersurface._evaluate_stack`` then evaluates again alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .conformal import AmbientModel, _lift_lines
from .congruence import IsotropicCongruence
from .hypersurface import Immersion
from .linalg import _dots

# ---------------------------------------------------------------------------
# broadcasting helpers.  Where a formula takes u @ u they take ``_dots``, which
# has its bits; np.sqrt, np.sin and np.cos round as math's do, and math.hypot,
# which np.hypot does not match, is applied member by member.

_HYPOT = np.frompyfunc(math.hypot, 2, 1)


def _sqrt(x):
    """Square roots of x: math.sqrt's ValueError for one negative number, NaN
    for the negative members of a stack."""
    return np.sqrt(x) if getattr(x, "ndim", 0) else np.float64(math.sqrt(x))


def _hypot(a, b):
    """math.hypot of one pair of numbers, or member by member of a stack."""
    return _HYPOT(a, b).astype(float) if np.ndim(a) else np.float64(math.hypot(a, b))


def _outer(a, b):
    """Outer products (..., k, m) of the vectors a (..., k) and b (..., m)."""
    return a[..., :, None] * b[..., None, :]


def _graph(u, f, first=False):
    """Points (..., d+1) of the graph of f over u (..., d): u with f
    appended, or put first."""
    at, rest = (0, slice(1, None)) if first else (-1, slice(None, -1))
    out = np.empty(u.shape[:-1] + (u.shape[-1] + 1,))
    out[..., rest] = u
    out[..., at] = f
    return out


def _graph_jac(u, grad=0.0, first=False):
    """Jacobians (..., d+1, d) of the graph over u (..., d) of a function
    with gradients grad (broadcast to u)."""
    d = u.shape[-1]
    at, rest = (0, slice(1, None)) if first else (d, slice(None, d))
    j = np.zeros(u.shape[:-1] + (d + 1, d))
    j[..., rest, :] = np.eye(d)
    j[..., at, :] = grad
    return j


def _matrix(rows, lead):
    """Matrices (*lead, r, c) whose entries, arrays of shape lead or
    constants, are given row by row."""
    out = np.empty(lead + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for k, entry in enumerate(row):
            out[..., i, k] = entry
    return out


# ---------------------------------------------------------------------------
# hypersurface evaluators


def _box(n, lo=-1.0, hi=1.0):
    return ((lo, hi),) * (n - 1)


def _slice_value(u, n):
    return _graph(u, 0.0)


def _slice_jac(u, n):
    return _graph_jac(u)


def _slice_hess(u, n):
    return np.zeros(u.shape[:-1] + (n, n - 1, n - 1))


def _timelike_plane_value(u, n):
    return _graph(u, 0.0, first=True)


def _timelike_plane_jac(u, n):
    return _graph_jac(u, first=True)


def _null_plane_value(u, n):
    # hyperplane x^1 = x^n, swept by the null direction e_1 + e_n
    return _graph(u, u[..., 0])


def _null_plane_jac(u, n):
    return _graph_jac(u, np.eye(n - 1)[0])


def _light_cone_value(u, n):
    return _graph(u, _sqrt(_dots(u, u)))


def _light_cone_jac(u, n):
    # the cone has no tangent plane at its vertex r = 0: 0/0 makes the last
    # row NaN there
    return _graph_jac(u, u / _sqrt(_dots(u, u))[..., None])


def _light_cone_hess(u, n):
    r = _sqrt(_dots(u, u))[..., None]
    w = u / r
    h = np.zeros(u.shape[:-1] + (n, n - 1, n - 1))
    h[..., n - 1, :, :] = (np.eye(n - 1) - _outer(w, w)) / r[..., None]
    return h


def _spacelike_sphere_domain(n, a):
    if a >= 0:
        raise ValueError("spacelike hyperspheres have negative squared radius")
    return _box(n)


def _spacelike_sphere_value(u, n, a):
    # two-sheeted hypersphere g(p, p) = a < 0, upper sheet as a time graph
    return _graph(u, _sqrt(-a + _dots(u, u)))


def _spacelike_sphere_jac(u, n, a):
    return _graph_jac(u, u / _sqrt(-a + _dots(u, u))[..., None])


def _timelike_sphere_domain(n, a):
    if a <= 0:
        raise ValueError("timelike hyperspheres have positive squared radius")
    lim = 0.4 * math.sqrt(a / (n - 2))
    return ((-lim, lim),) * (n - 2) + ((-1.0, 1.0),)


def _timelike_sphere_value(u, n, a):
    # one-sheeted hypersphere g(p, p) = a > 0 as a graph over (x^2..x^n)
    w, t = u[..., :-1], u[..., -1]
    return _graph(u, _sqrt(a + t * t - _dots(w, w)), first=True)


def _timelike_sphere_jac(u, n, a):
    w, t = u[..., :-1], u[..., -1]
    f = _sqrt(a + t * t - _dots(w, w))
    grad = np.empty(u.shape)
    grad[..., :-1] = -w / f[..., None]
    grad[..., -1] = t / f
    return _graph_jac(u, grad, first=True)


def _euclidean_sphere_value(u, n):
    phi, theta = u[..., 0], u[..., 1]
    return np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
                    axis=-1)


def _euclidean_sphere_jac(u, n):
    phi, theta = u[..., 0], u[..., 1]
    return _matrix([[np.cos(phi) * np.cos(theta), -np.sin(phi) * np.sin(theta)],
                    [np.cos(phi) * np.sin(theta), np.sin(phi) * np.cos(theta)],
                    [-np.sin(phi), 0.0]], u.shape[:-1])


def _tilted_family_domain(n, pitch):
    if not -1.0 < pitch < 1.0:
        raise ValueError("pitch must lie in (-1, 1) for a spacelike focal helix")
    return ((0.0, 2.0 * math.pi), (0.2, 2.0))


def _tilted_family_value(u, n, pitch):
    # ruled surface over the spacelike helix (cos t, sin t, pitch t) with
    # null rulings orthogonal to the helix tangent
    tau, s = u[..., 0], u[..., 1]
    psi = math.asin(pitch)
    return np.stack([np.cos(tau) + s * np.cos(tau + psi), np.sin(tau) + s * np.sin(tau + psi),
                     pitch * tau + s], axis=-1)


def _tilted_family_jac(u, n, pitch):
    tau, s = u[..., 0], u[..., 1]
    psi = math.asin(pitch)
    return _matrix([[-np.sin(tau) - s * np.sin(tau + psi), np.cos(tau + psi)],
                    [np.cos(tau) + s * np.cos(tau + psi), np.sin(tau + psi)],
                    [pitch, 1.0]], u.shape[:-1])


def _tilted_family_hess(u, n, pitch):
    tau, s = u[..., 0], u[..., 1]
    psi = math.asin(pitch)
    h = np.zeros(u.shape[:-1] + (3, 2, 2))
    h[..., 0, 0, 0] = -np.cos(tau) - s * np.cos(tau + psi)
    h[..., 0, 0, 1] = h[..., 0, 1, 0] = -np.sin(tau + psi)
    h[..., 1, 0, 0] = -np.sin(tau) - s * np.sin(tau + psi)
    h[..., 1, 0, 1] = h[..., 1, 1, 0] = np.cos(tau + psi)
    return h


def tilted_family_focal_curve(tau, pitch):
    """Closed-form focal curve of the tilted null family: the rulings focus
    at the constant offset -cos(psi) along the ruling direction."""
    psi = math.asin(pitch)
    off = -math.cos(psi)
    return np.array(
        [
            math.cos(tau) + off * math.cos(tau + psi),
            math.sin(tau) + off * math.sin(tau + psi),
            pitch * tau + off,
        ]
    )


def _circle_wavefront_value(u, n, rho):
    # null wavefront of the circle of radius rho in the (x^1, x^2) plane:
    # time graph of the distance-to-circle function in R^3
    q = _hypot(u[..., 0], u[..., 1])
    return _graph(u, _hypot(q - rho, u[..., 2]))


def _circle_wavefront_grad(u, rho):
    q = _hypot(u[..., 0], u[..., 1])
    s = q - rho
    f = _hypot(s, u[..., 2])
    grad = np.empty(u.shape)
    grad[..., 0] = s * u[..., 0] / (q * f)
    grad[..., 1] = s * u[..., 1] / (q * f)
    grad[..., 2] = u[..., 2] / f
    return grad, q, s, f


def _circle_wavefront_jac(u, n, rho):
    return _graph_jac(u, _circle_wavefront_grad(u, rho)[0])


def _circle_wavefront_hess(u, n, rho):
    grad, q, s, f = _circle_wavefront_grad(u, rho)
    # second derivatives of s(u) = |(u1, u2)| - rho
    ds = np.zeros(u.shape)
    ds[..., :2] = u[..., :2] / q[..., None]
    q, s, f = q[..., None, None], s[..., None, None], f[..., None, None]
    hess_s = np.zeros(u.shape + (3,))
    hess_s[..., :2, :2] = (np.eye(2) - _outer(u[..., :2], u[..., :2]) / q**2) / q
    hess_f = (_outer(ds, ds) + s * hess_s + np.diag([0.0, 0.0, 1.0]) - _outer(grad, grad)) / f
    h = np.zeros(u.shape[:-1] + (4, 3, 3))
    h[..., 3, :, :] = hess_f
    return h


# ---------------------------------------------------------------------------
# congruence evaluators


def _parallel_line(u, n):
    l = np.zeros(u.shape[:-1] + (n,))
    l[..., 0] = l[..., n - 1] = 1.0
    return _graph(u, 0.0), l


def _cone_line(u, n):
    # one light cone per value of the last parameter; base point one unit out
    # along the ray, (0, .., 0, u_last) + l (0.0 + l: a -0.0 of l sums to 0.0)
    l = _cone_direction(u, n)
    p = l + 0.0
    p[..., n - 1] = u[..., n - 2] + 1.0
    return p, l


def _cone_direction(u, n):
    v = u[..., : n - 2]
    l = np.empty(u.shape[:-1] + (n,))
    l[..., : n - 2] = v
    l[..., n - 2] = _sqrt(1.0 - _dots(v, v))
    l[..., n - 1] = 1.0
    return l


def _twisted_line(u, n, rate):
    # direction of the parallel congruence rotated, to first order, by
    # rate * u3 in the (x1, x2) plane and by -rate * u2 in the (x1, x3) plane
    l = np.ones(u.shape[:-1] + (4,))
    l[..., 1] = rate * u[..., 2]
    l[..., 2] = -rate * u[..., 1]
    v = l[..., :3]
    l[..., :3] = v / _sqrt(_dots(v, v))[..., None]
    return _graph(u, 0.0), l


# ---------------------------------------------------------------------------
# catalog registry


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "hypersurface" | "congruence"
    description: str
    dims: tuple  # supported ambient dimensions; () means any n >= 3
    default_n: int
    params: dict  # parameter name -> default value
    factory: Callable

    def build(self, n: Optional[int] = None, **params):
        n = self.default_n if n is None else int(n)
        if self.dims and n not in self.dims:
            raise ValueError(f"{self.name} supports n in {self.dims}, got {n}")
        if n < 3:
            raise ValueError("ambient dimension must be at least 3")
        unknown = set(params) - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        filled = {**self.params, **params}
        return self.factory(n, **filled)


def _entry(kind, name, description, domain, evaluators, dims=(), params=None):
    """Catalog entry of a hypersurface with broadcasting evaluators (value,
    Jacobian[, Hessian]) or of a congruence with one of (base, direction).
    The evaluators, bound to n and the parameters, are marked ``broadcasts``;
    ``domain`` maps n and the parameters to the default domain and rejects
    parameters out of range."""

    def factory(n, **params):
        dom = domain(n, **params)
        bound = [partial(e, n=n, **params) for e in evaluators]
        if kind == "congruence":
            (pair,), model = bound, AmbientModel.standard(n)

            def lines(u):
                return _lift_lines(*pair(u), model)

            return IsotropicCongruence(n=n, domain=dom, line=lines, broadcasts=True, name=name)
        value, jacobian, hessian = bound + [None] * (3 - len(bound))
        return Immersion(n=n, domain=dom, value=value, jacobian=jacobian, hessian=hessian,
                         broadcasts=True, name=name)

    return CatalogEntry(name=name, kind=kind, description=description, dims=dims,
                        default_n=dims[0] if dims else 3, params=params or {}, factory=factory)


CATALOG = {
    e.name: e
    for e in [
        _entry("hypersurface", "spacelike_slice", "hyperplane x^n = 0; spacelike everywhere",
               _box, (_slice_value, _slice_jac, _slice_hess)),
        _entry("hypersurface", "timelike_hyperplane", "hyperplane x^1 = 0; timelike everywhere",
               _box, (_timelike_plane_value, _timelike_plane_jac)),
        _entry("hypersurface", "spacelike_hypersphere",
               "hypersphere g(p,p) = a with a < 0 (imaginary radius)",
               _spacelike_sphere_domain, (_spacelike_sphere_value, _spacelike_sphere_jac),
               params={"a": -1.0}),
        _entry("hypersurface", "timelike_hypersphere",
               "hypersphere g(p,p) = a with a > 0 (real radius)",
               _timelike_sphere_domain, (_timelike_sphere_value, _timelike_sphere_jac),
               params={"a": 1.0}),
        _entry("hypersurface", "euclidean_sphere",
               "round unit sphere in R^3_1; mixed causal type",
               lambda n: ((0.05, math.pi - 0.05), (0.0, 2.0 * math.pi)),
               (_euclidean_sphere_value, _euclidean_sphere_jac), dims=(3,)),
        _entry("hypersurface", "light_cone",
               "null cone of the origin; lightlike away from the vertex",
               partial(_box, lo=0.4, hi=1.6), (_light_cone_value, _light_cone_jac, _light_cone_hess)),
        _entry("hypersurface", "null_hyperplane",
               "hyperplane x^1 = x^n; totally geodesic lightlike",
               _box, (_null_plane_value, _null_plane_jac, _slice_hess)),
        _entry("hypersurface", "tilted_null_family",
               "null ruled surface over a spacelike helix (envelope "
               "of tilted null planes); focal set is a helix offset",
               _tilted_family_domain,
               (_tilted_family_value, _tilted_family_jac, _tilted_family_hess),
               dims=(3,), params={"pitch": 0.5}),
        _entry("hypersurface", "circle_wavefront",
               "null wavefront of a circle in R^4_1; generic point "
               "has two distinct focal distances",
               lambda n, rho: ((0.4, 0.9), (0.4, 0.9), (0.3, 0.8)),
               (_circle_wavefront_value, _circle_wavefront_jac, _circle_wavefront_hess),
               dims=(4,), params={"rho": 2.0}),
        _entry("congruence", "parallel_null_congruence",
               "parallel null lines through a spacelike slice",
               _box, (_parallel_line,)),
        _entry("congruence", "cone_normal_congruence",
               "rays of the light cones of a timelike line of "
               "vertices; normal, stratifies into the cones",
               lambda n: ((-0.55, 0.55),) * (n - 2) + ((-1.0, 1.0),),
               (_cone_line,)),
        _entry("congruence", "twisted_congruence",
               "parallel congruence with direction twisted along a "
               "transversal coordinate; not integrable, complex focal pair",
               lambda n, rate: _box(n), (_twisted_line,),
               dims=(4,), params={"rate": 1.0}),
    ]
}


def build(name: str, n: Optional[int] = None, **params):
    """Instantiate a catalog entry by name."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; see catalog.CATALOG")
    return CATALOG[name].build(n=n, **params)


def lightlike_entries():
    return [
        "light_cone",
        "null_hyperplane",
        "tilted_null_family",
        "circle_wavefront",
    ]
