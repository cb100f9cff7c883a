"""Built-in hypersurfaces and congruences with analytic jets.

Every entry is constructed from module-level functions and carries a
sensible default domain away from parametrization degeneracies.  Catalog
names are the stable identifiers used by scene files and the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .congruence import IsotropicCongruence
from .hypersurface import Immersion

# ---------------------------------------------------------------------------
# hypersurface evaluators


def _slice_value(u, n):
    return np.concatenate([u, [0.0]])


def _slice_jac(u, n):
    j = np.zeros((n, n - 1))
    j[: n - 1] = np.eye(n - 1)
    return j


def _slice_hess(u, n):
    return np.zeros((n, n - 1, n - 1))


def _timelike_plane_value(u, n):
    return np.concatenate([[0.0], u])


def _timelike_plane_jac(u, n):
    j = np.zeros((n, n - 1))
    j[1:] = np.eye(n - 1)
    return j


def _null_plane_value(u, n):
    # hyperplane x^1 = x^n, swept by the null direction e_1 + e_n
    return np.concatenate([u, [u[0]]])


def _null_plane_jac(u, n):
    j = np.zeros((n, n - 1))
    j[: n - 1] = np.eye(n - 1)
    j[n - 1, 0] = 1.0
    return j


def _light_cone_value(u, n):
    r = math.sqrt(float(u @ u))
    return np.concatenate([u, [r]])


def _light_cone_jac(u, n):
    # the cone has no tangent plane at its vertex r = 0: the last row is
    # non-finite there, set directly rather than by dividing 0 by 0
    r = math.sqrt(float(u @ u))
    j = np.zeros((n, n - 1))
    j[: n - 1] = np.eye(n - 1)
    j[n - 1] = u / r if r > 0.0 else math.nan
    return j


def _light_cone_hess(u, n):
    r = math.sqrt(float(u @ u))
    h = np.zeros((n, n - 1, n - 1))
    if r > 0.0:
        w = u / r
        h[n - 1] = (np.eye(n - 1) - np.outer(w, w)) / r
    else:
        h[n - 1] = math.nan
    return h


def _spacelike_sphere_value(u, n, a):
    # two-sheeted hypersphere g(p, p) = a < 0, upper sheet as a time graph
    return np.concatenate([u, [math.sqrt(-a + float(u @ u))]])


def _spacelike_sphere_jac(u, n, a):
    f = math.sqrt(-a + float(u @ u))
    j = np.zeros((n, n - 1))
    j[: n - 1] = np.eye(n - 1)
    j[n - 1] = u / f
    return j


def _timelike_sphere_value(u, n, a):
    # one-sheeted hypersphere g(p, p) = a > 0 as a graph over (x^2..x^n)
    w = u[: n - 2]
    t = u[n - 2]
    return np.concatenate([[math.sqrt(a + t * t - float(w @ w))], w, [t]])


def _timelike_sphere_jac(u, n, a):
    w = u[: n - 2]
    t = u[n - 2]
    f = math.sqrt(a + t * t - float(w @ w))
    j = np.zeros((n, n - 1))
    j[0, : n - 2] = -w / f
    j[0, n - 2] = t / f
    j[1 : n - 1, : n - 2] = np.eye(n - 2)
    j[n - 1, n - 2] = 1.0
    return j


def _euclidean_sphere_value(u, n):
    phi, theta = u
    return np.array(
        [math.sin(phi) * math.cos(theta), math.sin(phi) * math.sin(theta), math.cos(phi)]
    )


def _euclidean_sphere_jac(u, n):
    phi, theta = u
    return np.array(
        [
            [math.cos(phi) * math.cos(theta), -math.sin(phi) * math.sin(theta)],
            [math.cos(phi) * math.sin(theta), math.sin(phi) * math.cos(theta)],
            [-math.sin(phi), 0.0],
        ]
    )


def _tilted_family_value(u, n, pitch):
    # ruled surface over the spacelike helix (cos t, sin t, pitch t) with
    # null rulings orthogonal to the helix tangent
    tau, s = u
    psi = math.asin(pitch)
    return np.array(
        [
            math.cos(tau) + s * math.cos(tau + psi),
            math.sin(tau) + s * math.sin(tau + psi),
            pitch * tau + s,
        ]
    )


def _tilted_family_jac(u, n, pitch):
    tau, s = u
    psi = math.asin(pitch)
    return np.array(
        [
            [-math.sin(tau) - s * math.sin(tau + psi), math.cos(tau + psi)],
            [math.cos(tau) + s * math.cos(tau + psi), math.sin(tau + psi)],
            [pitch, 1.0],
        ]
    )


def _tilted_family_hess(u, n, pitch):
    tau, s = u
    psi = math.asin(pitch)
    h = np.zeros((3, 2, 2))
    h[0, 0, 0] = -math.cos(tau) - s * math.cos(tau + psi)
    h[0, 0, 1] = h[0, 1, 0] = -math.sin(tau + psi)
    h[1, 0, 0] = -math.sin(tau) - s * math.sin(tau + psi)
    h[1, 0, 1] = h[1, 1, 0] = math.cos(tau + psi)
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
    q = math.hypot(u[0], u[1])
    f = math.hypot(q - rho, u[2])
    return np.concatenate([u, [f]])


def _circle_wavefront_grad(u, rho):
    q = math.hypot(u[0], u[1])
    s = q - rho
    f = math.hypot(s, u[2])
    return np.array([s * u[0] / (q * f), s * u[1] / (q * f), u[2] / f]), q, s, f


def _circle_wavefront_jac(u, n, rho):
    grad, _, _, _ = _circle_wavefront_grad(u, rho)
    j = np.zeros((4, 3))
    j[:3] = np.eye(3)
    j[3] = grad
    return j


def _circle_wavefront_hess(u, n, rho):
    grad, q, s, f = _circle_wavefront_grad(u, rho)
    # second derivatives of s(u) = |(u1, u2)| - rho
    ds = np.array([u[0] / q, u[1] / q, 0.0])
    hess_s = np.zeros((3, 3))
    hess_s[:2, :2] = (np.eye(2) - np.outer(u[:2], u[:2]) / q**2) / q
    e3 = np.array([0.0, 0.0, 1.0])
    hess_f = (np.outer(ds, ds) + s * hess_s + np.outer(e3, e3) - np.outer(grad, grad)) / f
    h = np.zeros((4, 3, 3))
    h[3] = hess_f
    return h


# ---------------------------------------------------------------------------
# congruence evaluators


def _parallel_base(u, n):
    return np.concatenate([u, [0.0]])


def _parallel_direction(u, n):
    l = np.zeros(n)
    l[0] = 1.0
    l[n - 1] = 1.0
    return l


def _cone_vertex_base(u, n):
    # one light cone per value of the last parameter; base point one unit
    # out along the ray so the base field stays an immersion
    direction = _cone_direction(u, n)
    p = np.zeros(n)
    p[n - 1] = u[n - 2]
    return p + direction


def _cone_direction(u, n):
    v = u[: n - 2]
    l = np.empty(n)
    l[: n - 2] = v
    l[n - 2] = math.sqrt(1.0 - float(v @ v))
    l[n - 1] = 1.0
    return l


def _twisted_base(u, n):
    return np.concatenate([u, [0.0]])


def _twisted_direction(u, n, rate):
    # direction of the parallel congruence rotated, to first order, by
    # rate * u3 in the (x1, x2) plane and by -rate * u2 in the (x1, x3) plane
    v = np.array([1.0, rate * u[2], -rate * u[1]])
    v = v / math.sqrt(float(v @ v))
    return np.array([v[0], v[1], v[2], 1.0])


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


def _make_spacelike_slice(n):
    return Immersion(
        n=n,
        domain=tuple((-1.0, 1.0) for _ in range(n - 1)),
        value=partial(_slice_value, n=n),
        jacobian=partial(_slice_jac, n=n),
        hessian=partial(_slice_hess, n=n),
        name="spacelike_slice",
    )


def _make_timelike_hyperplane(n):
    return Immersion(
        n=n,
        domain=tuple((-1.0, 1.0) for _ in range(n - 1)),
        value=partial(_timelike_plane_value, n=n),
        jacobian=partial(_timelike_plane_jac, n=n),
        name="timelike_hyperplane",
    )


def _make_null_hyperplane(n):
    return Immersion(
        n=n,
        domain=tuple((-1.0, 1.0) for _ in range(n - 1)),
        value=partial(_null_plane_value, n=n),
        jacobian=partial(_null_plane_jac, n=n),
        name="null_hyperplane",
    )


def _make_light_cone(n):
    return Immersion(
        n=n,
        domain=tuple((0.4, 1.6) for _ in range(n - 1)),
        value=partial(_light_cone_value, n=n),
        jacobian=partial(_light_cone_jac, n=n),
        hessian=partial(_light_cone_hess, n=n),
        name="light_cone",
    )


def _make_spacelike_hypersphere(n, a):
    if a >= 0:
        raise ValueError("spacelike hyperspheres have negative squared radius")
    return Immersion(
        n=n,
        domain=tuple((-1.0, 1.0) for _ in range(n - 1)),
        value=partial(_spacelike_sphere_value, n=n, a=a),
        jacobian=partial(_spacelike_sphere_jac, n=n, a=a),
        name="spacelike_hypersphere",
    )


def _make_timelike_hypersphere(n, a):
    if a <= 0:
        raise ValueError("timelike hyperspheres have positive squared radius")
    lim = 0.4 * math.sqrt(a / (n - 2))
    domain = tuple((-lim, lim) for _ in range(n - 2)) + ((-1.0, 1.0),)
    return Immersion(
        n=n,
        domain=domain,
        value=partial(_timelike_sphere_value, n=n, a=a),
        jacobian=partial(_timelike_sphere_jac, n=n, a=a),
        name="timelike_hypersphere",
    )


def _make_euclidean_sphere(n):
    return Immersion(
        n=3,
        domain=((0.05, math.pi - 0.05), (0.0, 2.0 * math.pi)),
        value=partial(_euclidean_sphere_value, n=3),
        jacobian=partial(_euclidean_sphere_jac, n=3),
        name="euclidean_sphere",
    )


def _make_tilted_null_family(n, pitch):
    if not -1.0 < pitch < 1.0:
        raise ValueError("pitch must lie in (-1, 1) for a spacelike focal helix")
    return Immersion(
        n=3,
        domain=((0.0, 2.0 * math.pi), (0.2, 2.0)),
        value=partial(_tilted_family_value, n=3, pitch=pitch),
        jacobian=partial(_tilted_family_jac, n=3, pitch=pitch),
        hessian=partial(_tilted_family_hess, n=3, pitch=pitch),
        name="tilted_null_family",
    )


def _make_circle_wavefront(n, rho):
    return Immersion(
        n=4,
        domain=((0.4, 0.9), (0.4, 0.9), (0.3, 0.8)),
        value=partial(_circle_wavefront_value, n=4, rho=rho),
        jacobian=partial(_circle_wavefront_jac, n=4, rho=rho),
        hessian=partial(_circle_wavefront_hess, n=4, rho=rho),
        name="circle_wavefront",
    )


def _make_parallel_congruence(n):
    return IsotropicCongruence.from_null_lines(
        n=n,
        domain=tuple((-1.0, 1.0) for _ in range(n - 1)),
        base_point=partial(_parallel_base, n=n),
        direction=partial(_parallel_direction, n=n),
        name="parallel_null_congruence",
    )


def _make_cone_normal_congruence(n):
    domain = tuple((-0.55, 0.55) for _ in range(n - 2)) + ((-1.0, 1.0),)
    return IsotropicCongruence.from_null_lines(
        n=n,
        domain=domain,
        base_point=partial(_cone_vertex_base, n=n),
        direction=partial(_cone_direction, n=n),
        name="cone_normal_congruence",
    )


def _make_twisted_congruence(n, rate):
    return IsotropicCongruence.from_null_lines(
        n=4,
        domain=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        base_point=partial(_twisted_base, n=4),
        direction=partial(_twisted_direction, n=4, rate=rate),
        name="twisted_congruence",
    )


CATALOG = {
    e.name: e
    for e in [
        CatalogEntry(
            name="spacelike_slice",
            kind="hypersurface",
            description="hyperplane x^n = 0; spacelike everywhere",
            dims=(),
            default_n=3,
            params={},
            factory=lambda n: _make_spacelike_slice(n),
        ),
        CatalogEntry(
            name="timelike_hyperplane",
            kind="hypersurface",
            description="hyperplane x^1 = 0; timelike everywhere",
            dims=(),
            default_n=3,
            params={},
            factory=lambda n: _make_timelike_hyperplane(n),
        ),
        CatalogEntry(
            name="spacelike_hypersphere",
            kind="hypersurface",
            description="hypersphere g(p,p) = a with a < 0 (imaginary radius)",
            dims=(),
            default_n=3,
            params={"a": -1.0},
            factory=lambda n, a: _make_spacelike_hypersphere(n, a),
        ),
        CatalogEntry(
            name="timelike_hypersphere",
            kind="hypersurface",
            description="hypersphere g(p,p) = a with a > 0 (real radius)",
            dims=(),
            default_n=3,
            params={"a": 1.0},
            factory=lambda n, a: _make_timelike_hypersphere(n, a),
        ),
        CatalogEntry(
            name="euclidean_sphere",
            kind="hypersurface",
            description="round unit sphere in R^3_1; mixed causal type",
            dims=(3,),
            default_n=3,
            params={},
            factory=lambda n: _make_euclidean_sphere(n),
        ),
        CatalogEntry(
            name="light_cone",
            kind="hypersurface",
            description="null cone of the origin; lightlike away from the vertex",
            dims=(),
            default_n=3,
            params={},
            factory=lambda n: _make_light_cone(n),
        ),
        CatalogEntry(
            name="null_hyperplane",
            kind="hypersurface",
            description="hyperplane x^1 = x^n; totally geodesic lightlike",
            dims=(),
            default_n=3,
            params={},
            factory=lambda n: _make_null_hyperplane(n),
        ),
        CatalogEntry(
            name="tilted_null_family",
            kind="hypersurface",
            description="null ruled surface over a spacelike helix (envelope "
            "of tilted null planes); focal set is a helix offset",
            dims=(3,),
            default_n=3,
            params={"pitch": 0.5},
            factory=lambda n, pitch: _make_tilted_null_family(n, pitch),
        ),
        CatalogEntry(
            name="circle_wavefront",
            kind="hypersurface",
            description="null wavefront of a circle in R^4_1; generic point "
            "has two distinct focal distances",
            dims=(4,),
            default_n=4,
            params={"rho": 2.0},
            factory=lambda n, rho: _make_circle_wavefront(n, rho),
        ),
        CatalogEntry(
            name="parallel_null_congruence",
            kind="congruence",
            description="parallel null lines through a spacelike slice",
            dims=(),
            default_n=3,
            params={},
            factory=lambda n: _make_parallel_congruence(n),
        ),
        CatalogEntry(
            name="cone_normal_congruence",
            kind="congruence",
            description="rays of the light cones of a timelike line of "
            "vertices; normal, stratifies into the cones",
            dims=(),
            default_n=3,
            params={},
            factory=lambda n: _make_cone_normal_congruence(n),
        ),
        CatalogEntry(
            name="twisted_congruence",
            kind="congruence",
            description="parallel congruence with direction twisted along a "
            "transversal coordinate; not integrable, complex focal pair",
            dims=(4,),
            default_n=4,
            params={"rate": 1.0},
            factory=lambda n, rate: _make_twisted_congruence(n, rate),
        ),
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
