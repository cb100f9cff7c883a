"""Analysis of lightlike hypersurfaces through their quadric images.

A lightlike hypersurface maps onto a ruled, tangentially degenerate
submanifold of the quadric.  Along each null generator the screen components
of the differentials of the base point A_0 and the generator point A_1 are
related by a symmetric shape operator; its characteristic roots locate the
singular (focal) points X = A_1 + x A_0 of the generator, and the kernel
directions of simple roots cut out families of developable surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .conformal import (
    AmbientModel,
    AtInfinity,
    ProjectivePoint,
    darboux_unembed,
    lift_point,
    lift_tangent,
)
from .errors import DegenerateBasisError, GeometryError, NotLightlikeError
from .frames import ConformalFrame, adapt_lightlike_frame, _generator_sign_fix
from .hypersurface import (LIGHTLIKE, Immersion, _ambient_gram, _check_immersion, _pullback,
                           causal_type_of_spectrum, lightlike_kernel, parameter_grid)
from .linalg import (
    cluster_roots,
    det,
    jacobi_eigh,
    max_principal_angle,
    orthonormal_rows,
    solve,
)

#: defect threshold (relative) above which the extracted operator is rejected
SYMMETRY_TOL_ANALYTIC = 1e-6
SYMMETRY_TOL_FD = 1e-3

#: matching radius when merging focal points
FOCAL_MERGE_TOL = 1e-6

DEFAULT_STEP = 1e-4


class PointJet:
    """First-order jet of an immersion at one parameter point, lifted to the
    quadric: the Jacobian and its induced metric, the homogeneous base point
    A_0 and its exact differential rows, from one evaluation each of the point
    and the jet.  The metric's spectrum is computed once, when first read."""

    def __init__(self, imm: Immersion, u, model: AmbientModel):
        self.u = np.asarray(u, dtype=float)
        self.model = model
        self.point = imm.point(self.u)
        self.jacobian = j = imm.jet1(self.u)
        self.metric = _pullback(j, _ambient_gram(imm, model))
        if imm.homogeneous:
            self.a0, self.rows = self.point, j.T
        else:
            self.a0 = lift_point(self.point, model)
            self.rows = np.array([lift_tangent(self.point, j[:, a], model)
                                  for a in range(imm.params)])

    @property
    def span(self) -> np.ndarray:
        """Homogeneous tangent span: the base point and its differentials."""
        return np.vstack([self.a0, self.rows])

    @cached_property
    def spectrum(self):
        """Eigenvalues and eigenvectors of the induced metric."""
        return jacobi_eigh(self.metric)

    def generator(self, scale: float = 1.0) -> np.ndarray:
        """Unit null generator, the image of the induced metric's kernel
        column, in homogeneous coordinates and oriented by its time-slot sign.
        Smooth wherever the kernel eigenvalue stays simple."""
        w, v = self.spectrum
        a1 = self.rows.T @ v[:, int(np.argmin(np.abs(w)))]
        return _generator_sign_fix(a1 / math.sqrt(float(a1 @ a1)), self.model.n) * scale


def _lightlike_frame(imm: Immersion, u, model: AmbientModel, generator_scale: float):
    """Jet and null-adapted frame at u, after checking that the Jacobian is
    finite and of full rank and that the induced metric is lightlike."""
    jet = PointJet(imm, u, model)
    _check_immersion(jet.jacobian, jet.metric, jet.u)
    kind = causal_type_of_spectrum(jet.spectrum[0], imm.lightlike_tol()).kind
    if kind != LIGHTLIKE:
        raise NotLightlikeError(f"hypersurface is {kind} at u={jet.u.tolist()}, not lightlike")
    return jet, adapt_lightlike_frame(jet.a0, jet.rows, model,
                                      generator=jet.generator(generator_scale),
                                      generator_scale=generator_scale)


def lightlike_frame_field(imm: Immersion, model: Optional[AmbientModel] = None,
                          generator_scale: float = 1.0):
    """Smooth field of null-adapted frames over the immersion's parameters.

    The gauge is the deterministic one used throughout: raw chart lift for
    A_0, unit sign-fixed kernel direction for A_1, pivoted screen.  Away from
    pivot or sign-rule switches the field is differentiable, which is what
    the connection-form extraction needs.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)

    def field(u):
        return _lightlike_frame(imm, u, model, generator_scale)[1]

    return field


@dataclass(frozen=True)
class LightlikeAnalysis:
    """Shape operator of a lightlike hypersurface point and derived data."""

    u: np.ndarray
    shape_operator: np.ndarray
    symmetry_defect: float
    determinant: float
    roots: tuple
    frame: ConformalFrame
    diagnostics: dict = field(default_factory=dict)

    @property
    def base_point(self) -> np.ndarray:
        return self.frame.vector(0)

    @property
    def generator_point(self) -> np.ndarray:
        return self.frame.vector(1)

    @property
    def screen_dim(self) -> int:
        return self.shape_operator.shape[0]


def _select_rows(c: np.ndarray, k: int):
    """Indices of the k rows of c forming the best-conditioned square block
    (largest |det| over all k-subsets; row counts here are tiny)."""
    best, best_idx = -1.0, None
    for idx in combinations(range(c.shape[0]), k):
        d = abs(det(c[list(idx)])) if k else 1.0
        if d > best:
            best, best_idx = d, idx
    if best_idx is None or best <= 1e-14 * max(1.0, float(np.abs(c).max())) ** k:
        raise DegenerateBasisError(
            "screen components of the base differentials are linearly dependent"
        )
    return list(best_idx)


def lightlike_affinor(
    imm: Immersion,
    u,
    model: Optional[AmbientModel] = None,
    step: float = DEFAULT_STEP,
    generator_scale: float = 1.0,
    sym_tol: Optional[float] = None,
) -> LightlikeAnalysis:
    """Extract the generator shape operator at a lightlike point.

    The operator solves the linear relation between the screen components of
    the differentials of the generator point and of the base point across the
    screen parameter directions.  It is symmetric up to jet noise; within
    tolerance it is replaced by its symmetric part before root finding,
    beyond tolerance an error is raised.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)
    u = np.asarray(u, dtype=float)
    jet, frame = _lightlike_frame(imm, u, model, generator_scale)
    if sym_tol is None:
        sym_tol = SYMMETRY_TOL_ANALYTIC if imm.analytic else SYMMETRY_TOL_FD

    n = imm.n
    d = imm.params
    # differentials of the two distinguished frame points across parameters
    da0 = jet.rows
    da1 = np.empty_like(da0)
    for a in range(d):
        e = np.zeros(d)
        e[a] = step
        gp = PointJet(imm, u + e, model).generator(generator_scale)
        gm = PointJet(imm, u - e, model).generator(generator_scale)
        da1[a] = (gp - gm) / (2.0 * step)

    comp0 = frame.components(da0)
    comp1 = frame.components(da1)
    c = comp0[:, 2:n]
    dd = comp1[:, 2:n]
    diagnostics = {
        "w0n": float(np.abs(comp0[:, n]).max()),
        "w0np1": float(np.abs(comp0[:, n + 1]).max()),
        "w1n": float(np.abs(comp1[:, n]).max()),
        "w1np1": float(np.abs(comp1[:, n + 1]).max()),
    }

    idx = _select_rows(c, n - 2)
    lam = solve(c[idx], dd[idx]).T
    defect = float(np.abs(lam - lam.T).max()) if lam.size else 0.0
    tol = sym_tol * (1.0 + float(np.abs(lam).max(initial=0.0)))
    if defect > tol:
        raise GeometryError(
            f"shape operator asymmetry {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    lam_sym = 0.5 * (lam + lam.T)
    # a symmetric operator gets its roots from the Jacobi spectrum, which
    # keeps exact multiplicities real (the general root iteration splinters
    # multiple roots at the cube root of machine precision)
    eigenvalues, _ = jacobi_eigh(lam_sym)
    roots = tuple(cluster_roots([complex(-w) for w in eigenvalues]))
    return LightlikeAnalysis(
        u=u.copy(),
        shape_operator=lam_sym,
        symmetry_defect=defect,
        determinant=float(det(lam_sym)) if lam_sym.size else 1.0,
        roots=roots,
        frame=frame,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class SingularPoint:
    """A singular point X = A_1 + x A_0 on the generator."""

    x: float
    multiplicity: int
    point: ProjectivePoint


def singular_points(an: LightlikeAnalysis) -> list:
    """Singular points of the generator, one per clustered real root."""
    out = []
    for root in an.roots:
        if not root.is_real:
            raise GeometryError(
                f"complex characteristic root {root.value} on a lightlike "
                "hypersurface signals an inconsistent shape operator"
            )
        x = root.real_value
        coords = an.generator_point + x * an.base_point
        out.append(SingularPoint(x=x, multiplicity=root.multiplicity,
                                 point=ProjectivePoint(coords)))
    return out


@dataclass(frozen=True)
class TorseFamily:
    """Screen eigendirections attached to one characteristic root."""

    root: float
    multiplicity: int
    directions: np.ndarray  # (multiplicity, n-2), unit rows


def torse_directions(an: LightlikeAnalysis) -> list:
    """Per root, the unit screen directions annihilated by (lambda + x I).

    Simple roots get a single direction; multiple roots return their whole
    eigenspace basis with the multiplicity recorded.
    """
    if an.screen_dim == 0:
        return []
    w, v = jacobi_eigh(an.shape_operator)
    out = []
    for root in an.roots:
        x = root.real_value
        cols = [j for j in range(len(w)) if abs(-w[j] - x) <= 1e-6 * (1.0 + abs(x))]
        if len(cols) != root.multiplicity:
            # fall back to the nearest eigenvalues when clustering disagrees
            order = np.argsort(np.abs(-w - x))
            cols = sorted(int(j) for j in order[: root.multiplicity])
        dirs = v[:, cols].T
        out.append(TorseFamily(root=x, multiplicity=root.multiplicity,
                               directions=dirs))
    return out


@dataclass(frozen=True)
class DegeneracyReport:
    max_angle: float
    angles: tuple
    samples: tuple
    skipped: tuple
    variation_rates: tuple
    tangent_rank: int


def _kernel_flow(imm: Immersion, u0, k0, model: AmbientModel, arc: float, steps: int):
    """Sample parameter points along the generator curve through u0, whose
    kernel direction is k0, by integrating the unit kernel field of the
    induced metric (RK4, carrying the direction sign along for continuity)."""
    h = arc / steps

    def aligned_kernel(u, ref):
        k = lightlike_kernel(imm, u, model=model)
        return k if float(k @ ref) >= 0.0 else -k

    samples = []
    for direction in (+1.0, -1.0):
        u = np.asarray(u0, dtype=float).copy()
        ref = direction * k0
        for _ in range(steps):
            k1 = aligned_kernel(u, ref)
            k2 = aligned_kernel(u + 0.5 * h * k1, k1)
            k3 = aligned_kernel(u + 0.5 * h * k2, k2)
            k4 = aligned_kernel(u + h * k3, k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            ref = k1
            samples.append(u.copy())
    return samples


def degeneracy_check(
    imm: Immersion,
    an: LightlikeAnalysis,
    model: Optional[AmbientModel] = None,
    samples: int = 5,
    arc: float = 0.25,
    singular_tol: float = 0.05,
) -> DegeneracyReport:
    """Verify tangential degeneracy along the generator through ``an.u``,
    given ``an``, the ``lightlike_affinor`` analysis of ``imm`` there.

    The homogeneous tangent span is compared, by largest principal angle,
    between the base point and samples along the generator curve; it also
    measures how many parameter directions actually move the tangent span
    (the rank of the tangential degeneracy).
    Samples falling near a singular point of the generator are skipped.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)
    u = an.u
    focal = []
    for sp in singular_points(an):
        target = darboux_unembed(sp.point, model)
        if not isinstance(target, AtInfinity):
            focal.append(target)

    span0 = PointJet(imm, u, model).span
    k = lightlike_kernel(imm, u, model=model)

    sampled = _kernel_flow(imm, u, k, model, arc=arc, steps=samples)
    angles, used, skipped = [], [], []
    for us in sampled:
        try:
            jet = PointJet(imm, us, model)
            if not imm.homogeneous:
                p = jet.point
                if any(math.sqrt(float((p - f) @ (p - f))) < singular_tol for f in focal):
                    skipped.append(tuple(float(x) for x in us))
                    continue
            angles.append(max_principal_angle(span0, jet.span))
            used.append(tuple(float(x) for x in us))
        except GeometryError:
            skipped.append(tuple(float(x) for x in us))

    # variation of the tangent span across an orthonormal parameter basis
    comp = orthonormal_rows(np.eye(imm.params) - np.outer(k, k))
    basis = np.vstack([k, comp])
    eps = 1e-4
    rates = []
    for drc in basis:
        rates.append(max_principal_angle(span0, PointJet(imm, u + eps * drc, model).span) / eps)
    max_rate = max(rates) if rates else 0.0
    rank = sum(1 for r in rates if r > max(1e-6, 1e-3 * max_rate))

    return DegeneracyReport(
        max_angle=float(max(angles)) if angles else 0.0,
        angles=tuple(angles),
        samples=tuple(used),
        skipped=tuple(skipped),
        variation_rates=tuple(float(r) for r in rates),
        tangent_rank=int(rank),
    )


@dataclass(frozen=True)
class FocalSample:
    u: tuple
    root_index: int
    x: float
    multiplicity: int
    at_infinity: bool
    point: Optional[np.ndarray]
    projective: ProjectivePoint


@dataclass(frozen=True)
class FocalCluster:
    at_infinity: bool
    representative: Optional[np.ndarray]
    projective: ProjectivePoint
    count: int
    multiplicities: tuple


@dataclass(frozen=True)
class FocalSet:
    samples: tuple
    clusters: tuple
    errors: tuple


def focal_map(
    imm: Immersion,
    grid_counts: Sequence[int],
    model: Optional[AmbientModel] = None,
    merge_tol: float = FOCAL_MERGE_TOL,
    sym_tol: Optional[float] = None,
) -> FocalSet:
    """Singular points of every generator over a parameter grid, merged into
    focal clusters; ideal points keep an at-infinity marker.  ``sym_tol`` is
    passed to ``lightlike_affinor`` at every grid point."""
    if model is None:
        model = AmbientModel.standard(imm.n)
    _, grid = parameter_grid(imm, grid_counts)
    samples = []
    errors = []
    for u in grid:
        try:
            an = lightlike_affinor(imm, u, model=model, sym_tol=sym_tol)
            for k, sp in enumerate(singular_points(an)):
                target = darboux_unembed(sp.point, model)
                inf = isinstance(target, AtInfinity)
                samples.append(
                    FocalSample(
                        u=tuple(float(x) for x in u),
                        root_index=k,
                        x=sp.x,
                        multiplicity=sp.multiplicity,
                        at_infinity=inf,
                        point=None if inf else target,
                        projective=sp.point,
                    )
                )
        except GeometryError as exc:
            errors.append((tuple(float(x) for x in u), str(exc)))

    # each cluster is the list of its samples; the first one represents it
    clusters = []
    for s in samples:
        for c in clusters:
            if c[0].at_infinity != s.at_infinity:
                continue
            if s.at_infinity:
                close = s.projective.isclose(c[0].projective, tol=merge_tol)
            else:
                close = float(np.abs(s.point - c[0].point).max()) <= merge_tol
            if close:
                c.append(s)
                break
        else:
            clusters.append([s])
    merged = tuple(
        FocalCluster(
            at_infinity=c[0].at_infinity,
            representative=None if c[0].at_infinity else c[0].point.copy(),
            projective=c[0].projective,
            count=len(c),
            multiplicities=tuple(s.multiplicity for s in c),
        )
        for c in clusters
    )
    return FocalSet(samples=tuple(samples), clusters=merged, errors=tuple(errors))
