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
from .hypersurface import (LIGHTLIKE, Immersion, _ambient_gram, _pullback, _stacked_spectra,
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

#: Jacobi stopping tolerance for the induced metrics whose kernel columns give
#: the generators: dA_1 divides generator differences by 2*step, so the
#: default 1e-12 would leave eigenvector errors of up to ~5e-9 in it
GENERATOR_JACOBI_TOL = 1e-14


def _generator(rows, w, v, n: int, scale: float) -> np.ndarray:
    """Unit null generator of a jet, or of each jet of a stack: the image
    under the tangent rows of the induced metric's kernel column (eigenvalue
    of least magnitude), in homogeneous coordinates and oriented by its
    time-slot sign.  Smooth wherever the kernel eigenvalue stays simple."""
    kernel = np.take_along_axis(v, np.abs(w).argmin(axis=-1)[..., None, None], axis=-1)
    a1 = (np.swapaxes(rows, -1, -2) @ kernel)[..., 0]
    a1 = a1 / np.sqrt((a1 * a1).sum(axis=-1, keepdims=True))
    return _generator_sign_fix(a1, n) * scale


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
        """Unit null generator in homogeneous coordinates (``_generator``)."""
        w, v = self.spectrum
        return _generator(self.rows, w, v, self.model.n, scale)


class _JetStack:
    """Jets of an immersion at a stack of parameter points us (N, params),
    each point and Jacobian evaluated once, lifted to the quadric, with every
    induced metric and J^T J eigendecomposed in one stacked Jacobi pass.

    ``failures`` maps the index of each member that is not a regular point to
    the exception it raises: the one its jet evaluation raised (a
    GeometryError, ValueError or ArithmeticError, as in ``survey``), else a
    DegenerateBasisError for a non-finite or rank-deficient Jacobian.
    """

    def __init__(self, imm: Immersion, us: np.ndarray, model: AmbientModel,
                 generator_scale: float):
        self.imm, self.us, self.model = imm, us, model
        self.generator_scale = generator_scale
        n, d = imm.n, imm.params
        points = np.zeros((len(us), imm.target_dim))
        jets = np.zeros((len(us), imm.target_dim, d))
        self.failures = {}
        for i, u in enumerate(us):
            try:
                points[i], jets[i] = imm.point(u), imm.jet1(u)
            except (GeometryError, ValueError, ArithmeticError) as exc:
                self.failures[i] = exc
        self.w, v = _stacked_spectra(jets, _ambient_gram(imm, model), us, self.failures,
                                      tol=GENERATOR_JACOBI_TOL)
        if imm.homogeneous:
            self.a0, self.rows = points, np.swapaxes(jets, 1, 2)
        else:
            # the chart lift x -> (1, x, g(x, x)/2) and its differential
            pg = points @ model.metric.gram
            self.a0 = np.hstack([np.ones((len(us), 1)), points,
                                 0.5 * (pg * points).sum(axis=1, keepdims=True)])
            self.rows = np.concatenate([np.zeros((len(us), d, 1)), np.swapaxes(jets, 1, 2),
                                        (pg[:, None, :] @ jets).transpose(0, 2, 1)], axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):  # failed members only
            self.generators = _generator(self.rows, self.w, v, n, generator_scale)

    def failure(self, lo: int, hi: int):
        """The exception of the first failed member in lo..hi-1, or None."""
        return next((self.failures[k] for k in range(lo, hi) if k in self.failures), None)

    def frame(self, i: int) -> ConformalFrame:
        """Null-adapted frame at the regular member i, after checking that its
        induced metric is lightlike."""
        kind = causal_type_of_spectrum(self.w[i], self.imm.lightlike_tol()).kind
        if kind != LIGHTLIKE:
            raise NotLightlikeError(
                f"hypersurface is {kind} at u={self.us[i].tolist()}, not lightlike")
        return adapt_lightlike_frame(self.a0[i], self.rows[i], self.model,
                                     generator=self.generators[i],
                                     generator_scale=self.generator_scale)


def lightlike_frame_field(imm: Immersion, model: Optional[AmbientModel] = None,
                          generator_scale: float = 1.0):
    """Smooth field of null-adapted frames over the immersion's parameters.

    The gauge is the deterministic one used throughout: raw chart lift for
    A_0, unit sign-fixed kernel direction for A_1, pivoted screen.  Away from
    pivot or sign-rule switches the field is differentiable, which is what
    the connection-form extraction needs.  Each frame is the one
    ``lightlike_affinor`` builds at that point.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)

    def field(u):
        jets = _JetStack(imm, np.asarray(u, dtype=float)[None], model, generator_scale)
        exc = jets.failure(0, 1)
        if exc is not None:
            raise exc
        return jets.frame(0)

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
    """Indices of the k rows of c forming the best-conditioned square block:
    the first k-subset whose |det| is within a relative 1e-12 of the largest
    (row counts here are tiny).  Subsets tied by a symmetry of the point then
    give the same choice whatever the last bits of the frame."""
    subsets = list(combinations(range(c.shape[0]), k))
    dets = [abs(det(c[list(idx)])) if k else 1.0 for idx in subsets]
    best = max((d for d in dets if not math.isnan(d)), default=-1.0)
    if best <= 1e-14 * max(1.0, float(np.abs(c).max())) ** k:
        raise DegenerateBasisError(
            "screen components of the base differentials are linearly dependent"
        )
    return list(next(idx for idx, d in zip(subsets, dets) if d >= (1.0 - 1e-12) * best))


def _shape_operator(frame: ConformalFrame, da0, da1, n: int, sym_tol: float):
    """Symmetrized shape operator relating the screen components of dA_1 to
    those of dA_0, from one elimination for both, with its asymmetry and the
    transversal components of both differentials."""
    d = len(da0)
    comp = frame.components(np.vstack([da0, da1]))
    comp0, comp1 = comp[:d], comp[d:]
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
    if not (defect <= tol and math.isfinite(tol)):
        raise GeometryError(
            f"shape operator asymmetry {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (lam + lam.T), defect, diagnostics


def _affinors(imm: Immersion, us: np.ndarray, model: AmbientModel, step: float,
              generator_scale: float, sym_tol: Optional[float]) -> list:
    """Lightlike analysis at every parameter point of us (N, params): the
    LightlikeAnalysis of each point, or the exception it raises.

    The jets of all points and of their 2d central-difference neighbours are
    evaluated once and eigendecomposed in one stacked Jacobi pass (the
    generators of the neighbours give dA_1), and the symmetrized shape
    operators in a second one.  A stacked member does not depend on the rest
    of its stack, so a point gets the same bits in any grid.  A point fails
    with its own jet's failure, then with its lightlike and frame checks,
    then with the first failure among its neighbours (in the order +e_0,
    -e_0, +e_1, ...), then with its operator checks.
    """
    if sym_tol is None:
        sym_tol = SYMMETRY_TOL_ANALYTIC if imm.analytic else SYMMETRY_TOL_FD
    n, d = imm.n, imm.params
    width = 2 * d + 1
    offsets = np.zeros((width, d))
    for a in range(d):
        offsets[2 * a + 1, a] = step
        offsets[2 * a + 2, a] = -step
    stencil = us[:, None, :] + offsets
    stencil[:, 0] = us  # as given: u + 0.0 would turn -0.0 into 0.0
    jets = _JetStack(imm, stencil.reshape(-1, d), model, generator_scale)

    results, pending = [], []
    for i in range(len(us)):
        c = i * width
        exc = jets.failure(c, c + 1)
        if exc is None:
            try:
                frame = jets.frame(c)
                exc = jets.failure(c + 1, c + width)
                if exc is None:
                    g = jets.generators[c + 1 : c + width]
                    da1 = (g[0::2] - g[1::2]) / (2.0 * step)
                    operator = _shape_operator(frame, jets.rows[c], da1, n, sym_tol)
                    pending.append((i, frame, *operator))
            except GeometryError as err:
                exc = err
        results.append(exc)

    if pending:
        # a symmetric operator gets its roots from the Jacobi spectrum, which
        # keeps exact multiplicities real (the general root iteration
        # splinters multiple roots at the cube root of machine precision)
        eigenvalues, _ = jacobi_eigh(np.array([p[2] for p in pending]))
        for (i, frame, lam_sym, defect, diagnostics), w in zip(pending, eigenvalues):
            results[i] = LightlikeAnalysis(
                u=us[i].copy(),
                shape_operator=lam_sym,
                symmetry_defect=defect,
                determinant=float(det(lam_sym)) if lam_sym.size else 1.0,
                roots=tuple(cluster_roots([complex(-x) for x in w])),
                frame=frame,
                diagnostics=diagnostics,
            )
    return results


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
    beyond tolerance an error is raised.  This is the one-point case of the
    grid engine behind ``focal_map``, with the same bits.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)
    result = _affinors(imm, np.asarray(u, dtype=float)[None], model, step,
                       generator_scale, sym_tol)[0]
    if isinstance(result, Exception):
        raise result
    return result


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
    for u, an in zip(grid, _affinors(imm, grid, model, DEFAULT_STEP, 1.0, sym_tol)):
        key = tuple(float(x) for x in u)
        if not isinstance(an, LightlikeAnalysis):
            errors.append((key, str(an)))
            continue
        try:
            for k, sp in enumerate(singular_points(an)):
                target = darboux_unembed(sp.point, model)
                inf = isinstance(target, AtInfinity)
                samples.append(
                    FocalSample(
                        u=key,
                        root_index=k,
                        x=sp.x,
                        multiplicity=sp.multiplicity,
                        at_infinity=inf,
                        point=None if inf else target,
                        projective=sp.point,
                    )
                )
        except GeometryError as exc:
            errors.append((key, str(exc)))

    merged = tuple(
        FocalCluster(
            at_infinity=c[0].at_infinity,
            representative=None if c[0].at_infinity else c[0].point.copy(),
            projective=c[0].projective,
            count=len(c),
            multiplicities=tuple(s.multiplicity for s in c),
        )
        for c in _merge(samples, merge_tol)
    )
    return FocalSet(samples=tuple(samples), clusters=merged, errors=tuple(errors))


def _merge(samples, tol: float) -> list:
    """Focal clusters as lists of samples, the first one representing each.

    A sample joins the first earlier cluster of its kind (finite or ideal)
    whose representative lies within tol in the max norm (of the point, or of
    the normalized projective coordinates at infinity), else it starts a new
    cluster.  Each sample is compared with all representatives of its kind
    in one array operation.
    """
    clusters = []
    kinds = {}  # at_infinity -> (representative coordinates, cluster indices)
    for s in samples:
        x = s.projective.coords if s.at_infinity else s.point
        if s.at_infinity not in kinds:
            kinds[s.at_infinity] = (np.empty((len(samples), len(x))), [])
        reps, ids = kinds[s.at_infinity]
        hits = np.flatnonzero(np.abs(reps[: len(ids)] - x).max(axis=1) <= tol)
        if hits.size:
            clusters[ids[hits[0]]].append(s)
        else:
            reps[len(ids)] = x
            ids.append(len(clusters))
            clusters.append([s])
    return clusters
