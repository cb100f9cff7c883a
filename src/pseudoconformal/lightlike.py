"""Analysis of lightlike hypersurfaces through their quadric images.

A lightlike hypersurface maps onto a ruled, tangentially degenerate
submanifold of the quadric.  Along each null generator the screen components
of the differentials of the base point A_0 and the generator point A_1 are
related by a symmetric shape operator; its characteristic roots locate the
singular (focal) points X = A_1 + x A_0 of the generator, and the kernel
directions of simple roots cut out families of developable surfaces.

No frame is built: the Gram of a null-adapted frame is fixed, so every
coordinate of dA_0 and dA_1 the operator needs is a pairing with the line
(A_0, A_1) or the screen (``frames.null_frame_coordinates``).  Nothing is
eliminated either: the generator is the one null direction of the induced
metric M, so the screen coordinates c of dA_0 satisfy c c^T = M, and those
dd of dA_1 give the operator lam = dd^T M^+ c, with M^+ read off the
metric's spectrum (Akivis & Goldberg, *Conformal Differential Geometry and
Its Generalizations*, 1996).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .conformal import (AmbientModel, AtInfinity, ProjectivePoint, darboux_unembed, lift_point,
                        lift_tangent)
from .errors import GeometryError, NotLightlikeError
from .frames import (_generator, _lightlike_lines, _null_frame, _orthonormal_screens,
                     null_frame_coordinates)
from .hypersurface import (Immersion, _ambient_gram, _causal_kind, _evaluation_error, _inertia,
                           _stacked_spectra, lightlike_kernel, parameter_grid)
from .linalg import (
    cluster_roots,
    det,
    jacobi_eigh,
    max_principal_angle,
    orthonormal_rows,
)

#: defect threshold (relative) above which the extracted operator is rejected
SYMMETRY_TOL_ANALYTIC = 1e-6
SYMMETRY_TOL_FD = 1e-3

#: matching radius when merging focal points
FOCAL_MERGE_TOL = 1e-6

#: distance in chart coordinates within which a degeneracy sample counts as
#: at a focal point
SINGULAR_TOL = 0.05

DEFAULT_STEP = 1e-4

#: Jacobi stopping tolerance for the induced metrics whose kernel columns give
#: the generators: dA_1 divides generator differences by 2*step, so the
#: default 1e-12 would leave eigenvector errors of up to ~5e-9 in it
GENERATOR_JACOBI_TOL = 1e-14


class _JetStack:
    """Jets of an immersion at a stack of parameter points us (N, params):
    the points and Jacobians of all members from one stacked ``point`` and
    one stacked ``jet1`` call, lifted to the quadric in one stacked
    ``lift_point``/``lift_tangent`` pass, with every induced metric
    (eigenpairs ``w``, ``v``) and J^T J eigendecomposed in one stacked Jacobi
    pass.  ``_lines`` builds the lines (A_0, A_1) and screens of any set of
    members in one stacked pass.

    ``failures`` maps the index of each member that is not a regular point to
    the exception it raises: the one its point or else its Jacobian raised (a
    ValueError or ArithmeticError becomes a GeometryError naming the member),
    else a DegenerateBasisError for a non-finite or rank-deficient Jacobian.
    """

    def __init__(self, imm: Immersion, us: np.ndarray, model: AmbientModel,
                 generator_scale: float):
        self.imm, self.us, self.model = imm, us, model
        self.generator_scale = generator_scale
        points, raised = imm.point(us)
        jets, jet_raised = imm.jet1(us)
        raised = {**jet_raised, **raised}
        self.failures = {i: _evaluation_error(us[i], raised[i]) for i in sorted(raised)}
        self.w, self.v = _stacked_spectra(jets, _ambient_gram(imm, model), us, self.failures,
                                          tol=GENERATOR_JACOBI_TOL)
        failed = list(self.failures)
        points[failed], jets[failed] = 0.0, 0.0  # masked before the lift: inf * 0 would warn
        if imm.homogeneous:
            self.a0, self.rows = points, np.swapaxes(jets, 1, 2)
        else:
            self.a0 = lift_point(points, model)
            self.rows = lift_tangent(points, np.swapaxes(jets, 1, 2), model)
        with np.errstate(invalid="ignore", divide="ignore"):  # failed members only
            self.generators = _generator(self.rows, self.w, self.v, imm.n, generator_scale)


def _lines(jets: _JetStack, members: np.ndarray) -> tuple:
    """A_0, A_1, screens and failures (position in members -> exception) of
    the members of a jet stack, in one pass of ``frames._lightlike_lines``.
    A member fails with its jet's failure, then with an induced metric that
    is not lightlike, then with the first failed check of the line builder.
    """
    a0, a1, screens, built = _lightlike_lines(jets.a0[members], jets.rows[members], jets.model,
                                              jets.generators[members], jets.generator_scale)
    failed = np.flatnonzero(np.isin(members, list(jets.failures))).tolist()
    failures = {j: jets.failures[members[j]] for j in failed}
    plus, minus, zero, _ = _inertia(jets.w[members], jets.imm.lightlike_tol())
    for j in np.flatnonzero((minus != 0) | (zero != 1)).tolist():
        kind = _causal_kind(plus[j], minus[j], zero[j])
        failures.setdefault(j, NotLightlikeError(
            f"hypersurface is {kind} at u={jets.us[members[j]].tolist()}, not lightlike"))
    for j, exc in built.items():
        failures.setdefault(j, exc)
    return a0, a1, screens, failures


def lightlike_frame_field(imm: Immersion, model: Optional[AmbientModel] = None,
                          generator_scale: float = 1.0):
    """Smooth field of null-adapted frames over the immersion's parameters.

    The gauge is the deterministic one used throughout: raw chart lift for
    A_0, unit sign-fixed kernel direction for A_1, pivoted screen, and the
    closed-form partners A_n, A_{n+1} of ``frames._null_frame``.  Away from
    pivot or sign-rule switches the field is differentiable, which is what
    the connection-form extraction needs.  The first n rows of each frame
    are the ``line`` and ``screen`` of ``lightlike_affinor`` there, bit for bit.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)

    def field(u):
        jets = _JetStack(imm, np.asarray(u, dtype=float)[None], model, generator_scale)
        a0, a1, screens, failures = _lines(jets, np.zeros(1, dtype=int))
        if failures:
            raise failures[0]
        return _null_frame(a0[0], a1[0], screens[0], model, float(a0[0] @ a0[0]), "adaptation")

    return field


@dataclass(frozen=True)
class LightlikeAnalysis:
    """Shape operator of a lightlike hypersurface point and derived data.

    ``line`` is (A_0, A_1), base point and unit generator, and ``screen`` the
    (n-2, n+2) rows e_i on which the operator's coordinates are read.  The
    ``diagnostics`` "w0n", "w0np1", "w1n", "w1np1" are the largest
    |<dA_0, A_1>|, |<dA_0, A_0>|, |<dA_1, A_1>| and |<dA_1, A_0>|.
    """

    u: np.ndarray
    shape_operator: np.ndarray
    symmetry_defect: float
    determinant: float
    roots: tuple
    line: tuple
    screen: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def base_point(self) -> np.ndarray:
        return self.line[0]

    @property
    def generator_point(self) -> np.ndarray:
        return self.line[1]

    @property
    def screen_dim(self) -> int:
        return self.shape_operator.shape[0]


def _shape_operators(a0, a1, screens, gram, da0, da1, w, v):
    """Shape operators (N, n-2, n-2), not symmetrized, and diagnostics "w0n",
    "w0np1", "w1n", "w1np1" (N,) of points with lines (A_0, A_1), screens,
    differentials dA_0, dA_1 (N, d, n+2) and induced-metric eigenpairs w, v.
    The screen coordinates c = <d_a A_0, e_i> and dd = <d_a A_1, e_i> are
    pairings, c c^T = M and dd = c lam^T, so lam = dd^T M^+ c, where
    M^+ = sum_j v_j v_j^T / w_j skips the kernel column ``_generator`` picks.
    """
    d, k = da0.shape[-2], screens.shape[-2]
    comp = null_frame_coordinates(np.concatenate([da0, da1], axis=-2), (a0, a1), screens, gram)
    c, dd = comp[:, :d, :k], comp[:, d:, :k]
    kernel = np.arange(d) == np.abs(w).argmin(axis=-1)[:, None]
    inv = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, w))
    pinv = (v * inv[:, None, :]) @ np.swapaxes(v, -1, -2)
    lam = np.swapaxes(dd, -1, -2) @ pinv @ c
    # columns k and k+1 are -<v, A_1> and -<v, A_0>
    pairs = np.abs(comp[..., k:])
    diagnostics = {"w0n": pairs[:, :d, 0].max(axis=1), "w0np1": pairs[:, :d, 1].max(axis=1),
                   "w1n": pairs[:, d:, 0].max(axis=1), "w1np1": pairs[:, d:, 1].max(axis=1)}
    return lam, diagnostics


def _affinors(imm: Immersion, us: np.ndarray, model: AmbientModel, step: float,
              generator_scale: float, sym_tol: Optional[float]) -> list:
    """Lightlike analysis at every parameter point of us (N, params): the
    LightlikeAnalysis of each point, or the exception it raises.

    The jets of all points and of their 2d central-difference neighbours are
    evaluated once and eigendecomposed in one stacked Jacobi pass (the
    generators of the neighbours give dA_1), the lines and screens of all
    points built in one stacked pass (``_lines``), the shape operators read
    in one stacked pass (``_shape_operators``) and the symmetrized ones
    eigendecomposed in a second Jacobi pass.  A stacked member does not
    depend on the rest of its stack, so a point gets the same bits in any
    grid.  A point fails with its own jet's failure, then with its
    lightlike, line and screen checks, then with the first failure among its
    neighbours (in the order +e_0, -e_0, +e_1, ...), then with its operator's
    asymmetry.
    """
    if sym_tol is None:
        sym_tol = SYMMETRY_TOL_ANALYTIC if imm.analytic else SYMMETRY_TOL_FD
    d = imm.params
    width = 2 * d + 1
    offsets = np.zeros((width, d))
    for a in range(d):
        offsets[2 * a + 1, a] = step
        offsets[2 * a + 2, a] = -step
    stencil = us[:, None, :] + offsets
    stencil[:, 0] = us  # as given: u + 0.0 would turn -0.0 into 0.0
    jets = _JetStack(imm, stencil.reshape(-1, d), model, generator_scale)
    a0, a1, screens, failures = _lines(jets, np.arange(len(us)) * width)
    neighbours = np.isin(np.arange(len(jets.us)), list(jets.failures)).reshape(-1, width)[:, 1:]
    first = neighbours.argmax(axis=1) + 1
    for i in np.flatnonzero(neighbours.any(axis=1)).tolist():
        failures.setdefault(i, jets.failures[i * width + first[i]])
    results = [failures.get(i) for i in range(len(us))]
    pending = [i for i in range(len(us)) if i not in failures]
    if not pending:
        return results

    centers = np.array(pending) * width
    a0, a1, screens = a0[pending], a1[pending], screens[pending]
    g = jets.generators[centers[:, None] + np.arange(1, width)]
    da1 = (g[:, 0::2] - g[:, 1::2]) / (2.0 * step)
    lam, diagnostics = _shape_operators(a0, a1, screens, model.form.gram, jets.rows[centers],
                                        da1, jets.w[centers], jets.v[centers])
    lam_t = np.swapaxes(lam, 1, 2)
    defects = np.abs(lam - lam_t).max(axis=(1, 2))
    tols = sym_tol * (1.0 + np.abs(lam).max(axis=(1, 2)))
    symmetric = (defects <= tols) & np.isfinite(tols)
    lam_sym = 0.5 * (lam + lam_t)
    # a symmetric operator gets its roots from the Jacobi spectrum, which
    # keeps exact multiplicities real (the general root iteration splinters
    # multiple roots at the cube root of machine precision)
    spectra = iter(jacobi_eigh(lam_sym[symmetric])[0])
    for j, i in enumerate(pending):
        if not symmetric[j]:
            results[i] = GeometryError(
                f"shape operator asymmetry {defects[j]:.3e} exceeds tolerance {tols[j]:.3e}")
            continue
        results[i] = LightlikeAnalysis(
            u=us[i].copy(),
            shape_operator=lam_sym[j],
            symmetry_defect=float(defects[j]),
            determinant=float(det(lam_sym[j])),
            roots=tuple(cluster_roots([complex(-x) for x in next(spectra)])),
            line=(a0[j], a1[j]),
            screen=screens[j],
            diagnostics={key: float(value[j]) for key, value in diagnostics.items()},
        )
    return results


def lightlike_affinor(
    imm: Immersion,
    u,
    model: Optional[AmbientModel] = None,
    generator_scale: float = 1.0,
    sym_tol: Optional[float] = None,
) -> LightlikeAnalysis:
    """Extract the generator shape operator at a lightlike point.

    The operator maps the screen components of the differential of the base
    point to those of the generator point, read in closed form through the
    induced metric's pseudo-inverse.  It is symmetric up to jet noise; within
    tolerance it is replaced by its symmetric part before root finding,
    beyond tolerance an error is raised.  This is the one-point case of the
    grid engine behind ``focal_map``, with the same bits.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)
    result = _affinors(imm, np.asarray(u, dtype=float)[None], model, DEFAULT_STEP,
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
    eigenspace basis, which depends on the eigenspace alone: the rows of its
    projector V V^T, orthonormalized under the identity Gram with the banded
    pivot of ``build_screen`` (the identity basis for a root of full
    multiplicity).
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
        if root.multiplicity > 1:
            rows, count = _orthonormal_screens((dirs.T @ dirs)[None], np.eye(len(w)),
                                               root.multiplicity, 1e-8)
            dirs = rows[0, : count[0]]
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


def _kernel_flow(imm: Immersion, u0, model: AmbientModel, arc: float, steps: int):
    """Sample parameter points along the generator curve through u0 by
    integrating the unit kernel field of the induced metric (RK4, carrying
    the direction sign along for continuity).  Returns the kernel direction
    at u0 and the two runs from u0; each ends at the first stage whose jet is
    not regular (its evaluation fails or is non-finite), such as a vertex."""
    h = arc / steps

    def aligned_kernel(u, ref):
        k = lightlike_kernel(imm, u, model=model)
        return k if float(k @ ref) >= 0.0 else -k

    k0 = lightlike_kernel(imm, u0, model=model)
    runs = []
    for direction in (+1.0, -1.0):
        u = np.asarray(u0, dtype=float).copy()
        k1 = direction * k0  # the first stage at u0, aligned with itself
        runs.append([])
        for step in range(steps):
            try:
                if step:
                    k1 = aligned_kernel(u, k1)
                k2 = aligned_kernel(u + 0.5 * h * k1, k1)
                k3 = aligned_kernel(u + 0.5 * h * k2, k2)
                k4 = aligned_kernel(u + h * k3, k3)
            except (ValueError, ArithmeticError):  # GeometryError included
                break
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            runs[-1].append(u.copy())
    return k0, runs


def degeneracy_check(
    imm: Immersion,
    an: LightlikeAnalysis,
    model: Optional[AmbientModel] = None,
    arc: float = 0.25,
) -> DegeneracyReport:
    """Verify tangential degeneracy along the generator through ``an.u``,
    given ``an``, the ``lightlike_affinor`` analysis of ``imm`` there.

    The homogeneous tangent span is compared, by largest principal angle,
    between the base point and samples along the generator curve; it also
    measures how many parameter directions actually move the tangent span
    (the rank of the tangential degeneracy).  The centre, the samples and the
    rate neighbours u + 1e-4 d are one jet stack (``_JetStack``) and all
    their angles one ``max_principal_angle`` call.  The curve has 5 samples
    each way, and each run ends at its first sample whose jet fails, or that
    lies within ``SINGULAR_TOL`` of a finite singular point in the chart
    coordinates x^r / x^0 of its base point; that sample is skipped.  Past a
    singular point the curve leaves the generator (on a cone, for the
    opposite ray).
    A failed centre or rate neighbour raises its jet's failure.
    """
    if model is None:
        model = AmbientModel.standard(imm.n)
    u, n, d = an.u, imm.n, imm.params
    focal = []
    for sp in singular_points(an):
        target = darboux_unembed(sp.point, model)
        if not isinstance(target, AtInfinity):
            focal.append(target)

    k, runs = _kernel_flow(imm, u, model, arc=arc, steps=5)
    # variation of the tangent span across an orthonormal parameter basis
    complement, rank = orthonormal_rows((np.eye(d) - np.outer(k, k))[None])
    basis = np.vstack([k, complement[0, : rank[0]]])
    eps = 1e-4
    flow = np.array([s for run in runs for s in run]).reshape(-1, d)
    first_rate = 1 + len(flow)
    jets = _JetStack(imm, np.vstack([u, flow, u + eps * basis]), model, 1.0)
    exc = next((jets.failures[k] for k in (0, *range(first_rate, len(jets.us)))
                if k in jets.failures), None)
    if exc is not None:
        raise exc
    spans = np.concatenate([jets.a0[:, None, :], jets.rows], axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):  # ideal or failed members
        chart = jets.a0[:, 1 : n + 1] / jets.a0[:, :1]
    near = np.zeros(len(chart), dtype=bool)
    for f in focal:
        near |= np.sqrt(((chart - f) ** 2).sum(axis=1)) < SINGULAR_TOL

    used, skipped, at = [], [], 1
    for run in runs:
        for i, s in enumerate(run, start=at):
            if i in jets.failures or near[i]:
                skipped.append(tuple(float(x) for x in s))
                break
            used.append(i)
        at += len(run)
    angles = max_principal_angle(spans[0], spans[used + list(range(first_rate, len(spans)))])
    angles, rates = angles[: len(used)], angles[len(used):] / eps
    rank = (rates > max(1e-6, 1e-3 * rates.max())).sum()

    return DegeneracyReport(
        max_angle=float(angles.max(initial=0.0)),
        angles=tuple(float(a) for a in angles),
        samples=tuple(tuple(float(x) for x in jets.us[i]) for i in used),
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
    sym_tol: Optional[float] = None,
) -> FocalSet:
    """Singular points of every generator over a parameter grid, merged into
    focal clusters within FOCAL_MERGE_TOL; ideal points keep an at-infinity
    marker.  ``sym_tol`` is passed to ``lightlike_affinor`` at every grid
    point."""
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
        for c in _merge(samples, FOCAL_MERGE_TOL)
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
