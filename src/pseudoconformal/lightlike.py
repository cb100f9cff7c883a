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

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .conformal import (AmbientModel, ProjectivePoint, _singular_coords, _unembed, lift_point,
                        lift_tangent)
from .errors import DegenerateBasisError, GeometryError, NotLightlikeError
from .frames import (_generator, _lightlike_lines, _null_frame, _orthonormal_screens,
                     null_frame_coordinates)
from .hypersurface import (LIGHTLIKE_TOL, Immersion, _ambient_gram, _causal_kind,
                           _evaluation_error, _stacked_spectra, parameter_grid)
from .linalg import _cluster, _inertia, _root_records, _roots, det, jacobi_eigh, orthonormal_rows

#: defect threshold (relative) above which the extracted operator is rejected,
#: for analytic and finite-difference jets alike
SYMMETRY_TOL = 1e-6

#: matching radius when merging focal points
FOCAL_MERGE_TOL = 1e-6


class _JetStack:
    """Jets of an immersion at a stack of parameter points us (N, params):
    the points and Jacobians of all members from one stacked ``point`` and
    one stacked ``jet1`` call, lifted to the quadric in one stacked
    ``lift_point``/``lift_tangent`` pass, with every induced metric
    eigendecomposed (eigenpairs ``w``, ``v``) in one stacked Jacobi pass with
    the spectra of the J^T J left in doubt.  ``_lines`` builds the lines (A_0, A_1) and screens of any set of
    members in one stacked pass.

    ``failures`` maps the index of each member that is not a regular point to
    the exception it raises: the one its point or else its Jacobian raised (a
    ValueError or ArithmeticError becomes a GeometryError naming the member),
    else a DegenerateBasisError for a non-finite or rank-deficient Jacobian.
    The lightlike engine stacks one member per grid point.
    """

    def __init__(self, imm: Immersion, us: np.ndarray, model: AmbientModel,
                 generator_scale: float):
        self.imm, self.us, self.model = imm, us, model
        self.generator_scale = generator_scale
        points, raised = imm.point(us)
        jets, jet_raised = imm.jet1(us)
        raised = {**jet_raised, **raised}
        self.failures = {i: _evaluation_error(us[i], raised[i]) for i in sorted(raised)}
        self.w, self.v = _stacked_spectra(jets, _ambient_gram(imm), us, self.failures,
                                          vectors=True)
        failed = list(self.failures)
        points[failed], jets[failed] = 0.0, 0.0  # masked before the lift: inf * 0 would warn
        if imm.homogeneous:
            self.a0, self.rows = points, np.swapaxes(jets, 1, 2)
        else:
            self.a0 = lift_point(points, model)
            self.rows = lift_tangent(points, np.swapaxes(jets, 1, 2), model)
        with np.errstate(invalid="ignore", divide="ignore"):  # failed members only
            self.generators = _generator(self.rows, self.w, self.v, imm.n, generator_scale)


def _lines(jets: _JetStack) -> tuple:
    """A_0, A_1, screens and failures (member -> exception) of a jet stack,
    in one pass of ``frames._lightlike_lines``.  A member fails with its
    jet's failure, then with an induced metric that is not lightlike, then
    with the first failed check of the line builder.
    """
    a0, a1, screens, built = _lightlike_lines(jets.a0, jets.rows, jets.model, jets.generators,
                                              jets.generator_scale)
    failures = dict(jets.failures)
    plus, minus, zero, _ = _inertia(jets.w, LIGHTLIKE_TOL)
    for j in np.flatnonzero((minus != 0) | (zero != 1)).tolist():
        kind = _causal_kind(plus[j], minus[j], zero[j])
        failures.setdefault(j, NotLightlikeError(
            f"hypersurface is {kind} at u={jets.us[j].tolist()}, not lightlike"))
    for j, exc in built.items():
        failures.setdefault(j, exc)
    return a0, a1, screens, failures


def lightlike_frame_field(imm: Immersion):
    """Smooth field of null-adapted frames over the immersion's parameters.

    The gauge is the deterministic one used throughout: raw chart lift for
    A_0, unit sign-fixed kernel direction for A_1, pivoted screen, and the
    closed-form partners A_n, A_{n+1} of ``frames._null_frame``.  Away from
    pivot or sign-rule switches the field is differentiable, which is what
    the connection-form extraction needs.  The first n rows of each frame
    are the ``line`` and ``screen`` of ``lightlike_affinor`` there, bit for bit.
    """
    model = AmbientModel.standard(imm.n)

    def field(u):
        jets = _JetStack(imm, np.asarray(u, dtype=float)[None], model, 1.0)
        a0, a1, screens, failures = _lines(jets)
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
    def screen_dim(self) -> int:
        return self.shape_operator.shape[0]


@dataclass(frozen=True)
class DegeneracyReport:
    """How far the tangent span of the Darboux image turns along the
    generator, relative to its fastest turning (``generator_rate``), and in
    how many parameter directions it turns (``tangent_rank``)."""

    generator_rate: float
    tangent_rank: int


def _pseudo_inverse(w, v) -> tuple:
    """M^+ = sum_j v_j v_j^T / w_j (N, d, d) of metrics with eigenpairs w, v,
    skipping the kernel column k (N, d) that ``_generator`` picks, and k."""
    kernel = np.arange(w.shape[-1]) == np.abs(w).argmin(axis=-1)[:, None]
    inv = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, w))
    return (v * inv[:, None, :]) @ np.swapaxes(v, -1, -2), np.swapaxes(v, -1, -2)[kernel]


def _shape_operators(a0, a1, screens, gram, da0, da1, pinv):
    """Shape operators (N, n-2, n-2), not symmetrized, and diagnostics "w0n",
    "w0np1", "w1n", "w1np1" (N,) of points with lines (A_0, A_1), screens,
    differentials dA_0, dA_1 (N, d, n+2) and induced-metric pseudo-inverses
    pinv (``_pseudo_inverse``).  The screen coordinates c = <d_a A_0, e_i> and dd = <d_a A_1, e_i> are
    pairings, c c^T = M and dd = c lam^T, so lam = dd^T M^+ c.
    """
    d, k = da0.shape[-2], screens.shape[-2]
    comp = null_frame_coordinates(np.concatenate([da0, da1], axis=-2), (a0, a1), screens, gram)
    c, dd = comp[:, :d, :k], comp[:, d:, :k]
    lam = np.swapaxes(dd, -1, -2) @ pinv @ c
    # columns k and k+1 are -<v, A_1> and -<v, A_0>
    pairs = np.abs(comp[..., k:])
    diagnostics = {"w0n": pairs[:, :d, 0].max(axis=1), "w0np1": pairs[:, :d, 1].max(axis=1),
                   "w1n": pairs[:, d:, 0].max(axis=1), "w1np1": pairs[:, d:, 1].max(axis=1)}
    return lam, diagnostics


def _row_derivatives(jets: _JetStack, members, hessians) -> np.ndarray:
    """d_b R (N, d, d, n+2) of the tangent rows R of the members of a jet
    stack with Hessians (N, target, d, d): row a of d_b R is H_ab, or
    lift_tangent(p, H_ab) + M_ab e_{n+1} for the chart lift of p."""
    imm, model = jets.imm, jets.model
    h = np.transpose(hessians, (0, 3, 2, 1))  # h[:, b, a] = H_ab
    if not imm.homogeneous:
        p, tangents = jets.a0[members, 1 : imm.n + 1], jets.rows[members][..., 1 : imm.n + 1]
        h = lift_tangent(p[:, None], h, model)
        h[..., -1] += tangents @ model.metric.gram @ np.swapaxes(tangents, -1, -2)
    return h


def _generator_differentials(jets: _JetStack, members, h, pinv, k) -> np.ndarray:
    """dA_1 (N, d, n+2), modulo A_1, of the generators of the members of a
    jet stack with row derivatives h = d_b R (``_row_derivatives``) and the
    ``_pseudo_inverse`` pinv, k of their metrics, in closed form.  With R the
    tangent rows, k the kernel column of M = R G R^T and A_1 = s R^T k / |R^T k|
    (s the sign and scale), d_b k = -M^+ (d_b M) k (Magnus 1985), so
        d_b A_1 = s ((d_b R)^T k - R^T M^+ (d_b M) k) / |R^T k|  mod A_1,
    where (d_b M) k = d_b R G R^T k + R G (d_b R)^T k."""
    gram, rows = jets.model.form.gram, jets.rows[members]
    a1 = (k[:, None, :] @ rows)[:, 0]
    dr_k = (k[:, None, None, :] @ h)[:, :, 0]  # (d_b R)^T k
    dm_k = (h @ (a1 @ gram)[:, None, :, None])[..., 0] + dr_k @ gram @ np.swapaxes(rows, -1, -2)
    scale = (jets.generators[members] * a1).sum(axis=-1) / (a1 * a1).sum(axis=-1)
    return scale[:, None, None] * (dr_k - dm_k @ pinv @ rows)


def _degeneracy(jets: _JetStack, members, dr, k) -> tuple:
    """Generator rates and tangent ranks (N,) of the Darboux image at the
    members of a jet stack with row derivatives dr = d_b R
    (``_row_derivatives``) and metric kernel columns k (``_pseudo_inverse``),
    in one stacked pass.

    Let X be the lifted point, R the tangent rows and T_b the derivatives
    d_b R projected off the Euclidean span {X, R}
    (one stacked ``orthonormal_rows`` call): T_b is how fast the tangent
    span turns in parameter direction b.  The image is tangentially
    degenerate along the generator when sum_b k_b T_b vanishes, k the
    kernel column of the induced metric.  Its rate is |sum_b k_b T_b| over
    the largest singular value of b -> T_b, read directly (the square root
    of k^T G k would floor it at about 1e-8), and the rank of the degeneracy
    is the number of eigenvalues of the Gram matrix G_bc = <T_b, T_c> (one
    stacked Jacobi pass) above 1e-12 times the largest, which is 1e-6 on
    the singular values.
    """
    span = orthonormal_rows(np.concatenate([jets.a0[members, None], jets.rows[members]],
                                           axis=1))[0][:, None]
    count, d, _, width = dr.shape
    turns = (dr - (dr @ np.swapaxes(span, -1, -2)) @ span).reshape(count, d, d * width)
    along = (k[:, None] @ turns)[:, 0]
    w = jacobi_eigh(turns @ np.swapaxes(turns, -1, -2), vectors=0)[0]
    top = np.maximum(w[:, 0], 1e-300)
    return (np.sqrt((along * along).sum(axis=1)) / np.sqrt(top),
            (w > 1e-12 * top[:, None]).sum(axis=1))


_Affinors = namedtuple("_Affinors", "us members operators defects spectra roots a0 a1 screens "
                                    "diagnostics jets dr kernels failures")


def _affinors(imm: Immersion, us: np.ndarray, model: AmbientModel, generator_scale: float,
              sym_tol: Optional[float]) -> _Affinors:
    """Lightlike analysis at the parameter points us (N, params) in columns
    over the points that pass (stack indices ``members``, ascending):
    symmetrized shape operators, symmetry defects, descending spectra and
    their roots (``linalg._roots`` of ``linalg._cluster``), lines ``a0``,
    ``a1``, screens, diagnostics {name: (P,)}, and the jet stack, row
    derivatives and kernel columns that ``_degeneracy`` reads; and the
    others' ``failures``.

    The jets of all points are evaluated and eigendecomposed once
    (``_JetStack``), their lines and screens built in one pass (``_lines``),
    the Hessians of the points that pass are one ``jet2`` call, lifted once
    (``_row_derivatives``), their metrics' pseudo-inverses and kernels taken
    once (``_pseudo_inverse``), dA_1 read in closed form
    (``_generator_differentials``), the operators in one pass
    (``_shape_operators``), and the spectra of their symmetric parts in a
    second Jacobi pass, without eigenvectors, clustered into roots once.
    The degeneracy is left to the members whose report is read
    (``_degeneracy_report``).  A member does not depend on the rest of its
    stack, so a point gets the same bits in any grid.  A point fails with
    its own jet's failure, then with its lightlike, line and screen checks,
    then with its Hessian's (what it raised, or a non-finite Hessian), then
    with its operator's asymmetry.
    """
    sym_tol = SYMMETRY_TOL if sym_tol is None else sym_tol
    jets = _JetStack(imm, us, model, generator_scale)
    a0, a1, screens, failures = _lines(jets)
    live = [i for i in range(len(us)) if i not in failures]
    hessians, raised = imm.jet2(us[live])  # failed members are zero
    for j in np.flatnonzero(~np.isfinite(hessians).all(axis=(1, 2, 3))).tolist():
        raised[j] = DegenerateBasisError(f"non-finite hessian at u={us[live[j]].tolist()}")
    failures.update({live[j]: _evaluation_error(us[live[j]], exc) for j, exc in raised.items()})
    kept = [j for j in range(len(live)) if j not in raised]
    pending = np.array([live[j] for j in kept], dtype=int)

    dr = _row_derivatives(jets, pending, hessians[kept])
    pinv, k = _pseudo_inverse(jets.w[pending], jets.v[pending])
    lam, diagnostics = _shape_operators(a0[pending], a1[pending], screens[pending],
                                        model.form.gram, jets.rows[pending],
                                        _generator_differentials(jets, pending, dr, pinv, k), pinv)
    lam_t = np.swapaxes(lam, 1, 2)
    defects = np.abs(lam - lam_t).max(axis=(1, 2))
    tols = sym_tol * (1.0 + np.abs(lam).max(axis=(1, 2)))
    ok = (defects <= tols) & np.isfinite(tols)
    for j in np.flatnonzero(~ok).tolist():
        failures[int(pending[j])] = GeometryError(
            f"shape operator asymmetry {defects[j]:.3e} exceeds tolerance {tols[j]:.3e}")
    # a symmetric operator gets its roots from the Jacobi spectrum, which
    # keeps exact multiplicities real (the general root iteration splinters
    # multiple roots at the cube root of machine precision)
    lam_sym, members = (0.5 * (lam + lam_t))[ok], pending[ok]
    spectra = jacobi_eigh(lam_sym, vectors=0)[0]
    return _Affinors(us, members, lam_sym, defects[ok], spectra, _roots(*_cluster(-spectra)),
                     a0[members], a1[members], screens[members],
                     {key: value[ok] for key, value in diagnostics.items()},
                     jets, dr[ok], k[ok], failures)


def _analysis(c: _Affinors, i: int) -> LightlikeAnalysis:
    """The LightlikeAnalysis of stack member i of ``_affinors`` columns, or
    the exception it failed with raised.  Only here are the determinant and
    the ``Root`` records of its row of roots built."""
    if i in c.failures:
        raise c.failures[i]
    j = int(np.searchsorted(c.members, i))
    return LightlikeAnalysis(
        u=c.us[i].copy(), shape_operator=c.operators[j], symmetry_defect=float(c.defects[j]),
        determinant=float(det(c.operators[j])),
        roots=tuple(_root_records(*(a[j] for a in c.roots))),
        line=(c.a0[j], c.a1[j]), screen=c.screens[j],
        diagnostics={key: float(value[j]) for key, value in c.diagnostics.items()})


def _degeneracy_report(c: _Affinors, i: int) -> DegeneracyReport:
    """The DegeneracyReport of stack member i of ``_affinors`` columns, or
    the exception it failed with raised: ``_degeneracy`` of that one member."""
    if i in c.failures:
        raise c.failures[i]
    j = slice(*np.searchsorted(c.members, [i, i + 1]))
    rate, rank = _degeneracy(c.jets, c.members[j], c.dr[j], c.kernels[j])
    return DegeneracyReport(generator_rate=float(rate[0]), tangent_rank=int(rank[0]))


def lightlike_affinor(imm: Immersion, u, generator_scale: float = 1.0,
                      sym_tol: Optional[float] = None) -> LightlikeAnalysis:
    """Extract the generator shape operator at a lightlike point.

    The operator maps the screen components of the differential of the base
    point to those of the generator point, read in closed form through the
    induced metric's pseudo-inverse.  It is symmetric up to jet noise; within
    tolerance it is replaced by its symmetric part before root finding,
    beyond tolerance an error is raised.  This is the one-point case of the
    grid engine behind ``focal_map``, with the same bits, read through the
    member view ``_analysis``.
    """
    return _analysis(_affinors(imm, np.asarray(u, dtype=float)[None],
                               AmbientModel.standard(imm.n), generator_scale, sym_tol), 0)


@dataclass(frozen=True)
class SingularPoint:
    """A singular point X = A_1 + x A_0 on the generator."""

    x: float
    multiplicity: int
    point: ProjectivePoint


def singular_points(an: LightlikeAnalysis) -> list:
    """Singular points of the generator, one per clustered real root: the
    one-point case of ``focal_map``'s samples, with their coordinates."""
    for root in an.roots:
        if not root.is_real:
            raise GeometryError(
                f"complex characteristic root {root.value} on a lightlike "
                "hypersurface signals an inconsistent shape operator"
            )
    x = np.array([root.real_value for root in an.roots])
    return [SingularPoint(x=float(v), multiplicity=root.multiplicity, point=ProjectivePoint(c))
            for root, v, c in zip(an.roots, x, _singular_coords(*an.line, x))]


@dataclass(frozen=True)
class TorseFamily:
    """Screen eigendirections attached to one characteristic root."""

    root: float
    multiplicity: int
    directions: np.ndarray  # (multiplicity, n-2), unit rows


def torse_directions(an: LightlikeAnalysis) -> list:
    """Per root, the unit screen directions annihilated by (lambda + x I).

    The roots are the clusters of the eigenvalues -w of the operator, both
    in ascending order, so each root takes the next ``multiplicity``
    eigenvectors of its Jacobi decomposition.  Simple roots get a single
    direction; multiple roots return their whole eigenspace basis, which
    depends on the eigenspace alone: the rows of its projector V V^T,
    orthonormalized under the identity Gram with the banded pivot of
    ``build_screen`` (the identity basis for a root of full multiplicity).
    """
    if an.screen_dim == 0:
        return []
    w, v = jacobi_eigh(an.shape_operator)
    out, start = [], 0
    for root in an.roots:
        dirs, start = v[:, start : start + root.multiplicity].T, start + root.multiplicity
        if root.multiplicity > 1:
            rows, count = _orthonormal_screens((dirs.T @ dirs)[None], np.eye(len(w)),
                                               root.multiplicity)
            dirs = rows[0, : count[0]]
        out.append(TorseFamily(root=root.real_value, multiplicity=root.multiplicity,
                               directions=dirs))
    return out


def degeneracy_check(imm: Immersion, an: LightlikeAnalysis) -> DegeneracyReport:
    """Tangential degeneracy of the Darboux image at ``an.u``, the one field
    of ``an`` read: the ``_degeneracy_report`` of the one-point grid engine,
    which raises the failure of a point it rejects."""
    return _degeneracy_report(_affinors(imm, np.asarray(an.u, dtype=float)[None],
                                        AmbientModel.standard(imm.n), 1.0, None), 0)


#: records of one row of a FocalSet, and of one cluster (its first sample's
#: point and coordinates, its size and its samples' multiplicities)
FocalSample = namedtuple("FocalSample", "u root_index x multiplicity at_infinity point projective")
FocalCluster = namedtuple("FocalCluster",
                          "at_infinity representative projective count multiplicities")


@dataclass(frozen=True, eq=False)
class FocalSet:
    """Focal samples in columns, one row per (grid point, root) in grid order,
    with finite ``point`` (NaN at infinity) and normalized ``projective``
    coordinates; each cluster's ``first`` sample, in order of creation; and
    ``errors``, (u, message) per failed grid point.  ``samples`` and
    ``clusters`` build records on first use."""

    u: np.ndarray
    root_index: np.ndarray
    x: np.ndarray
    multiplicity: np.ndarray
    at_infinity: np.ndarray
    point: np.ndarray
    projective: np.ndarray
    cluster: np.ndarray
    first: np.ndarray
    errors: tuple

    @cached_property
    def samples(self) -> tuple:
        columns = (self.u.tolist(), self.root_index.tolist(), self.x.tolist(),
                   self.multiplicity.tolist(), self.at_infinity.tolist(), self.point.copy())
        return tuple(FocalSample(tuple(u), k, x, m, inf, None if inf else p, ProjectivePoint(c))
                     for (u, k, x, m, inf, p), c in zip(zip(*columns), self.projective))

    @cached_property
    def clusters(self) -> tuple:
        order = np.argsort(self.cluster, kind="stable")
        members = np.split(self.multiplicity[order], np.cumsum(np.bincount(self.cluster))[:-1])
        return tuple(FocalCluster(inf, None if inf else self.point[f].copy(),
                                  self.samples[f].projective, len(m), tuple(m.tolist()))
                     for f, inf, m in zip(self.first.tolist(),
                                          self.at_infinity[self.first].tolist(), members))


def focal_map(imm: Immersion, grid_counts: Sequence[int],
              sym_tol: Optional[float] = None) -> FocalSet:
    """Singular points of every generator over a parameter grid, merged into
    focal clusters within FOCAL_MERGE_TOL; ideal points keep an at-infinity
    marker: one ``_affinors`` pass over the grid with ``sym_tol``, then
    ``_focal_set``."""
    model = AmbientModel.standard(imm.n)
    _, grid = parameter_grid(imm, grid_counts)
    return _focal_set(_affinors(imm, grid, model, 1.0, sym_tol), len(grid), model)


def _focal_set(columns: _Affinors, count: int, model: AmbientModel) -> FocalSet:
    """The FocalSet of the first ``count`` stack members of ``_affinors``
    columns.  Their roots are the leading rows of the columns' ``roots``,
    and their singular points X = A_1 + x A_0 one stacked normalization and
    quadric check (``conformal._unembed``): a point whose k-th singular
    point is off the quadric keeps its first k samples and is listed in
    ``errors``."""
    rows, root_index = np.nonzero(columns.roots[1][columns.members < count])
    x, multiplicity = columns.roots[0].real[rows, root_index], columns.roots[1][rows, root_index]
    coords = _singular_coords(columns.a0[rows], columns.a1[rows], x)
    points, ideal, off = _unembed(coords, model)
    failures = {i: exc for i, exc in columns.failures.items() if i < count}
    keep = np.ones(len(rows), dtype=bool)
    for s, exc in off.items():
        failures.setdefault(int(columns.members[rows[s]]), exc)
        keep[s:] &= rows[s:] != rows[s]
    cluster, first = _merge(points[keep], coords[keep], ideal[keep], FOCAL_MERGE_TOL)
    us = columns.us
    return FocalSet(u=us[columns.members[rows[keep]]], root_index=root_index[keep], x=x[keep],
                    multiplicity=multiplicity[keep], at_infinity=ideal[keep], point=points[keep],
                    projective=coords[keep], cluster=cluster, first=first,
                    errors=tuple((tuple(us[i].tolist()), str(failures[i]))
                                 for i in sorted(failures)))


def _merge(points: np.ndarray, projective: np.ndarray, at_infinity: np.ndarray,
           tol: float) -> tuple:
    """Cluster of each sample (finite points (S, n), normalized projective
    coordinates (S, n+2), at-infinity flags) and first sample of each
    cluster, in order of creation.  A sample joins the first earlier cluster
    of its kind whose first sample lies within tol in the max norm (of the
    point, or of the coordinates at infinity), else it starts one.  A sample
    with a coordinate more than tol from every other's is a cluster alone,
    which one sort of each kind's columns and one gap test find; the first
    unplaced sample starts each other cluster, and one array comparison
    takes in every later one within tol."""
    cluster, first = np.arange(len(at_infinity)), []
    for keys, kind in ((points, False), (projective, True)):
        rest = np.flatnonzero(at_infinity == kind)
        if not rest.size:
            continue
        values, columns = keys[rest], np.arange(keys.shape[1])
        order = np.argsort(values, axis=0)
        ranked = values[order, columns]
        gap = np.ones((len(rest) + 1, len(columns)), dtype=bool)  # the ends have no neighbour
        gap[1:-1] = ranked[1:] - ranked[:-1] > tol
        alone = np.zeros(order.shape, dtype=bool)
        alone[order, columns] = gap[:-1] & gap[1:]
        alone = alone.any(axis=1)
        first += rest[alone].tolist()
        rest = rest[~alone]
        while rest.size:
            close = np.abs(keys[rest] - keys[rest[0]]).max(axis=1) <= tol
            close[0] = True
            cluster[rest[close]] = rest[0]
            first.append(rest[0])
            rest = rest[~close]
    first = np.sort(np.array(first, dtype=int))
    return np.searchsorted(first, cluster), first
