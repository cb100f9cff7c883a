"""Families of null lines on the quadric: shape operator, singular points,
integrability and stratification into lightlike hypersurfaces.

An isotropic congruence is an (n-1)-parameter family of null lines, each
spanned by two null, mutually conjugate homogeneous vectors A_0(u), A_1(u).
Unlike the hypersurface case the base point now moves transversally, so the
differential of A_1 decomposes over both the screen base forms and the
transversal form; the resulting shape operator need not be symmetric and its
characteristic roots may come in complex conjugate pairs.  The congruence is
normal (stratifies into lightlike hypersurfaces along the kernel of the
transversal form) exactly when the operator is symmetric, and then every
singular point is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AmbientModel, ProjectivePoint, lift_point, lift_tangent
from .errors import DegenerateBasisError, GeometryError, NonIntegrableError
from .frames import ConformalFrame, complete_isotropic_frame
from .hypersurface import LIGHTLIKE, _pullback, causal_type_of_metric, parameter_grid
from .linalg import char_roots, orthonormal_rows, solve

DEFAULT_STEP = 1e-4

#: defect below which a congruence counts as normal (integrable)
INTEGRABILITY_TOL = 1e-6


@dataclass(frozen=True)
class IsotropicCongruence:
    """An (n-1)-parameter family of null lines on the quadric.

    ``line`` maps a parameter vector to a pair of homogeneous vectors
    spanning the line; both must lie on the quadric and pair to zero.
    """

    n: int
    domain: tuple
    line: Callable[[np.ndarray], tuple]
    name: str = ""

    @property
    def params(self) -> int:
        return self.n - 1

    def line_at(self, u):
        a0, a1 = self.line(np.asarray(u, dtype=float))
        return np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)

    @classmethod
    def from_null_lines(cls, n, domain, base_point, direction, name="",
                        model: Optional[AmbientModel] = None):
        """Build from Lorentzian data: a base point field p(u) and a null
        direction field l(u); the line through p with direction l lifts to
        the quadric line spanned by the images of p and of the direction."""
        if model is None:
            model = AmbientModel.standard(n)

        def line(u):
            p = np.asarray(base_point(u), dtype=float)
            l = np.asarray(direction(u), dtype=float)
            return lift_point(p, model), lift_tangent(p, l, model)

        return cls(n=n, domain=domain, line=line, name=name)

    def validate(self, u, model: Optional[AmbientModel] = None, tol: float = 1e-10):
        if model is None:
            model = AmbientModel.standard(self.n)
        a0, a1 = self.line_at(u)
        scale2 = max(float(a0 @ a0), float(a1 @ a1))
        checks = {
            "base_on_quadric": abs(model.quadratic(a0)) / scale2,
            "direction_on_quadric": abs(model.quadratic(a1)) / scale2,
            "conjugate": abs(model.product(a0, a1)) / scale2,
        }
        bad = {k: v for k, v in checks.items() if v > tol}
        if bad:
            raise GeometryError(f"not an isotropic line at u={np.asarray(u).tolist()}: {bad}")
        return checks


@dataclass(frozen=True)
class CongruenceAnalysis:
    """Shape operator of a congruence at one line, not necessarily symmetric."""

    u: np.ndarray
    shape_operator: np.ndarray
    transversal_shift: np.ndarray
    symmetry_defect: float
    roots: tuple
    frame: ConformalFrame
    transversal_form: np.ndarray  # coefficients of omega_0^n per direction
    diagnostics: dict = field(default_factory=dict)

    @property
    def screen_dim(self) -> int:
        return self.shape_operator.shape[0]


def _line_differentials(cong: IsotropicCongruence, u: np.ndarray, directions, step: float):
    """Central differences of A_0 and A_1 along each parameter direction,
    one pair of line evaluations per direction."""
    da0 = np.empty((len(directions), cong.n + 2))
    da1 = np.empty((len(directions), cong.n + 2))
    for a, w in enumerate(directions):
        p0, p1 = cong.line_at(u + step * w)
        m0, m1 = cong.line_at(u - step * w)
        da0[a] = (p0 - m0) / (2.0 * step)
        da1[a] = (p1 - m1) / (2.0 * step)
    return da0, da1


def _line_jet(cong: IsotropicCongruence, u: np.ndarray, model: AmbientModel, step: float):
    """Validated frame of the line at u, the frame components of dA_0 across
    the parameter directions, and dA_1 from the same difference stencil."""
    cong.validate(u, model=model)
    a0, a1 = cong.line_at(u)
    frame = complete_isotropic_frame(a0, a1, model)
    da0, da1 = _line_differentials(cong, u, np.eye(cong.params), step)
    comp0 = frame.components(da0)
    return frame, comp0, da1


def _solve_basis_forms(comp0: np.ndarray, rhs, u: np.ndarray, n: int) -> np.ndarray:
    """Solve the basis-form matrix, the screen and transversal components of
    dA_0, against rhs; it is singular where the family is not a congruence."""
    basis = np.hstack([comp0[:, 2:n], comp0[:, n][:, None]])
    try:
        return solve(basis, rhs)
    except DegenerateBasisError as exc:
        raise DegenerateBasisError(
            f"basis forms are dependent at u={u.tolist()}; "
            "the family is not a congruence there"
        ) from exc


def transversal_form(cong: IsotropicCongruence, u, model: Optional[AmbientModel] = None,
                     step: float = DEFAULT_STEP) -> np.ndarray:
    """Coefficients of the transversal form omega_0^n per parameter direction
    at u, with every check ``congruence_affinor`` makes on the way to it, but
    without the shape operator and its roots."""
    if model is None:
        model = AmbientModel.standard(cong.n)
    u = np.asarray(u, dtype=float)
    _, comp0, _ = _line_jet(cong, u, model, step)
    _solve_basis_forms(comp0, np.zeros(cong.params), u, cong.n)
    return comp0[:, cong.n]


def congruence_affinor(
    cong: IsotropicCongruence,
    u,
    model: Optional[AmbientModel] = None,
    step: float = DEFAULT_STEP,
) -> CongruenceAnalysis:
    """Shape operator and transversal shift of the congruence at u.

    The screen and transversal components of the differentials of A_0 across
    the n-1 parameter directions form the basis-form matrix; expressing the
    screen components of dA_1 in that basis yields the operator.  A singular
    basis-form matrix means the family is not a congruence at u.
    """
    if model is None:
        model = AmbientModel.standard(cong.n)
    u = np.asarray(u, dtype=float)
    frame, comp0, da1 = _line_jet(cong, u, model, step)

    n = cong.n
    comp1 = frame.components(da1)
    e_form = comp0[:, n]
    dd = comp1[:, 2:n]
    diagnostics = {
        "w0np1": float(np.abs(comp0[:, n + 1]).max()),
        "w1n": float(np.abs(comp1[:, n]).max()),
        "transversal_consistency": float(np.abs(comp1[:, n + 1] + e_form).max()),
    }

    unknowns = _solve_basis_forms(comp0, dd, u, n)
    lam = unknowns[: n - 2].T
    shift = unknowns[n - 2]
    defect = float(np.abs(lam - lam.T).max()) if lam.size else 0.0
    roots = tuple(char_roots(lam)) if lam.size else ()
    return CongruenceAnalysis(
        u=u.copy(),
        shape_operator=lam,
        transversal_shift=shift,
        symmetry_defect=defect,
        roots=roots,
        frame=frame,
        transversal_form=e_form,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class CongruenceSingularPoint:
    x: complex
    is_real: bool
    multiplicity: int
    point: Optional[ProjectivePoint]


def congruence_singular_points(an: CongruenceAnalysis) -> list:
    """All characteristic roots with multiplicity; real roots carry the
    singular point X = A_1 + x A_0 of the line, complex roots carry none."""
    out = []
    for root in an.roots:
        point = None
        if root.is_real:
            coords = an.frame.vector(1) + root.real_value * an.frame.vector(0)
            point = ProjectivePoint(coords)
        out.append(
            CongruenceSingularPoint(
                x=root.value,
                is_real=root.is_real,
                multiplicity=root.multiplicity,
                point=point,
            )
        )
    return out


def integrability_defect(
    cong: IsotropicCongruence,
    grid_counts: Sequence[int],
    model: Optional[AmbientModel] = None,
) -> float:
    """Largest symmetry defect of the shape operator over a parameter grid;
    near zero the congruence is normal and stratifies."""
    if model is None:
        model = AmbientModel.standard(cong.n)
    _, grid = parameter_grid(cong, grid_counts)
    worst = 0.0
    for u in grid:
        an = congruence_affinor(cong, u, model=model)
        worst = max(worst, an.symmetry_defect)
    return worst


@dataclass(frozen=True)
class LeafTrace:
    """A sampled leaf of the transversal distribution through a seed line."""

    seed: tuple
    parameters: tuple  # sampled parameter points
    lines: tuple  # (A_0, A_1) pairs matching parameters
    lightlike_fraction: float
    step: float
    truncated: bool = False  # a run stopped early at the domain boundary


def _transversal_kernel_basis(e: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the parameter directions annihilated by the
    transversal form e."""
    norm = math.sqrt(float(e @ e))
    if norm < 1e-12:
        raise DegenerateBasisError("transversal form vanishes; distribution undefined")
    e_hat = e / norm
    proj = np.eye(len(e)) - np.outer(e_hat, e_hat)
    basis = orthonormal_rows(proj)
    if basis.shape[0] != len(e) - 1:
        raise DegenerateBasisError("kernel of the transversal form has wrong dimension")
    return basis


def _memoized(fn):
    """A function of one parameter point that evaluates fn once per distinct
    point (by its exact bytes) and returns the first result thereafter."""
    cache = {}

    def once(u):
        key = u.tobytes()
        if key not in cache:
            cache[key] = fn(u)
        return cache[key]

    return once


def stratify(
    cong: IsotropicCongruence,
    seed,
    model: Optional[AmbientModel] = None,
    step: float = 1e-2,
    count: int = 40,
    tol: float = INTEGRABILITY_TOL,
    line_samples: Sequence[float] = (-0.5, 0.0, 0.5, 1.0),
) -> LeafTrace:
    """Integrate the leaf of the transversal distribution through ``seed``.

    Steps are projected onto the kernel of the transversal form at every
    integrator stage (classical fourth-order stepping).  The leaf is sampled
    on a lattice of kernel directions: a spine along the first direction and,
    for higher screen dimension, transversal runs from every spine point.
    The swept point set is classified against the lightlike criterion and
    the surviving fraction reported.  Only the seed gets the full shape
    operator, whose symmetry defect decides integrability; every other point
    evaluates just the transversal form, once per distinct point.
    """
    if model is None:
        model = AmbientModel.standard(cong.n)
    seed = np.asarray(seed, dtype=float)
    an0 = congruence_affinor(cong, seed, model=model)
    if an0.symmetry_defect > tol * (1.0 + float(np.abs(an0.shape_operator).max(initial=0.0))):
        raise NonIntegrableError(
            f"congruence is not integrable near the seed "
            f"(symmetry defect {an0.symmetry_defect:.3e})"
        )

    form_at = _memoized(lambda u: transversal_form(cong, u, model=model))

    def kernel_dir(u, ref):
        basis = _transversal_kernel_basis(form_at(u))
        d = basis.T @ (basis @ ref)
        norm = math.sqrt(float(d @ d))
        if norm < 1e-10:
            raise DegenerateBasisError("transport direction left the distribution kernel")
        return d / norm

    truncated = False

    def rk4_run(u0, ref0, steps):
        """March along the distribution, carrying the direction by projection."""
        nonlocal truncated
        out = []
        u = u0.copy()
        ref = ref0.copy()
        lo = np.array([d[0] for d in cong.domain])
        hi = np.array([d[1] for d in cong.domain])
        for _ in range(steps):
            k1 = kernel_dir(u, ref)
            k2 = kernel_dir(u + 0.5 * step * k1, k1)
            k3 = kernel_dir(u + 0.5 * step * k2, k2)
            k4 = kernel_dir(u + step * k3, k3)
            u = u + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.any(u < lo - 1e-9) or np.any(u > hi + 1e-9):
                truncated = True
                break
            ref = k1
            out.append(u.copy())
        return out

    basis0 = _transversal_kernel_basis(an0.transversal_form)
    spine = [seed.copy()]
    spine = rk4_run(seed, -basis0[0], count)[::-1] + spine + rk4_run(seed, basis0[0], count)
    lattice = list(spine)
    if basis0.shape[0] > 1:
        cross = []
        for point in spine:
            basis_p = _transversal_kernel_basis(form_at(point))
            for k in range(1, basis0.shape[0]):
                ref = basis_p.T @ (basis_p @ basis0[k])
                nrm = math.sqrt(float(ref @ ref))
                if nrm < 1e-10:
                    continue
                ref = ref / nrm
                cross += rk4_run(point, -ref, count) + rk4_run(point, ref, count)
        lattice += cross

    lines = tuple((*cong.line_at(p),) for p in lattice)

    # classify the swept point set: at each lattice point, the leaf's tangent
    # directions are the kernel of the transversal form, so the swept
    # hypersurface tangent space is spanned by the corresponding directional
    # derivatives of X(s) = A_0 + s A_1 together with the line direction A_1
    good = 0
    total = 0
    for p, (_, a1_p) in zip(lattice, lines):
        try:
            basis_p = _transversal_kernel_basis(form_at(p))
        except GeometryError:
            continue
        deriv0, deriv1 = _line_differentials(cong, p, basis_p, step)
        for s in line_samples:
            tangent = [d0 + s * d1 for d0, d1 in zip(deriv0, deriv1)]
            tangent.append(a1_p)
            m = _pullback(np.vstack(tangent).T, model.form.gram)
            causal = causal_type_of_metric(m, tol=1e-4)
            total += 1
            if causal.kind == LIGHTLIKE:
                good += 1
    fraction = good / total if total else 0.0
    return LeafTrace(
        seed=tuple(float(x) for x in seed),
        parameters=tuple(tuple(float(x) for x in p) for p in lattice),
        lines=lines,
        lightlike_fraction=fraction,
        step=step,
        truncated=truncated,
    )
