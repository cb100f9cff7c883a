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

No frame is built.  The Gram matrix of a null-adapted frame is fixed, so each
coordinate the operator needs is a pairing: in the frame
(A_0, A_1, e_2..e_{n-1}, A_n, A_{n+1}) a vector v has the coefficient
-<v, A_1> on A_n, -<v, A_0> on A_{n+1} and <v, e_i> on the screen vector e_i
(Akivis & Goldberg, *Conformal Differential Geometry and Its
Generalizations*, 1996; ``frames.null_frame_coordinates``).  The transversal
form is therefore omega_0^n = -<dA_0, A_1>, which needs no screen, and only
the shape operator builds the screen e_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AmbientModel, ProjectivePoint, lift_point, lift_tangent
from .errors import DegenerateBasisError, GeometryError, NonIntegrableError
from .frames import _line_screen_candidates, build_screen, null_frame_coordinates
from .hypersurface import _inertia, _pullback, parameter_grid
from .linalg import char_roots, jacobi_eigh, orthonormal_rows, solve

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
        return _line_checks(u, *self.line_at(u), model, tol)


def _line_checks(u, a0: np.ndarray, a1: np.ndarray, model: AmbientModel,
                 tol: float = 1e-10) -> dict:
    """Relative quadric and conjugacy residuals of the line (A_0, A_1) at u;
    raises GeometryError where one exceeds tol or the line is not finite."""
    if not (np.isfinite(a0).all() and np.isfinite(a1).all()):
        raise GeometryError(f"not an isotropic line at u={np.asarray(u).tolist()}: "
                            "non-finite coordinates")
    g = model.form.gram
    scale2 = max(float(a0 @ a0), float(a1 @ a1))
    checks = {
        "base_on_quadric": abs(float(a0 @ g @ a0)) / scale2,
        "direction_on_quadric": abs(float(a1 @ g @ a1)) / scale2,
        "conjugate": abs(float(a0 @ g @ a1)) / scale2,
    }
    bad = {k: v for k, v in checks.items() if v > tol}
    if bad:
        raise GeometryError(f"not an isotropic line at u={np.asarray(u).tolist()}: {bad}")
    return checks


@dataclass(frozen=True)
class CongruenceAnalysis:
    """Shape operator of a congruence at one line, not necessarily symmetric.

    ``line`` is the pair (A_0, A_1) at u and ``screen`` the (n-2, n+2) rows
    e_i, orthonormal under the ambient form and orthogonal to the line, on
    which the operator's coordinates are read.  ``transversal_form`` holds
    omega_0^n = -<d_a A_0, A_1> per parameter direction a.  ``diagnostics``
    holds the largest |<dA_0, A_0>| ("w0np1") and |<dA_1, A_1>| ("w1n"),
    both zero for null A_0 and A_1, and the largest |<dA_0, A_1> +
    <dA_1, A_0>| ("transversal_consistency"), zero since <A_0, A_1> = 0.
    """

    u: np.ndarray
    shape_operator: np.ndarray
    transversal_shift: np.ndarray
    symmetry_defect: float
    roots: tuple
    line: tuple
    screen: np.ndarray
    transversal_form: np.ndarray
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


def _dependent(u: np.ndarray) -> DegenerateBasisError:
    return DegenerateBasisError(
        f"basis forms are dependent at u={u.tolist()}; "
        "the family is not a congruence there"
    )


def _line_jet(cong: IsotropicCongruence, u: np.ndarray, model: AmbientModel, step: float):
    """Validated line (A_0, A_1) at u with dA_0 and dA_1 across the parameter
    directions.  The basis forms are the components of dA_0 off the line, so
    the rows of dA_0 must be independent modulo span(A_0, A_1): otherwise the
    family is not a congruence at u."""
    a0, a1 = cong.line_at(u)
    _line_checks(u, a0, a1, model)
    da0, da1 = _line_differentials(cong, u, np.eye(cong.params), step)
    if not (np.isfinite(da0).all() and np.isfinite(da1).all()):
        raise GeometryError(f"non-finite line differentials at u={u.tolist()}")
    if orthonormal_rows(np.vstack([a0, a1, da0])).shape[0] < cong.params + 2:
        raise _dependent(u)
    return a0, a1, da0, da1


def _transversal(da0: np.ndarray, a1: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """omega_0^n = -<dA_0, A_1> per parameter direction."""
    return -(da0 @ (gram @ a1))


def transversal_form(cong: IsotropicCongruence, u, model: Optional[AmbientModel] = None,
                     step: float = DEFAULT_STEP) -> np.ndarray:
    """Coefficients of the transversal form omega_0^n = -<d_a A_0, A_1> per
    parameter direction a at u, with the checks ``congruence_affinor`` makes
    before its shape operator (a valid isotropic line, independent basis
    forms), so both raise the same error at the same points."""
    if model is None:
        model = AmbientModel.standard(cong.n)
    u = np.asarray(u, dtype=float)
    _, a1, da0, _ = _line_jet(cong, u, model, step)
    return _transversal(da0, a1, model.form.gram)


def congruence_affinor(
    cong: IsotropicCongruence,
    u,
    model: Optional[AmbientModel] = None,
    step: float = DEFAULT_STEP,
) -> CongruenceAnalysis:
    """Shape operator and transversal shift of the congruence at u.

    The screen components <d_a A_0, e_i> and the transversal form
    -<d_a A_0, A_1> across the n-1 parameter directions form the basis-form
    matrix; solving it against the screen components <d_a A_1, e_i> yields
    the operator and the transversal shift.  Dependent basis forms mean the
    family is not a congruence at u.
    """
    if model is None:
        model = AmbientModel.standard(cong.n)
    u = np.asarray(u, dtype=float)
    a0, a1, da0, da1 = _line_jet(cong, u, model, step)

    n = cong.n
    gram = model.form.gram
    screen = build_screen(_line_screen_candidates(a0, a1, model), model, count=n - 2)
    c0 = null_frame_coordinates(da0, (a0, a1), screen, gram)
    c1 = null_frame_coordinates(da1, (a0, a1), screen, gram)
    # the same expression as transversal_form, so both give the same bits
    e_form = _transversal(da0, a1, gram)
    diagnostics = {
        "w0np1": float(np.abs(c0[:, n - 1]).max()),
        "w1n": float(np.abs(c1[:, n - 2]).max()),
        "transversal_consistency": float(np.abs(c1[:, n - 1] + e_form).max()),
    }

    try:
        unknowns = solve(np.hstack([c0[:, : n - 2], e_form[:, None]]), c1[:, : n - 2])
    except DegenerateBasisError as exc:
        raise _dependent(u) from exc
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
        line=(a0, a1),
        screen=screen,
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
            a0, a1 = an.line
            point = ProjectivePoint(a1 + root.real_value * a0)
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


def _kernel_projection(e: np.ndarray, ref: np.ndarray) -> tuple:
    """ref projected on the kernel of the transversal form e in closed form,
    ref - <e_hat, ref> e_hat, and the projection's norm."""
    norm = math.sqrt(float(e @ e))
    if norm < 1e-12:
        raise DegenerateBasisError("transversal form vanishes; distribution undefined")
    e_hat = e / norm
    d = ref - float(e_hat @ ref) * e_hat
    return d, math.sqrt(float(d @ d))


def _transversal_kernel_basis(e: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the parameter directions annihilated by the
    transversal form e: the projections of the unit directions."""
    basis = orthonormal_rows([_kernel_projection(e, row)[0] for row in np.eye(len(e))])
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
    The swept point set is classified against the lightlike criterion, all
    its induced metrics in one stacked Jacobi pass, and the surviving
    fraction reported.  Only the seed gets the full shape
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
        d, norm = _kernel_projection(form_at(u), ref)
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
            for k in range(1, basis0.shape[0]):
                ref, nrm = _kernel_projection(form_at(point), basis0[k])
                if nrm < 1e-10:
                    continue
                ref = ref / nrm
                cross += rk4_run(point, -ref, count) + rk4_run(point, ref, count)
        lattice += cross

    lines = tuple((*cong.line_at(p),) for p in lattice)

    # classify the swept point set: at each lattice point, the leaf's tangent
    # directions are the kernel of the transversal form, so the swept
    # hypersurface tangent space is spanned by the corresponding directional
    # derivatives of X(s) = A_0 + s A_1 together with the line direction A_1;
    # all induced metrics go through one stacked Jacobi pass
    samples = np.asarray(line_samples, dtype=float)[:, None, None]
    tangents = []
    for p, (_, a1_p) in zip(lattice, lines):
        try:
            basis_p = _transversal_kernel_basis(form_at(p))
        except GeometryError:
            continue
        deriv0, deriv1 = _line_differentials(cong, p, basis_p, step)
        swept = deriv0 + samples * deriv1
        line_dir = np.broadcast_to(a1_p, (len(samples), 1, len(a1_p)))
        tangents.append(np.concatenate([swept, line_dir], axis=1))
    good = total = 0
    if tangents:
        tangents = np.concatenate(tangents)
        w, _ = jacobi_eigh(_pullback(np.swapaxes(tangents, 1, 2), model.form.gram))
        _, minus, zero, _ = _inertia(w, 1e-4)
        total = len(w)
        good = int(((minus == 0) & (zero == 1)).sum())
    fraction = good / total if total else 0.0
    return LeafTrace(
        seed=tuple(float(x) for x in seed),
        parameters=tuple(tuple(float(x) for x in p) for p in lattice),
        lines=lines,
        lightlike_fraction=fraction,
        step=step,
        truncated=truncated,
    )
