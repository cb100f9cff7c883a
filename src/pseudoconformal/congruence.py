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
the shape operator builds the screen e_i.  Lines are checked, and screens
built, for a whole grid at once: ``_line_checks`` and ``build_screen`` take
a leading batch axis.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AmbientModel, ProjectivePoint, lift_point, lift_tangent
from .errors import ConvergenceError, DegenerateBasisError, GeometryError, NonIntegrableError
from .frames import _line_screen_candidates, _screen_error, build_screen, null_frame_coordinates
from .hypersurface import (_evaluate_stack, _evaluation_error, _inertia, _pullback,
                           parameter_grid)
from .linalg import _dots, char_roots, jacobi_eigh, orthonormal_rows, solve

DEFAULT_STEP = 1e-4

#: defect below which a congruence counts as normal (integrable)
INTEGRABILITY_TOL = 1e-6


@dataclass(frozen=True)
class IsotropicCongruence:
    """An (n-1)-parameter family of null lines on the quadric.

    ``line`` maps a parameter vector to a pair of homogeneous vectors
    spanning the line; both must lie on the quadric and pair to zero.
    ``lines`` is its optional broadcasting twin: it maps a stack of
    parameter vectors (N, n-1) to the pairs (N, 2, n+2), each member with
    the bits of ``line``.  ``line_at`` evaluates one point, as a stack, with
    floating point warnings off.
    """

    n: int
    domain: tuple
    line: Callable[[np.ndarray], tuple]
    name: str = ""
    lines: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def params(self) -> int:
        return self.n - 1

    def line_at(self, u):
        """The pair (A_0, A_1) at u, or for a stack of parameter vectors
        (N, n-1) the pairs (N, 2, n+2) and the failures {index: exception}
        of ``hypersurface._evaluate_stack``."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            return _evaluate_stack(self.line_at, self.lines, u, (2, self.n + 2))
        with np.errstate(all="ignore"):
            a0, a1 = self.line(u)
        return np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)

    @classmethod
    def from_null_lines(cls, n, domain, base_point, direction, name="",
                        model: Optional[AmbientModel] = None, base_points=None,
                        directions=None):
        """Build from Lorentzian data: a base point field p(u) and a null
        direction field l(u); the line through p with direction l lifts to
        the quadric line spanned by the images of p and of the direction.
        Broadcasting twins ``base_points`` and ``directions`` of the two
        fields, given together, make ``lines`` one stacked lift; fields that
        broadcast over leading axes, as the catalog's do, may be passed as
        their own twins."""
        if (base_points is None) != (directions is None):
            raise ValueError("base_points and directions are given together or not at all")
        if model is None:
            model = AmbientModel.standard(n)

        def line(u):
            p = np.asarray(base_point(u), dtype=float)
            l = np.asarray(direction(u), dtype=float)
            return lift_point(p, model), lift_tangent(p, l, model)

        def lines(us):
            p = np.asarray(base_points(us), dtype=float)
            return np.stack([lift_point(p, model), lift_tangent(p, directions(us), model)], axis=1)

        return cls(n=n, domain=domain, line=line, name=name,
                   lines=None if base_points is None else lines)

    def validate(self, u, model: Optional[AmbientModel] = None, tol: float = 1e-10):
        """The residuals of the line at u by name, or the GeometryError it
        fails with: the one-point case of ``_line_checks``."""
        if model is None:
            model = AmbientModel.standard(self.n)
        residuals, failures = _line_checks(np.asarray(u, dtype=float)[None],
                                           *(x[None] for x in self.line_at(u)), model, tol)
        if failures:
            raise failures[0]
        return {key: float(r) for key, r in zip(_LINE_CHECKS, residuals[0])}


_LINE_CHECKS = ("base_on_quadric", "direction_on_quadric", "conjugate")


def _line_checks(us: np.ndarray, a0: np.ndarray, a1: np.ndarray, model: AmbientModel,
                 tol: float = 1e-10) -> tuple:
    """Relative quadric and conjugacy residuals (N, 3), named by
    ``_LINE_CHECKS``, of the lines (A_0, A_1) (N, n+2) at us (N, d), and the
    failures: index -> GeometryError naming u for each line that is not
    finite, is zero or has a residual beyond tol."""
    finite = (np.isfinite(a0) & np.isfinite(a1)).all(axis=1)
    a0, a1 = np.where(finite[:, None], a0, 0.0), np.where(finite[:, None], a1, 0.0)
    g = model.form.gram
    scale2 = np.maximum(_dots(a0, a0), _dots(a1, a1))
    pairs = np.stack([_dots(a0 @ g, a0), _dots(a1 @ g, a1), _dots(a0 @ g, a1)], axis=1)
    residuals = np.abs(pairs) / np.where(scale2 > 0.0, scale2, 1.0)[:, None]
    failures = {}
    for i in np.flatnonzero(~finite | (scale2 == 0.0) | (residuals > tol).any(axis=1)).tolist():
        why = ("non-finite coordinates" if not finite[i] else
               "zero coordinates" if scale2[i] == 0.0 else
               {k: float(r) for k, r in zip(_LINE_CHECKS, residuals[i]) if r > tol})
        failures[i] = GeometryError(f"not an isotropic line at u={us[i].tolist()}: {why}")
    return residuals, failures


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


#: ``_line_jets`` of N points: A_0, A_1 (N, n+2), dA_0, dA_1 (N, d, n+2) and forms
#: (N, d), all zero at a failed point, and the failures (index -> exception)
_LineJets = namedtuple("_LineJets", "a0 a1 da0 da1 forms failures")


def _dependent(u: np.ndarray) -> DegenerateBasisError:
    return DegenerateBasisError(f"basis forms are dependent at u={u.tolist()}; "
                                "the family is not a congruence there")


def _line_jets(cong: IsotropicCongruence, us: np.ndarray, model: AmbientModel,
               step: float) -> _LineJets:
    """Lines at the parameter points us (N, d), their central differences
    and transversal forms omega_0^n = -<d_a A_0, A_1>, from one stacked
    ``line_at`` call at every point and its neighbours u +- step e_a.  A
    point fails with the first of: its own evaluation, its line checks, its
    neighbours' evaluations (+e_0, -e_0, +e_1, ...), non-finite differentials,
    dependent basis forms (rows of dA_0 dependent modulo the line).  An
    evaluator's ValueError or ArithmeticError becomes a GeometryError naming
    the point.  Non-finite members are masked before any arithmetic, and no
    point depends on the rest of its stack."""
    count, d = us.shape
    width = 2 * d + 1
    stencil = np.repeat(us[:, None], width, axis=1)
    stencil[:, 1::2] += step * np.eye(d)
    stencil[:, 2::2] -= step * np.eye(d)
    lines, failed = cong.line_at(stencil.reshape(-1, d))
    lines = lines.reshape(count, width, 2, cong.n + 2)
    raised = {}
    for f, exc in failed.items():
        i, k = divmod(f, width)
        raised.setdefault(i, {})[k] = _evaluation_error(stencil[i, k], exc)
    failures = _line_checks(us, lines[:, 0, 0], lines[:, 0, 1], model)[1]
    for i, at in raised.items():
        if 0 in at or i not in failures:
            failures[i] = at[min(at)]

    live = np.isfinite(lines[:, 1:]).all(axis=(1, 2, 3))
    live[list(failures)] = False
    diffs = np.where(live[:, None, None, None], lines[:, 1:], 0.0)
    diffs = (diffs[:, 0::2] - diffs[:, 1::2]) / (2.0 * step)
    live &= np.isfinite(diffs).all(axis=(1, 2, 3))
    for i in np.flatnonzero(~live):
        failures.setdefault(i, GeometryError(
            f"non-finite line differentials at u={us[i].tolist()}"))
    idx = np.flatnonzero(live)
    _, ranks = orthonormal_rows(np.concatenate([lines[idx, 0], diffs[idx, :, 0]], axis=1))
    for i in idx[ranks < d + 2]:
        failures[i], live[i] = _dependent(us[i]), False
    lines[~live], diffs[~live] = 0.0, 0.0
    forms = -(diffs[:, :, 0] @ (model.form.gram @ lines[:, 0, 1, :, None]))[..., 0]
    return _LineJets(lines[:, 0, 0], lines[:, 0, 1], diffs[:, :, 0], diffs[:, :, 1], forms,
                     failures)


def _congruence_affinors(cong: IsotropicCongruence, us: np.ndarray, model: AmbientModel) -> list:
    """The CongruenceAnalysis of every parameter point of us (N, params), or
    the exception it raises: one ``_line_jets`` pass, one stacked screen pass
    (``build_screen``) and one stacked pairing pass, then each point's
    basis-form solve and roots, failing at the first step that fails.  A
    point gets the same bits in any stack."""
    n, gram = cong.n, model.form.gram
    jets = _line_jets(cong, us, model, DEFAULT_STEP)
    results = [jets.failures.get(i) for i in range(len(us))]
    live = np.array([i for i, r in enumerate(results) if r is None], dtype=int)
    screens, counts = build_screen(_line_screen_candidates(jets.a0[live], jets.a1[live], model),
                                   model, count=n - 2)
    for j in np.flatnonzero(counts < n - 2).tolist():
        results[live[j]] = _screen_error(n - 2, counts[j])
    screens, live = screens[counts == n - 2], live[counts == n - 2]
    line = (jets.a0[live], jets.a1[live])
    c0 = null_frame_coordinates(jets.da0[live], line, screens, gram)
    c1 = null_frame_coordinates(jets.da1[live], line, screens, gram)
    for j, i in enumerate(live):
        e_form = jets.forms[i]
        try:
            unknowns = solve(np.hstack([c0[j, :, : n - 2], e_form[:, None]]), c1[j, :, : n - 2])
            lam = unknowns[: n - 2].T
            roots = tuple(char_roots(lam)) if lam.size else ()
        except DegenerateBasisError:  # from the solve
            results[i] = _dependent(us[i])
            continue
        except ConvergenceError as exc:
            results[i] = exc
            continue
        results[i] = CongruenceAnalysis(
            u=us[i].copy(), shape_operator=lam, transversal_shift=unknowns[n - 2],
            symmetry_defect=float(np.abs(lam - lam.T).max()) if lam.size else 0.0,
            roots=roots, line=(jets.a0[i], jets.a1[i]), screen=screens[j], transversal_form=e_form,
            diagnostics={"w0np1": float(np.abs(c0[j, :, n - 1]).max()),
                         "w1n": float(np.abs(c1[j, :, n - 2]).max()),
                         "transversal_consistency": float(np.abs(c1[j, :, n - 1] + e_form).max())})
    return results


def congruence_affinor(cong: IsotropicCongruence, u,
                       model: Optional[AmbientModel] = None) -> CongruenceAnalysis:
    """Shape operator and transversal shift of the congruence at u.

    The screen components <d_a A_0, e_i> and the transversal form
    -<d_a A_0, A_1> across the n-1 parameter directions form the basis-form
    matrix; solving it against the screen components <d_a A_1, e_i> yields
    the operator and the transversal shift.  Dependent basis forms mean the
    family is not a congruence at u.  This is the one-point case of the grid
    engine of ``integrability_defect`` and the CLI, with the same bits.
    """
    if model is None:
        model = AmbientModel.standard(cong.n)
    result = _congruence_affinors(cong, np.asarray(u, dtype=float)[None], model)[0]
    if isinstance(result, Exception):
        raise result
    return result


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


def integrability_defect(cong: IsotropicCongruence, grid_counts: Sequence[int],
                         model: Optional[AmbientModel] = None) -> float:
    """Largest symmetry defect of the shape operator over a parameter grid;
    near zero the congruence is normal and stratifies."""
    if model is None:
        model = AmbientModel.standard(cong.n)
    results = _congruence_affinors(cong, parameter_grid(cong, grid_counts)[1], model)
    for an in results:
        if isinstance(an, Exception):
            raise an
    return max([0.0] + [an.symmetry_defect for an in results])


@dataclass(frozen=True)
class LeafTrace:
    """A sampled leaf of the transversal distribution through a seed line."""

    seed: tuple
    parameters: tuple  # sampled parameter points
    lines: tuple  # (A_0, A_1) pairs matching parameters
    lightlike_fraction: float
    step: float
    truncated: bool = False  # a run stopped early at the domain boundary


def _kernel_projections(forms: np.ndarray, refs: np.ndarray) -> tuple:
    """Each ref (N, d) projected on the kernel of its transversal form (N, d)
    in closed form, ref - <e_hat, ref> e_hat, the projections' norms, and
    whether each form vanishes."""
    norms = np.sqrt(_dots(forms, forms))
    vanishing = norms < 1e-12
    e_hat = forms / np.where(vanishing, 1.0, norms)[:, None]
    d = refs - _dots(e_hat, refs)[:, None] * e_hat
    return d, np.sqrt(_dots(d, d)), vanishing


def _kernel_bases(forms: np.ndarray) -> tuple:
    """Orthonormal bases (N, d-1, d) of the kernels of transversal forms
    (N, d), from the projections of the unit directions, and whether each is
    one (the form does not vanish and the projections have rank d-1)."""
    count, d = forms.shape
    projections, _, vanishing = _kernel_projections(np.repeat(forms, d, axis=0),
                                                    np.tile(np.eye(d), (count, 1)))
    bases, ranks = orthonormal_rows(projections.reshape(count, d, d))
    return bases[:, : d - 1], ~vanishing[::d] & (ranks == d - 1)


def _rk4_runs(cong: IsotropicCongruence, starts: np.ndarray, refs: np.ndarray,
              model: AmbientModel, step: float, count: int) -> tuple:
    """March runs from starts (R, d) along the kernel of the transversal form
    by classical fourth-order stepping, carrying each direction, first refs
    (R, d), by projection, for ``count`` steps or until a run leaves the
    domain.  The runs go in lockstep: each stage is one ``_line_jets`` pass
    over the runs still going, and a last pass visits their end points.  A
    failed line jet, a vanishing form or a direction off the kernel raises.
    Returns per run the (point, line jets, index) of its start and of each
    point reached, and whether a run left the domain."""
    lo, hi = np.array(cong.domain, dtype=float).T
    u, ref = starts.copy(), refs.copy()
    going, visits, truncated = np.arange(len(u)), [[] for _ in u], False
    ks = np.zeros((4,) + u.shape)
    for n_step in range(count + 1):
        if not going.size:
            break
        for stage, weight in enumerate((0.0, 0.5, 0.5, 1.0)):
            prev = ref if stage == 0 else ks[stage - 1]
            stack = _line_jets(cong, u[going] + weight * step * prev[going] if stage else u[going],
                               model, DEFAULT_STEP)
            if stack.failures:
                raise stack.failures[min(stack.failures)]
            if stage == 0:
                for j, r in enumerate(going):
                    visits[r].append((u[r].copy(), stack, j))
            if n_step == count:
                return visits, truncated
            d, norms, vanishing = _kernel_projections(stack.forms, prev[going])
            if vanishing.any():
                raise DegenerateBasisError("transversal form vanishes; distribution undefined")
            if (norms < 1e-10).any():
                raise DegenerateBasisError("transport direction left the distribution kernel")
            ks[stage, going] = d / norms[:, None]
        u[going] = u[going] + (step / 6.0) * (ks[0, going] + 2 * ks[1, going]
                                              + 2 * ks[2, going] + ks[3, going])
        outside = np.any(u[going] < lo - 1e-9, axis=1) | np.any(u[going] > hi + 1e-9, axis=1)
        truncated |= bool(outside.any())
        going = going[~outside]
        ref[going] = ks[0, going]
    return visits, truncated


def stratify(cong: IsotropicCongruence, seed, model: Optional[AmbientModel] = None,
             step: float = 1e-2, count: int = 40, tol: float = INTEGRABILITY_TOL,
             line_samples: Sequence[float] = (-0.5, 0.0, 0.5, 1.0)) -> LeafTrace:
    """Integrate the leaf of the transversal distribution through ``seed``.

    Steps are projected onto the kernel of the transversal form at every
    integrator stage (classical fourth-order stepping).  The leaf is sampled
    on a lattice of kernel directions: a spine along the first direction and,
    for higher screen dimension, transversal runs from every spine point.
    The two spine runs, then all transversal runs, advance in lockstep
    (``_rk4_runs``), and each lattice point reads its line jets from the first
    stage of its step.  The swept point set is classified against the
    lightlike criterion in one stacked Jacobi pass, and the surviving
    fraction reported.  Only the seed gets the full shape operator, whose
    symmetry defect decides integrability.
    """
    if model is None:
        model = AmbientModel.standard(cong.n)
    seed = np.asarray(seed, dtype=float)
    an0 = congruence_affinor(cong, seed, model=model)
    if an0.symmetry_defect > tol * (1.0 + float(np.abs(an0.shape_operator).max(initial=0.0))):
        raise NonIntegrableError("congruence is not integrable near the seed "
                                 f"(symmetry defect {an0.symmetry_defect:.3e})")
    bases, valid = _kernel_bases(an0.transversal_form[None])
    if not valid[0]:
        raise DegenerateBasisError("transversal form has no kernel of codimension 1 at the seed")
    basis0 = bases[0]

    (back, ahead), truncated = _rk4_runs(cong, np.array([seed, seed]),
                                         np.array([-basis0[0], basis0[0]]), model, step, count)
    lattice = back[:0:-1] + back[:1] + ahead[1:]
    if len(basis0) > 1:
        # from every spine point a pair of runs (-ref, +ref) along each further
        # kernel direction projected off the point's form, if anything is left
        others = len(basis0) - 1
        d, norms, vanishing = _kernel_projections(
            np.repeat([stack.forms[i] for _, stack, i in lattice], others, axis=0),
            np.tile(basis0[1:], (len(lattice), 1)))
        if vanishing.any():
            raise DegenerateBasisError("transversal form vanishes; distribution undefined")
        keep = norms >= 1e-10
        refs = d[keep] / norms[keep, None]
        runs, cross_truncated = _rk4_runs(
            cong, np.repeat(np.repeat([p for p, _, _ in lattice], others, axis=0)[keep], 2, axis=0),
            np.stack([-refs, refs], axis=1).reshape(-1, len(seed)), model, step, count)
        truncated |= cross_truncated
        lattice += [visit for run in runs for visit in run[1:]]

    # classify the swept point set: the leaf's tangent directions at a point
    # are the kernel of its transversal form, so the swept tangent space is
    # spanned by the derivatives of X(s) = A_0 + s A_1 along them (combined
    # from those along the parameter directions) and the line direction A_1
    forms, da0, da1, a1 = (np.array(x) for x in zip(*[
        (stack.forms[i], stack.da0[i], stack.da1[i], stack.a1[i]) for _, stack, i in lattice]))
    bases, valid = _kernel_bases(forms)
    bases, da0, da1, a1 = bases[valid], da0[valid], da1[valid], a1[valid]
    samples = np.asarray(line_samples, dtype=float)[:, None, None]
    swept = (bases @ da0)[:, None] + samples * (bases @ da1)[:, None]
    line_dir = np.broadcast_to(a1[:, None, None], swept.shape[:2] + (1, a1.shape[1]))
    tangents = np.concatenate([swept, line_dir], axis=2).reshape(-1, len(seed), a1.shape[1])
    w, _ = jacobi_eigh(_pullback(np.swapaxes(tangents, 1, 2), model.form.gram))
    _, minus, zero, _ = _inertia(w, 1e-4)
    good = int(((minus == 0) & (zero == 1)).sum())
    return LeafTrace(
        seed=tuple(float(x) for x in seed),
        parameters=tuple(tuple(float(x) for x in p) for p, _, _ in lattice),
        lines=tuple((stack.a0[i], stack.a1[i]) for _, stack, i in lattice),
        lightlike_fraction=good / len(w) if len(w) else 0.0, step=step, truncated=truncated)
