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
from itertools import accumulate, product
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AmbientModel, ProjectivePoint, _lift_lines, _singular_coords
from .errors import ConvergenceError, DegenerateBasisError, GeometryError, NonIntegrableError
from .frames import _line_screen_candidates, _screen_error, build_screen, null_frame_coordinates
from .hypersurface import (DEFAULT_STEP, _central, _evaluate_stack, _evaluation_error, _pullback,
                           _stencil_offsets, parameter_grid)
from .lightlike import SYMMETRY_TOL
from .linalg import (MAX_ROOT_ORDER, _cluster, _dots, _durand_kerner, _faddeev_leverrier, _inertia,
                     _root_records, _roots, _solve, jacobi_eigh, orthonormal_rows)

#: defect below which a congruence counts as normal (integrable)
INTEGRABILITY_TOL = 1e-6


@dataclass(frozen=True)
class IsotropicCongruence:
    """An (n-1)-parameter family of null lines on the quadric.

    ``line`` maps a parameter vector to a pair of homogeneous vectors
    spanning the line; both must lie on the quadric and pair to zero.
    ``broadcasts`` states that ``line`` also maps a stack of parameter
    vectors (N, n-1) to the pairs (N, 2, n+2), each member with the bits of
    its point alone; else a stack is evaluated point by point.  ``line_at``
    evaluates one point, as a stack, with floating point warnings off.
    """

    n: int
    domain: tuple
    line: Callable[[np.ndarray], tuple]
    name: str = ""
    broadcasts: bool = False

    @property
    def params(self) -> int:
        return self.n - 1

    def line_at(self, u):
        """The pair (A_0, A_1) at u, or for a stack of parameter vectors
        (N, n-1) the pairs (N, 2, n+2) and the failures {index: exception}
        of ``hypersurface._evaluate_stack``."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (self.params,):
            raise ValueError(f"u must have params={self.params} entries, got "
                             f"{u.shape[-1] if u.ndim else 'a scalar'}")
        if u.ndim == 2:
            return _evaluate_stack(self.line_at, self.line if self.broadcasts else None, u,
                                   (2, self.n + 2))
        with np.errstate(all="ignore"):
            a0, a1 = self.line(u)
        return np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)

    @classmethod
    def from_null_lines(cls, n, domain, base_point, direction, name=""):
        """Build from Lorentzian data: a base point field p(u) and a null
        direction field l(u); the line through p with direction l lifts to
        the quadric line spanned by the images of p and of the direction.
        The congruence does not broadcast: it is evaluated point by point."""
        model = AmbientModel.standard(n)
        return cls(n=n, domain=domain, name=name,
                   line=lambda u: tuple(_lift_lines(base_point(u), direction(u), model)))

    def validate(self, u):
        """The residuals of the line at u by name, or the GeometryError it
        fails with: the one-point case of ``_line_checks``."""
        residuals, failures = _line_checks(np.asarray(u, dtype=float)[None],
                                           *(x[None] for x in self.line_at(u)),
                                           AmbientModel.standard(self.n))
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
    a0g, a1g = a0 @ model.form.gram, a1 @ model.form.gram
    scale2 = np.maximum(_dots(a0, a0), _dots(a1, a1))
    pairs = np.stack([_dots(a0g, a0), _dots(a1g, a1), _dots(a0g, a1)], axis=1)
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


#: line jets of N points, unchecked: the points us (N, d), the stencil
#: points (N, 2d+1, d) and their lines (N, 2d+1, 2, n+2), zero where an
#: evaluation failed, the evaluations' failures {index into the flattened
#: stencil: exception}, A_0, A_1 (N, n+2), dA_0, dA_1 (N, d, n+2) and forms (N, d)
_LineJets = namedtuple("_LineJets", "us stencil lines raised a0 a1 da0 da1 forms")


def _dependent(u: np.ndarray) -> DegenerateBasisError:
    return DegenerateBasisError(f"basis forms are dependent at u={u.tolist()}; "
                                "the family is not a congruence there")


def _evaluate_lines(cong: IsotropicCongruence, us: np.ndarray, offsets: np.ndarray) -> tuple:
    """The evaluate half of the line jets at the parameter points us (N, d):
    the lines (N, 2d+1, 2, n+2) of the stencil points us + offsets
    (``_stencil_offsets``) from one stacked ``line_at`` call, zero where an
    evaluation failed, and its failures."""
    lines, raised = cong.line_at((us[:, None] + offsets).reshape(-1, us.shape[1]))
    return lines.reshape((len(us), len(offsets), 2, cong.n + 2)), raised


def _stack_jets(records: list, model: AmbientModel, step: float) -> _LineJets:
    """The jets half: evaluated passes ``records`` (us, lines, raised) as one
    ``_LineJets`` stack in pass order, with the stencil points of us, raised
    keys offset by each pass's start times the stencil width, the central
    differences of (A_0, A_1) and the transversal forms omega_0^n =
    -<d_a A_0, A_1>.  Nothing is checked: a point whose evaluations failed
    has zero or non-finite jets until ``_line_failures`` rejects it."""
    us, lines = (np.concatenate(x) for x in list(zip(*records))[:2])
    stencil = us[:, None] + _stencil_offsets(us.shape[1], step)
    starts = accumulate([len(r[0]) * lines.shape[1] for r in records], initial=0)
    raised = {start + f: exc for start, r in zip(starts, records) for f, exc in r[2].items()}
    with np.errstate(all="ignore"):  # failed members only
        diffs = _central(lines[:, 1:], step)
        forms = -(diffs[:, :, 0] @ (model.form.gram @ lines[:, 0, 1, :, None]))[..., 0]
    return _LineJets(us, stencil, lines, raised, lines[:, 0, 0], lines[:, 0, 1], diffs[:, :, 0],
                     diffs[:, :, 1], forms)


def _line_failures(jets: _LineJets, model: AmbientModel) -> dict:
    """The judge of a ``_LineJets`` stack: the failures {index: exception}
    of its points.  A point fails with the first of: its own evaluation, its
    line checks, its neighbours' evaluations (+e_0, -e_0, +e_1, ...),
    non-finite differentials, dependent basis forms (rows [A_0; A_1; dA_0]
    of rank below d+2).  An evaluator's ValueError or ArithmeticError becomes
    a GeometryError naming the point.  One line check and one rank check
    cover the stack; the standard form's Gram matrix has one +-1 entry per
    row, so each residual has the bits it has in a stack of its own pass.  A
    non-finite stencil line gives a non-finite difference: one test covers both."""
    us, lines, da0, da1 = jets.us, jets.lines, jets.da0, jets.da1
    failures, raised = _line_checks(us, jets.a0, jets.a1, model)[1], {}
    for f, exc in jets.raised.items():
        i, at = divmod(f, jets.stencil.shape[1])
        raised.setdefault(i, {})[at] = _evaluation_error(jets.stencil[i, at], exc)
    for i, at in raised.items():
        if 0 in at or i not in failures:
            failures[i] = at[min(at)]
    live = np.isfinite(np.concatenate([da0, da1], axis=1)).all(axis=(1, 2))
    live[list(failures)] = False
    for i in np.flatnonzero(~live).tolist():
        failures.setdefault(i, GeometryError(
            f"non-finite line differentials at u={us[i].tolist()}"))
    ranks = orthonormal_rows(np.concatenate([lines[live, 0], da0[live]], axis=1))[1]
    failures.update({i: _dependent(us[i])
                     for i in np.flatnonzero(live)[ranks < us.shape[1] + 2].tolist()})
    return failures


_Congruences = namedtuple("_Congruences", "us members operators shifts defects roots "
                                          "multiplicities real counts a0 a1 screens forms "
                                          "diagnostics failures")


def _congruence_affinors(cong: IsotropicCongruence, us: np.ndarray,
                         model: AmbientModel) -> _Congruences:
    """The congruence analysis of the parameter points us (N, params) in
    columns over the points that pass (stack indices ``members``,
    ascending): operators (P, n-2, n-2), transversal shifts (P, n-2),
    symmetry defects, the roots of ``linalg._roots`` (values, multiplicities
    and real flags (P, n-2), counts), lines ``a0``, ``a1``, screens,
    transversal forms (P, d) and diagnostics {name: (P,)}; and the others'
    ``failures``.  One line-jet pass (``_evaluate_lines``, ``_stack_jets``),
    one stacked screen pass (``build_screen``), one stacked pairing pass,
    then one basis-form solve over the stack, one Jacobi pass over the
    symmetric operators and one characteristic polynomial and root pass over
    the others, skipped when there are none (a normal congruence's stack), a
    point failing at the first step that fails, and one
    ``linalg._cluster`` and ``linalg._roots`` pass over the roots.  A point
    gets the same bits in any stack.  Screens of dimension n-2 beyond
    ``linalg.MAX_ROOT_ORDER`` raise ValueError."""
    n, gram = cong.n, model.form.gram
    if n - 2 > MAX_ROOT_ORDER:
        raise ValueError(f"congruence roots are limited to n <= {MAX_ROOT_ORDER + 2}")
    offsets = _stencil_offsets(cong.params, DEFAULT_STEP)
    jets = _stack_jets([(us, *_evaluate_lines(cong, us, offsets))], model, DEFAULT_STEP)
    failures = _line_failures(jets, model)
    live = np.array([i for i in range(len(us)) if i not in failures], dtype=int)
    screens, counts = build_screen(_line_screen_candidates(jets.a0[live], jets.a1[live], model),
                                   model, count=n - 2)
    for j in np.flatnonzero(counts < n - 2).tolist():
        failures[int(live[j])] = _screen_error(n - 2, counts[j])
    screens, live = screens[counts == n - 2], live[counts == n - 2]
    line = (jets.a0[live], jets.a1[live])
    c0 = null_frame_coordinates(jets.da0[live], line, screens, gram)
    c1 = null_frame_coordinates(jets.da1[live], line, screens, gram)
    x, regular = _solve(np.concatenate([c0[:, :, : n - 2], jets.forms[live, :, None]], axis=2),
                        c1[:, :, : n - 2])
    failures.update({i: _dependent(us[i]) for i in live[~regular].tolist()})
    keep = np.flatnonzero(regular)
    solved = np.ascontiguousarray(np.swapaxes(x[keep], 1, 2))  # members laid out as solve's
    operators, transposed = np.swapaxes(solved[:, : n - 2], 1, 2), solved[:, : n - 2]
    defects = np.abs(operators - transposed).max(axis=(1, 2))
    # an operator that passes lightlike's symmetry test gets its roots from the
    # Jacobi spectrum of its symmetric part, which keeps multiple roots real;
    # the others from the general root iteration
    symmetric = defects <= SYMMETRY_TOL * (1.0 + np.abs(operators).max(axis=(1, 2)))
    general = np.flatnonzero(~symmetric)
    eigen = np.zeros(operators.shape[:2], dtype=complex)
    eigen[symmetric] = jacobi_eigh(0.5 * (operators + transposed)[symmetric], vectors=0)[0]
    unconverged = general[:0]
    if len(general):  # none in a normal congruence's stack
        eigen[general], residual, converged = _durand_kerner(
            _faddeev_leverrier(np.swapaxes(solved[general][:, : n - 2], 1, 2)).astype(complex))
        unconverged = general[~converged]
        for i, r in zip(live[keep[unconverged]].tolist(), residual[~converged].tolist()):
            failures[i] = ConvergenceError(f"root iteration did not converge at "
                                           f"u={us[i].tolist()} (residual {r:.3e})", residual=r)
    done = np.delete(np.arange(len(keep)), unconverged)
    means, mults, root_counts = _cluster(-eigen[done])
    j = keep[done]
    members, c0, c1 = live[j], c0[j], c1[j]
    forms = jets.forms[members]
    return _Congruences(
        us, members, operators[done], solved[done, n - 2], defects[done],
        *_roots(means, mults, root_counts), root_counts, jets.a0[members], jets.a1[members],
        screens[j], forms,
        {"w0np1": np.abs(c0[:, :, n - 1]).max(axis=1), "w1n": np.abs(c1[:, :, n - 2]).max(axis=1),
         "transversal_consistency": np.abs(c1[:, :, n - 1] + forms).max(axis=1)}, failures)


def congruence_affinor(cong: IsotropicCongruence, u) -> CongruenceAnalysis:
    """Shape operator and transversal shift of the congruence at u.

    The screen components <d_a A_0, e_i> and the transversal form
    -<d_a A_0, A_1> across the n-1 parameter directions form the basis-form
    matrix; solving it against the screen components <d_a A_1, e_i> yields
    the operator and the transversal shift.  Dependent basis forms mean the
    family is not a congruence at u.  This is the one-point case of the grid
    engine of ``integrability_defect`` and the CLI, with the same bits.
    """
    return _member_analysis(_congruence_affinors(cong, np.asarray(u, dtype=float)[None],
                                                 AmbientModel.standard(cong.n)), 0)


def _member_analysis(c: _Congruences, i: int) -> CongruenceAnalysis:
    """The CongruenceAnalysis of stack member i of ``_congruence_affinors``
    columns, or the exception it failed with raised.  Only here are the
    ``Root`` records of its roots built."""
    if i in c.failures:
        raise c.failures[i]
    j = int(np.searchsorted(c.members, i))
    return CongruenceAnalysis(
        u=c.us[i].copy(), shape_operator=c.operators[j], transversal_shift=c.shifts[j],
        symmetry_defect=float(c.defects[j]),
        roots=tuple(_root_records(c.roots[j], c.multiplicities[j], c.real[j])),
        line=(c.a0[j], c.a1[j]), screen=c.screens[j], transversal_form=c.forms[j],
        diagnostics={key: float(value[j]) for key, value in c.diagnostics.items()})


@dataclass(frozen=True)
class CongruenceSingularPoint:
    x: complex
    is_real: bool
    multiplicity: int
    point: Optional[ProjectivePoint]


def congruence_singular_points(an: CongruenceAnalysis) -> list:
    """All characteristic roots with multiplicity; real roots carry the
    singular point X = A_1 + x A_0 of the line, complex roots carry none."""
    coords = iter(_singular_coords(*an.line, np.array([r.real_value for r in an.roots
                                                       if r.is_real])))
    return [CongruenceSingularPoint(x=root.value, is_real=root.is_real,
                                    multiplicity=root.multiplicity,
                                    point=ProjectivePoint(next(coords)) if root.is_real else None)
            for root in an.roots]


def integrability_defect(cong: IsotropicCongruence, grid_counts: Sequence[int]) -> float:
    """Largest symmetry defect of the shape operator over a parameter grid;
    near zero the congruence is normal and stratifies."""
    c = _congruence_affinors(cong, parameter_grid(cong, grid_counts)[1],
                             AmbientModel.standard(cong.n))
    if c.failures:
        raise c.failures[min(c.failures)]
    return max([0.0] + c.defects.tolist())


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
    e_hat = forms / np.maximum(norms, vanishing)[:, None]  # 1.0 where vanishing
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


def _domain_bounds(cong: IsotropicCongruence) -> tuple:
    """The domain's lower and upper bounds (d,), widened by the march's 1e-9."""
    lo, hi = np.array(cong.domain, dtype=float).T
    return lo - 1e-9, hi + 1e-9


def _rk4_runs(cong: IsotropicCongruence, starts: np.ndarray, refs: np.ndarray,
              model: AmbientModel, step: float, count: int) -> tuple:
    """March runs from starts (R, d) along the kernel of the transversal form
    by classical fourth-order stepping, carrying each direction, first refs
    (R, d), by projection, for ``count`` steps or until a run leaves the
    domain (``_domain_bounds``).  The runs go in lockstep, and a last pass
    visits their end points.  The march holds only the runs still going,
    compacted when one leaves the domain.  A stage makes one ``line_at``
    call over the stencils of its points, from offsets fetched once
    (``_evaluate_lines``), and steps on the transversal forms, from the
    differences of A_0 only: a vanishing form or a direction off its kernel
    raises at once.  A pass whose evaluations failed ends the march.  At its
    end, or before anything is raised, the passes are one ``_stack_jets``
    stack in pass order, judged by one ``_line_failures`` call: what is
    raised is what checking each pass at once raised, the failure of the
    earliest failing pass at its lowest member.  Returns per run the (point,
    stack, index) of its start and of each point reached, and whether a run
    left the domain."""
    (lo, hi), offsets = _domain_bounds(cong), _stencil_offsets(cong.params, DEFAULT_STEP)
    u, ref, runs, ks = starts.copy(), refs.copy(), np.arange(len(starts)), [None] * 4
    visits, records, size, truncated, error = [[] for _ in starts], [], 0, False, None
    try:
        with np.errstate(all="ignore"):  # members that failed are zero or NaN until judged
            for n_step, (stage, weight) in product(range(count + 1),
                                                   enumerate((0.0, 0.5, 0.5, 1.0))):
                if not len(runs):
                    break
                prev = ks[stage - 1] if stage else ref
                points = u + weight * step * prev if stage else u
                lines, raised = _evaluate_lines(cong, points, offsets)
                records.append((points, lines, raised))
                if raised:  # this pass fails, as the judge will say
                    break
                if stage == 0:
                    for j, r in enumerate(runs.tolist()):
                        visits[r].append(size + j)
                size += len(points)
                if n_step == count:
                    break
                forms = -(_central(lines[:, 1:, 0], DEFAULT_STEP)
                          @ (model.form.gram @ lines[:, 0, 1, :, None]))[..., 0]
                projected, norms, vanishing = _kernel_projections(forms, prev)
                if (vanishing | (norms < 1e-10)).any():  # named at the first failing member
                    bad, why = ((vanishing, "transversal form vanishes at u={}; distribution "
                                 "undefined") if vanishing.any() else
                                (norms < 1e-10, "transport direction left the distribution "
                                 "kernel at u={}"))
                    raise DegenerateBasisError(why.format(points[bad.argmax()].tolist()))
                ks[stage] = projected / norms[:, None]
                if stage == 3:  # a full step, not the visit of the end points
                    u = u + (step / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
                    outside = (u < lo) | (u > hi)
                    if outside.any():
                        inside = ~outside.any(axis=1)
                        truncated, u, runs, ks[0] = True, u[inside], runs[inside], ks[0][inside]
                    ref = ks[0]
    except Exception as exc:
        error = exc
    jets = _stack_jets(records, model, DEFAULT_STEP) if records else None
    failures = _line_failures(jets, model) if records else {}
    if failures or error:
        raise failures[min(failures)] if failures else error
    return [[(jets.us[i], jets, i) for i in run] for run in visits], truncated


def stratify(cong: IsotropicCongruence, seed, step: float = 1e-2, count: int = 40,
             tol: float = INTEGRABILITY_TOL,
             line_samples: Sequence[float] = (-0.5, 0.0, 0.5, 1.0)) -> LeafTrace:
    """Integrate the leaf of the transversal distribution through ``seed``,
    a parameter point or the ``CongruenceAnalysis`` at one (the CLI reads it
    from its grid's engine pass), which is then not analysed again.

    Steps are projected onto the kernel of the transversal form at every
    integrator stage (classical fourth-order stepping).  The leaf is sampled
    on a lattice of kernel directions: a spine along the first direction and,
    for higher screen dimension, transversal runs from every spine point.
    The two spine runs, then all transversal runs, advance in lockstep
    (``_rk4_runs``): a stage evaluates lines and steps on the transversal
    forms only, and each march is judged as one stack of its passes in pass
    order.  Each lattice point reads its line jets by index
    from its march's stack, at the first stage of its step.  The swept point
    set is classified against the lightlike criterion in one stacked Jacobi
    pass, and the surviving fraction reported.  Only the seed gets the full
    shape operator, whose symmetry defect decides integrability.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"stratify count must be a non-negative integer, got {count!r}")
    model = AmbientModel.standard(cong.n)
    an0 = seed if isinstance(seed, CongruenceAnalysis) else congruence_affinor(cong, seed)
    seed = an0.u
    if an0.symmetry_defect > tol * (1.0 + float(np.abs(an0.shape_operator).max(initial=0.0))):
        raise NonIntegrableError("congruence is not integrable near the seed "
                                 f"(symmetry defect {an0.symmetry_defect:.3e})")
    bases, valid = _kernel_bases(an0.transversal_form[None])
    if not valid[0]:
        raise DegenerateBasisError("transversal form has no kernel of codimension 1 at the seed")
    basis0 = bases[0]

    (back, ahead), truncated = _rk4_runs(cong, np.array([seed, seed]),
                                         np.array([-basis0[0], basis0[0]]), model, step, count)
    spine = back[:0:-1] + back[:1] + ahead[1:]
    columns = [(spine[0][1], np.array([i for _, _, i in spine]))]  # (stack, lattice indices)
    if len(basis0) > 1:
        # from every spine point a pair of runs (-ref, +ref) along each further
        # kernel direction projected off the point's form, if anything is left
        (jets, at), others = columns[0], len(basis0) - 1
        d, norms, vanishing = _kernel_projections(np.repeat(jets.forms[at], others, axis=0),
                                                  np.tile(basis0[1:], (len(at), 1)))
        if vanishing.any():
            raise DegenerateBasisError("transversal form vanishes; distribution undefined")
        keep = norms >= 1e-10
        refs = d[keep] / norms[keep, None]
        runs, cross_truncated = _rk4_runs(
            cong, np.repeat(np.repeat(jets.us[at], others, axis=0)[keep], 2, axis=0),
            np.stack([-refs, refs], axis=1).reshape(-1, len(seed)), model, step, count)
        truncated |= cross_truncated
        cross = [visit for run in runs for visit in run[1:]]
        columns += [(cross[0][1], np.array([i for _, _, i in cross]))] if cross else []

    # classify the swept point set: the leaf's tangent directions at a point
    # are the kernel of its transversal form, so the swept tangent space is
    # spanned by the derivatives of X(s) = A_0 + s A_1 along them (combined
    # from those along the parameter directions) and the line direction A_1
    us, a0, a1, forms, da0, da1 = (np.concatenate([getattr(jets, f)[at] for jets, at in columns])
                                   for f in ("us", "a0", "a1", "forms", "da0", "da1"))
    bases, valid = _kernel_bases(forms)
    bases, da0, da1, directions = bases[valid], da0[valid], da1[valid], a1[valid]
    samples = np.asarray(line_samples, dtype=float)[:, None, None]
    swept = (bases @ da0)[:, None] + samples * (bases @ da1)[:, None]
    line_dir = np.broadcast_to(directions[:, None, None], swept.shape[:2] + (1, a1.shape[1]))
    tangents = np.concatenate([swept, line_dir], axis=2).reshape(-1, len(seed), a1.shape[1])
    w = jacobi_eigh(_pullback(np.swapaxes(tangents, 1, 2), model.form.gram), vectors=0)[0]
    _, minus, zero, _ = _inertia(w, 1e-4)
    good = int(((minus == 0) & (zero == 1)).sum())
    return LeafTrace(
        seed=tuple(float(x) for x in seed), parameters=tuple(map(tuple, us.tolist())),
        lines=tuple(zip(a0, a1)), lightlike_fraction=good / len(w) if len(w) else 0.0,
        step=step, truncated=truncated)
