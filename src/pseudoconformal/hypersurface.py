"""Parametric hypersurfaces: jets, induced metric, causal classification.

A hypersurface is an immersion of an (n-1)-parameter box into n-dimensional
Lorentzian space (or directly into homogeneous coordinates on the quadric).
The causal character at a point is read off the inertia of the induced
metric J^T G J:

    spacelike   (n-1, 0, 0)
    timelike    (n-2, 1, 0)
    lightlike   (n-2, 0, 1)

anything else is reported as degenerate beyond the lightlike case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AmbientModel
from .errors import DegenerateBasisError, GeometryError
from .linalg import _inertia, jacobi_eigh

SPACELIKE = "spacelike"
TIMELIKE = "timelike"
LIGHTLIKE = "lightlike"
DEGENERATE = "degenerate_beyond_lightlike"

#: degeneracy threshold of the induced metric: smallest |eigenvalue| relative
#: to largest, for analytic and finite-difference jets alike
LIGHTLIKE_TOL = 1e-7

#: central-difference steps of ``jet1``, and of ``jet2`` over a differenced ``jet1``
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4

#: central-difference step of the congruence line jets and the frame connection forms
DEFAULT_STEP = 1e-4


@lru_cache(maxsize=None)
def _stencil_offsets(d: int, step: float) -> np.ndarray:
    """Offsets (2d+1, d) of the stencil u, u + step e_0, u - step e_0, ...
    whose sums with u have the bits of u, u + step e_a and u - step e_a: the
    centre adds -0.0, which keeps every u, and the minus rows add the
    negation of step e_a."""
    offsets = np.full((2 * d + 1, d), -0.0)
    offsets[1::2] = step * np.eye(d)
    offsets[2::2] = -(step * np.eye(d))
    offsets.flags.writeable = False
    return offsets


def _central(values: np.ndarray, step: float) -> np.ndarray:
    """Central differences (N, d, ...) (f(u + step e_a) - f(u - step e_a)) / 2 step
    from the values (N, 2d, ...) at the stencil rows past the centre."""
    return (values[:, 0::2] - values[:, 1::2]) / (2.0 * step)


@dataclass(frozen=True)
class Immersion:
    """Parametric hypersurface with jet evaluation.

    ``value`` maps a parameter vector of length n-1 to a point of the
    Lorentzian space (length n), or to homogeneous coordinates (length n+2)
    when ``homogeneous`` is set.  ``jacobian`` and ``hessian`` are optional
    analytic jets; finite differences fill in for whichever is missing.

    ``broadcasts`` states that every given evaluator also maps a stack of
    parameter vectors (N, n-1) to its stacked jets (N, target_dim, ...), each
    member with the bits of its point evaluated alone, as every catalog
    evaluator does; without it a stack is evaluated point by point.
    ``point``, ``jet1`` and ``jet2`` take one parameter vector or a stack; a
    stack is evaluated by ``_evaluate_stack``.
    One point is evaluated with floating point warnings off, as a stack is:
    a non-finite result is the engines' to report.
    """

    n: int
    domain: tuple
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    homogeneous: bool = False
    name: str = ""
    broadcasts: bool = False

    @property
    def params(self) -> int:
        return self.n - 1

    @property
    def target_dim(self) -> int:
        return self.n + 2 if self.homogeneous else self.n

    @property
    def analytic(self) -> bool:
        return self.jacobian is not None

    def point(self, u):
        """The point at u, or for a stack of parameter vectors (N, n-1) the
        points (N, target_dim) and the failures {index: exception}."""
        return self._jet(0, u)

    def jet1(self, u):
        """First-order jet: target_dim x (n-1) Jacobian, or Jacobians and
        failures of a stack, as ``point``."""
        return self._jet(1, u)

    def jet2(self, u):
        """Second-order jet: target_dim x (n-1) x (n-1) Hessian, or Hessians and
        failures of a stack, as ``point``."""
        return self._jet(2, u)

    def _jet(self, order: int, u):
        """The jet of ``order`` (0 the point) at u, one point (params,) or a stack
        (N, params): the evaluator of that order, called once over a stack if it
        ``broadcasts``, else central differences of the jet below (``_differences``),
        at FD_STEP_FIRST over a point or an analytic Jacobian and FD_STEP_SECOND
        over a differenced one, which always broadcast.
        One point's jet must have the shape (target_dim, n-1, ...) of its order."""
        u, jets = np.asarray(u, dtype=float), (self.point, self.jet1, self.jet2)
        if u.shape[-1:] != (self.params,):
            raise ValueError(f"u must have params={self.params} entries, got "
                             f"{u.shape[-1] if u.ndim else 'a scalar'}")
        name = ("value", "jacobian", "hessian")[order]
        evaluate = getattr(self, name)
        stacked = evaluate if self.broadcasts else None
        if evaluate is None:
            step = FD_STEP_FIRST if order == 1 or self.analytic else FD_STEP_SECOND
            evaluate = stacked = partial(self._differences, jets[order - 1], step=step)
        shape = (self.target_dim,) + (self.params,) * order
        if u.ndim == 2:
            return _evaluate_stack(jets[order], stacked, u, shape)
        with np.errstate(all="ignore"):
            jet = np.asarray(evaluate(u), dtype=float)
        if jet.shape != shape:
            raise ValueError(f"{name} has shape {jet.shape}, expected {shape}")
        return jet

    def _differences(self, evaluate: Callable, u: np.ndarray, step: float) -> np.ndarray:
        """Central differences (..., *shape, n-1) of a jet at u, one point or
        a stack, from one call at the stencil rows u + step e_0, u - step e_0,
        ...  One point raises its first failed neighbour's error; a stack
        member with one is NaN, so ``_evaluate_stack`` replays it alone."""
        us = np.atleast_2d(u)
        values, failed = evaluate((us[:, None] + _stencil_offsets(self.params, step)[1:])
                                  .reshape(-1, self.params))
        if failed and u.ndim == 1:
            raise failed[min(failed)]
        values[list(failed)] = np.nan
        values = values.reshape((len(us), 2 * self.params) + values.shape[1:])
        out = np.moveaxis(_central(values, step), 1, -1)
        return out[0] if u.ndim == 1 else out


@np.errstate(all="ignore")
def _evaluate_stack(scalar: Callable, stacked: Optional[Callable], us: np.ndarray,
                    shape: tuple) -> tuple:
    """Outputs (N, *shape) of an evaluator at the parameter points us (N, d)
    and its failures {index: the ValueError or ArithmeticError raised}.

    ``stacked``, the one-point evaluator itself where that broadcasts, runs
    once over the stack with floating point warnings off, as does the whole
    pass.  The one-point ``scalar`` then evaluates again every member it left
    non-finite, or every member if ``stacked`` is None, raised a ValueError,
    ArithmeticError, TypeError or IndexError (it does not broadcast) or gave
    another shape, so each such member gets the one-point result and
    exception (a negative square root is NaN in a stack but raises for one
    point).  Failed members are zero.
    """
    out, replay, failures = None, [], {}
    if stacked is not None:
        try:
            out = np.array(stacked(us), dtype=float, order="C")
            finite = math.isfinite(np.add.reduce(out, axis=None))  # then so is every output
        except (ValueError, ArithmeticError, TypeError, IndexError):
            pass
    if out is None or out.shape != (len(us),) + shape:
        out, replay = np.zeros((len(us),) + shape), range(len(us))
    elif not finite:
        replay = np.flatnonzero(~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))).tolist()
    for i in replay:
        try:
            out[i] = scalar(us[i])
        except (ValueError, ArithmeticError) as exc:  # GeometryError included
            out[i] = 0.0
            failures[i] = exc
    return out, failures


def parameter_grid(obj, counts):
    """Sample grid over the domain box of an immersion or a congruence.

    Returns the per-axis ``linspace`` values and a (N, params) array of the
    grid points in ``np.ndindex`` order.
    """
    counts = list(counts)
    if len(counts) != obj.params:
        raise ValueError(f"need {obj.params} grid counts")
    axes = [np.linspace(lo, hi, int(c)) for (lo, hi), c in zip(obj.domain, counts)]
    cells = np.indices([len(ax) for ax in axes]).reshape(len(axes), -1)
    return axes, np.stack([ax[i] for ax, i in zip(axes, cells)], axis=-1)


@dataclass(frozen=True)
class CausalType:
    """Causal character of a hypersurface point plus the inertia behind it."""

    kind: str
    plus: int
    minus: int
    zero: int
    min_eig_ratio: float

    def as_tuple(self):
        return (self.plus, self.minus, self.zero)


def _ambient_gram(imm: Immersion) -> np.ndarray:
    """The standard model's Gram matrix the jets pull back: the quadric's polar
    form for homogeneous immersions, else the Lorentzian metric."""
    model = AmbientModel.standard(imm.n)
    return model.form.gram if imm.homogeneous else model.metric.gram


def _pullback(j, g) -> np.ndarray:
    """Symmetrized J^T G J of one Jacobian or of a stack of them."""
    m = np.swapaxes(j, -1, -2) @ g @ j
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def induced_metric(imm: Immersion, u) -> np.ndarray:
    """Pullback J^T G J of the ambient form; for homogeneous immersions G is
    the quadric's polar form, which induces the same conformal class."""
    return _pullback(imm.jet1(u), _ambient_gram(imm))


#: causal kinds by their integer codes
_KINDS = (SPACELIKE, TIMELIKE, LIGHTLIKE, DEGENERATE)


def _kind_codes(plus, minus, zero) -> np.ndarray:
    """Codes into _KINDS of the causal characters named by induced-metric
    inertias (plus, minus, zero), elementwise."""
    return np.select([minus + zero == 0, (minus == 1) & (zero == 0), (minus == 0) & (zero == 1)],
                     [0, 1, 2], 3)


def _causal_kind(plus: int, minus: int, zero: int) -> str:
    """Causal character named by an induced-metric inertia."""
    return _KINDS[int(_kind_codes(plus, minus, zero))]


def causal_type_of_spectrum(w, tol: float) -> CausalType:
    """Classify an induced metric by the inertia of its eigenvalues w."""
    *counts, ratio = _inertia(w, tol)
    plus, minus, zero = (int(count) for count in counts)
    return CausalType(kind=_causal_kind(plus, minus, zero), plus=plus, minus=minus,
                      zero=zero, min_eig_ratio=float(ratio))


def causal_type_of_metric(m, tol: float) -> CausalType:
    """Classify an induced-metric matrix by its eigenvalue inertia."""
    return causal_type_of_spectrum(jacobi_eigh(m, vectors=0)[0], tol)


def _evaluation_error(u, exc: Exception) -> GeometryError:
    """What an evaluator raised at the parameter point u as a GeometryError:
    a GeometryError as it is, any other error naming u and keeping its
    message."""
    if isinstance(exc, GeometryError):
        return exc
    return GeometryError(f"evaluation failed at u={np.asarray(u).tolist()}: {exc}")


def _certified_rank(j: np.ndarray) -> np.ndarray:
    """Whether each Jacobian of a stack j (N, target, params) is sure to pass the
    rank test of ``_stacked_spectra``: P = J^T J, built member-last and eliminated
    in place, has pivots all > 0 whose product det(P / tr P) > 1e-10, so that
    lambda_min / lambda_max > 1e-10.  Rounding (a few ulps of tr P) and the Jacobi
    pass's stopping error (1e-12 of its largest entry) stay far inside the margin
    to the test's 1e-12; 1e-290 < tr P < 1e290 keeps the pass from overflow and
    the test off its floor.  A non-finite J is not sure."""
    jt = np.ascontiguousarray(j.transpose(2, 1, 0))
    p = (jt[:, None] * jt[None]).sum(axis=2)
    tr = np.trace(p)
    p /= tr
    for k in range(len(p) - 1):  # each pivot p[k, k] a Schur complement
        p[k + 1:, k + 1:] -= p[k + 1:, k, None] / p[k, k] * p[k, k + 1:]
    pivots = np.diagonal(p).T
    return (pivots.min(axis=0) > 0) & (pivots.prod(axis=0) > 1e-10) & (tr > 1e-290) & (tr < 1e290)


def _stacked_spectra(jets, gram, us, failures, vectors: bool = False) -> tuple:
    """Check a stack of Jacobians jets (N, target, params) at the parameter
    points us (N, params) and read the spectra of their induced metrics in one
    stacked Jacobi pass, with the J^T J of only the members ``_certified_rank``
    leaves in doubt: bits and failures are those of a pass with every J^T J.

    ``failures`` maps the stack index of each point whose jet could not be
    evaluated to its exception; every other Jacobian that is non-finite or
    rank deficient (not an immersion there) gets a DegenerateBasisError in it;
    non-finite members are sought one by one only if the whole stack is not finite.
    Returns the eigenvalues (N, params) of every metric in stack order, and
    with ``vectors`` their eigenvectors (N, params, params), else None; zero
    for failed members.  J^T J carries no eigenvectors.
    """
    count, _, d = jets.shape
    live = np.delete(np.arange(count), list(failures))
    j = jets[live]
    with np.errstate(all="ignore"):  # a non-finite J has a non-finite J^T J
        doubt = ~_certified_rank(j)
        stack = np.concatenate([_pullback(j, gram), np.swapaxes(j[doubt], 1, 2) @ j[doubt]])
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        kept = finite[: len(live)]  # a doubtful member needs its J^T J finite too
        kept[doubt] &= finite[len(live):]
        for i in live[~kept].tolist():
            failures[i] = DegenerateBasisError(f"non-finite jacobian at u={us[i].tolist()}")
        live, doubt, stack = live[kept], doubt[kept], stack[np.concatenate([kept, kept[doubt]])]

    w, v = jacobi_eigh(stack, vectors=len(live) if vectors else 0)
    spectra = w[len(live):]  # of J^T J, singular relative to its largest where J is no immersion
    for i in live[doubt][spectra[:, -1] <= 1e-12 * np.maximum(spectra[:, 0], 1e-300)].tolist():
        failures[i] = DegenerateBasisError(f"jacobian is rank deficient at u={us[i].tolist()}")
    w_all, v_all = np.zeros((count, d)), np.zeros((count, d, d)) if vectors else None
    w_all[live] = w[: len(live)]
    if vectors:
        v_all[live] = v
    return w_all, v_all


def classify_point(imm: Immersion, u, tol: Optional[float] = None) -> CausalType:
    """Causal character at a parameter point: the one-point case of ``survey``.

    Raises DegenerateBasisError if the Jacobian is non-finite or rank
    deficient there (not an immersion).
    """
    failures = {}
    w = _stacked_spectra(imm.jet1(u)[None], _ambient_gram(imm),
                         np.asarray(u, dtype=float)[None], failures)[0]
    if failures:
        raise failures[0]
    return causal_type_of_spectrum(w[0], LIGHTLIKE_TOL if tol is None else tol)


@dataclass(frozen=True)
class GridPoint:
    u: tuple
    index: tuple
    causal: CausalType


@dataclass(frozen=True)
class TransitionCell:
    """Grid edge whose endpoints change causal character across lightlike."""

    axis: int
    index_low: tuple
    u_low: tuple
    u_high: tuple
    kinds: tuple


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Survey result in columns, one row per classified grid point in grid
    order: parameter points u (N, d), grid indices (N, d), inertia counts,
    least eigenvalue ratios and codes into _KINDS."""

    u: np.ndarray
    index: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    zero: np.ndarray
    min_eig_ratio: np.ndarray
    codes: np.ndarray
    counts: dict
    transitions: list
    errors: list = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, ClassificationReport):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def kinds(self) -> list:
        """The causal kind name of each row."""
        return np.array(_KINDS, dtype=object)[self.codes].tolist()

    @cached_property
    def points(self) -> list:
        """The rows as GridPoint records, built on first use."""
        columns = (self.u, self.index, self.plus, self.minus, self.zero, self.min_eig_ratio)
        return [GridPoint(u=tuple(u), index=tuple(i), causal=CausalType(k, p, m, z, r))
                for k, u, i, p, m, z, r in zip(self.kinds, *(c.tolist() for c in columns))]

    @property
    def pure(self) -> Optional[str]:
        kinds = [k for k, c in self.counts.items() if c > 0]
        return kinds[0] if len(kinds) == 1 else None

    @property
    def mixed(self) -> bool:
        return self.pure is None

    def fractions(self) -> dict:
        total = sum(self.counts.values())
        return {k: c / total for k, c in self.counts.items() if total}


def survey(imm: Immersion, grid_counts: Sequence[int],
           tol: Optional[float] = None) -> ClassificationReport:
    """Classify every grid point and summarize pure vs mixed character.

    The grid's Jacobians are one stacked ``jet1`` call, and its induced
    metrics, with the J^T J left in doubt, one stacked Jacobi pass.  Every
    point gets the kind and inertia ``classify_point`` gives it, and a point
    where that would raise is recorded in ``errors`` instead.  Results are in
    grid order, as columns: no per-point record is built.
    """
    tol = LIGHTLIKE_TOL if tol is None else tol
    axes, grid = parameter_grid(imm, grid_counts)
    shape = tuple(len(ax) for ax in axes)
    cells = np.indices(shape).reshape(len(shape), -1).T  # grid indices in grid order

    jets, failures = imm.jet1(grid)
    w = _stacked_spectra(jets, _ambient_gram(imm), grid, failures)[0]
    live = np.delete(np.arange(len(grid)), list(failures))
    plus, minus, zero, ratio = _inertia(w[live], tol)
    codes = np.full(len(grid), -1)
    codes[live] = _kind_codes(plus, minus, zero)
    counts = dict(zip(_KINDS, np.bincount(codes[live], minlength=len(_KINDS)).tolist()))
    errors = [(tuple(cells[i].tolist()), str(failures[i])) for i in sorted(failures)]
    return ClassificationReport(u=grid[live], index=cells[live], plus=plus, minus=minus,
                                zero=zero, min_eig_ratio=ratio, codes=codes[live], counts=counts,
                                transitions=_transitions(codes.reshape(shape), axes),
                                errors=errors)


def _transitions(codes: np.ndarray, axes) -> list:
    """Grid edges, in grid order of the lower end and then by axis, whose
    classified ends differ and cross between spacelike and timelike or touch
    lightlike.  ``codes`` holds indices into _KINDS, -1 for failed points."""
    spacelike, timelike, lightlike = (_KINDS.index(k) for k in (SPACELIKE, TIMELIKE, LIGHTLIKE))
    found = []
    for axis in range(codes.ndim):
        head = (slice(None),) * axis
        low, high = codes[head + (slice(None, -1),)], codes[head + (slice(1, None),)]
        spacelike_timelike = (np.minimum(low, high) == spacelike) & (np.maximum(low, high) == timelike)
        crossing = (
            (low >= 0) & (high >= 0) & (low != high)
            & (spacelike_timelike | (low == lightlike) | (high == lightlike))
        )
        found.append(np.ravel_multi_index(np.nonzero(crossing), codes.shape) * codes.ndim + axis)
    flat, along = np.divmod(np.sort(np.concatenate(found)), codes.ndim)  # by lower end, then axis
    low = np.array(np.unravel_index(flat, codes.shape))  # (d, edges): the lower ends
    high = low + (np.arange(codes.ndim)[:, None] == along)
    u_low, u_high = (np.array([ax[i] for ax, i in zip(axes, end)]).T.tolist() for end in (low, high))
    k_low, k_high = (codes[tuple(end)].tolist() for end in (low, high))
    return [TransitionCell(axis=a, index_low=tuple(i), u_low=tuple(ul), u_high=tuple(uh),
                           kinds=(_KINDS[kl], _KINDS[kh]))
            for a, i, ul, uh, kl, kh in zip(along.tolist(), low.T.tolist(), u_low, u_high,
                                            k_low, k_high)]
