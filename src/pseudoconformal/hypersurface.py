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

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AmbientModel
from .errors import DegenerateBasisError, GeometryError
from .linalg import JACOBI_TOL, jacobi_eigh

SPACELIKE = "spacelike"
TIMELIKE = "timelike"
LIGHTLIKE = "lightlike"
DEGENERATE = "degenerate_beyond_lightlike"

#: degeneracy threshold for analytic jets: smallest |eigenvalue| relative to largest
LIGHTLIKE_TOL_ANALYTIC = 1e-7

#: degeneracy threshold when jets come from finite differences
LIGHTLIKE_TOL_FD = 1e-4

#: central-difference steps for first- and second-order jets
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-3


@dataclass(frozen=True)
class Immersion:
    """Parametric hypersurface with jet evaluation.

    ``value`` maps a parameter vector of length n-1 to a point of the
    Lorentzian space (length n), or to homogeneous coordinates (length n+2)
    when ``homogeneous`` is set.  ``jacobian`` and ``hessian`` are optional
    analytic jets; finite differences fill in for whichever is missing.

    ``values`` and ``jacobians`` are optional broadcasting twins of ``value``
    and ``jacobian``: they map a stack of parameter vectors (N, n-1) to
    (N, target_dim) and (N, target_dim, n-1), each member with the bits of
    the one-point callable.  A callable that broadcasts over leading axes,
    as every catalog evaluator does, may be passed as its own twin.
    ``point`` and ``jet1`` take one parameter vector or a stack; a stack is
    evaluated by ``_evaluate_stack``.  One point is evaluated with floating
    point warnings off, as a stack is: a non-finite result is the engines'
    to report.
    """

    n: int
    domain: tuple
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    homogeneous: bool = False
    name: str = ""
    values: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobians: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            return _evaluate_stack(self.point, self.values, u, (self.target_dim,))
        with np.errstate(all="ignore"):
            return np.asarray(self.value(u), dtype=float)

    def jet1(self, u):
        """First-order jet: target_dim x (n-1) Jacobian; for a stack of
        parameter vectors (N, n-1) the Jacobians and the failures, as
        ``point``."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            return _evaluate_stack(self.jet1, self.jacobians, u, (self.target_dim, self.params))
        with np.errstate(all="ignore"):
            if self.jacobian is not None:
                j = np.asarray(self.jacobian(u), dtype=float)
            else:
                j = np.empty((self.target_dim, self.params))
                for a in range(self.params):
                    e = np.zeros(self.params)
                    e[a] = FD_STEP_FIRST
                    j[:, a] = (self.point(u + e) - self.point(u - e)) / (2 * FD_STEP_FIRST)
        if j.shape != (self.target_dim, self.params):
            raise ValueError(f"jacobian has shape {j.shape}, expected {(self.target_dim, self.params)}")
        return j

    def jet2(self, u) -> np.ndarray:
        """Second-order jet: target_dim x (n-1) x (n-1) Hessian."""
        u = np.asarray(u, dtype=float)
        if self.hessian is not None:
            with np.errstate(all="ignore"):
                h = np.asarray(self.hessian(u), dtype=float)
            expected = (self.target_dim, self.params, self.params)
            if h.shape != expected:
                raise ValueError(f"hessian has shape {h.shape}, expected {expected}")
            return h
        d = self.params
        step = FD_STEP_SECOND
        h = np.empty((self.target_dim, d, d))
        f0 = self.point(u)
        with np.errstate(all="ignore"):
            for a in range(d):
                ea = np.zeros(d)
                ea[a] = step
                h[:, a, a] = (self.point(u + ea) - 2 * f0 + self.point(u - ea)) / step**2
                for b in range(a + 1, d):
                    eb = np.zeros(d)
                    eb[b] = step
                    mixed = (
                        self.point(u + ea + eb)
                        - self.point(u + ea - eb)
                        - self.point(u - ea + eb)
                        + self.point(u - ea - eb)
                    ) / (4 * step**2)
                    h[:, a, b] = mixed
                    h[:, b, a] = mixed
        return h

    def lightlike_tol(self) -> float:
        return LIGHTLIKE_TOL_ANALYTIC if self.analytic else LIGHTLIKE_TOL_FD


def _evaluate_stack(scalar: Callable, stacked: Optional[Callable], us: np.ndarray,
                    shape: tuple) -> tuple:
    """Outputs (N, *shape) of an evaluator at the parameter points us (N, d)
    and its failures {index: the ValueError or ArithmeticError raised}.

    The broadcasting twin ``stacked``, which may be the one-point evaluator
    itself if that broadcasts, runs once over the stack with floating point
    warnings off.  The one-point ``scalar`` then evaluates again every member
    the twin left non-finite, or every member if the twin is None, raised a
    ValueError or ArithmeticError or gave another shape, so each such member
    gets the one-point result and exception (a negative square root is NaN
    in a stack but raises for one point).  Failed members are zero.
    """
    out = None
    if stacked is not None:
        try:
            with np.errstate(all="ignore"):
                out = np.array(stacked(us), dtype=float, order="C")
        except (ValueError, ArithmeticError):
            pass
    if out is None or out.shape != (len(us),) + shape:
        out, replay = np.zeros((len(us),) + shape), range(len(us))
    else:
        replay = np.flatnonzero(~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))).tolist()
    failures = {}
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
    return axes, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


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


def _ambient_gram(imm: Immersion, model: Optional[AmbientModel]) -> np.ndarray:
    """Gram matrix pulled back by the jets: the quadric's polar form for
    homogeneous immersions, else the Lorentzian metric."""
    if model is None:
        model = AmbientModel.standard(imm.n)
    return model.form.gram if imm.homogeneous else model.metric.gram


def _pullback(j, g) -> np.ndarray:
    """Symmetrized J^T G J of one Jacobian or of a stack of them."""
    m = np.swapaxes(j, -1, -2) @ g @ j
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def induced_metric(imm: Immersion, u, model: Optional[AmbientModel] = None) -> np.ndarray:
    """Pullback J^T G J of the ambient form; for homogeneous immersions G is
    the quadric's polar form, which induces the same conformal class."""
    return _pullback(imm.jet1(u), _ambient_gram(imm, model))


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


def _inertia(w: np.ndarray, tol: float) -> tuple:
    """(plus, minus, zero) counts of eigenvalues w (last axis) beyond tol
    times their spectral radius, and the ratio of the least |w| to that
    radius; one of each per row of a stack."""
    abs_w = np.abs(w)
    radius = np.maximum(abs_w.max(axis=-1, keepdims=True), 1e-300)
    plus = (w > tol * radius).sum(axis=-1)
    minus = (w < -tol * radius).sum(axis=-1)
    return plus, minus, w.shape[-1] - plus - minus, abs_w.min(axis=-1) / radius[..., 0]


def causal_type_of_spectrum(w, tol: float) -> CausalType:
    """Classify an induced metric by the inertia of its eigenvalues w."""
    *counts, ratio = _inertia(w, tol)
    plus, minus, zero = (int(count) for count in counts)
    return CausalType(kind=_causal_kind(plus, minus, zero), plus=plus, minus=minus,
                      zero=zero, min_eig_ratio=float(ratio))


def causal_type_of_metric(m, tol: float) -> CausalType:
    """Classify an induced-metric matrix by its eigenvalue inertia."""
    w, _ = jacobi_eigh(m)
    return causal_type_of_spectrum(w, tol)


def _rank_deficient(w: np.ndarray) -> np.ndarray:
    """Whether J^T J, given its eigenvalues w (last axis), is singular
    relative to its largest eigenvalue: J is then not an immersion there."""
    return w.min(axis=-1) <= 1e-12 * np.maximum(w.max(axis=-1), 1e-300)


def _evaluation_error(u, exc: Exception) -> GeometryError:
    """What an evaluator raised at the parameter point u as a GeometryError:
    a GeometryError as it is, any other error naming u and keeping its
    message."""
    if isinstance(exc, GeometryError):
        return exc
    return GeometryError(f"evaluation failed at u={np.asarray(u).tolist()}: {exc}")


def _stacked_spectra(jets, gram, us, failures, tol: float = JACOBI_TOL) -> tuple:
    """Check a stack of Jacobians jets (N, target, params) at the parameter
    points us (N, params) and eigendecompose their induced metrics, in one
    stacked Jacobi pass together with their J^T J.

    ``failures`` maps the stack index of each point whose jet could not be
    evaluated to its exception; every other Jacobian that is non-finite or
    rank deficient (not an immersion there) gets a DegenerateBasisError in it.
    Returns the eigenvalues (N, params) and eigenvectors (N, params, params)
    of every metric in stack order, zero for failed members.
    """
    count, _, d = jets.shape
    live = np.delete(np.arange(count), list(failures))
    j = jets[live]
    finite = np.isfinite(j).all(axis=(1, 2))
    j = np.where(finite[:, None, None], j, 0.0)  # inf * 0 would warn
    metrics = _pullback(j, gram)
    jtj = np.swapaxes(j, 1, 2) @ j
    finite &= np.isfinite(metrics).all(axis=(1, 2)) & np.isfinite(jtj).all(axis=(1, 2))
    for i in live[~finite].tolist():
        failures[i] = DegenerateBasisError(f"non-finite jacobian at u={us[i].tolist()}")
    live, metrics, jtj = live[finite], metrics[finite], jtj[finite]

    w, v = jacobi_eigh(np.concatenate([metrics, jtj]), tol=tol)
    for i in live[_rank_deficient(w[len(live):])].tolist():
        failures[i] = DegenerateBasisError(f"jacobian is rank deficient at u={us[i].tolist()}")
    w_all, v_all = np.zeros((count, d)), np.zeros((count, d, d))
    w_all[live], v_all[live] = w[: len(live)], v[: len(live)]
    return w_all, v_all


def classify_point(imm: Immersion, u, tol: Optional[float] = None,
                   model: Optional[AmbientModel] = None) -> CausalType:
    """Causal character at a parameter point: the one-point case of ``survey``.

    Raises DegenerateBasisError if the Jacobian is non-finite or rank
    deficient there (not an immersion).
    """
    failures = {}
    w, _ = _stacked_spectra(imm.jet1(u)[None], _ambient_gram(imm, model),
                            np.asarray(u, dtype=float)[None], failures)
    if failures:
        raise failures[0]
    return causal_type_of_spectrum(w[0], imm.lightlike_tol() if tol is None else tol)


def lightlike_kernel(imm: Immersion, u, model: Optional[AmbientModel] = None) -> np.ndarray:
    """Parameter-space kernel direction of the induced metric at a lightlike
    point, unit-normalized; its Jacobian image is the null generator."""
    m = induced_metric(imm, u, model=model)
    w, v = jacobi_eigh(m)
    return v[:, int(np.argmin(np.abs(w)))]


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


def survey(imm: Immersion, grid_counts: Sequence[int], tol: Optional[float] = None,
           model: Optional[AmbientModel] = None) -> ClassificationReport:
    """Classify every grid point and summarize pure vs mixed character.

    The Jacobians of the whole grid are one stacked ``jet1`` call, and the
    induced metrics and J^T J one stacked Jacobi pass.  Every
    point gets the kind and inertia ``classify_point`` gives it, and a point
    where that would raise is recorded in ``errors`` instead.  Results are in
    grid order, as columns: no per-point record is built.
    """
    if tol is None:
        tol = imm.lightlike_tol()
    axes, grid = parameter_grid(imm, grid_counts)
    shape = tuple(len(ax) for ax in axes)
    cells = np.indices(shape).reshape(len(shape), -1).T  # grid indices in grid order

    jets, failures = imm.jet1(grid)
    w, _ = _stacked_spectra(jets, _ambient_gram(imm, model), grid, failures)
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
        flat = np.ravel_multi_index(np.nonzero(crossing), codes.shape)
        found.extend((f, axis) for f in flat.tolist())
    transitions = []
    for flat, axis in sorted(found):
        index_low = tuple(int(i) for i in np.unravel_index(flat, codes.shape))
        index_high = tuple(i + (a == axis) for a, i in enumerate(index_low))
        transitions.append(TransitionCell(
            axis=axis,
            index_low=index_low,
            u_low=tuple(float(axes[a][i]) for a, i in enumerate(index_low)),
            u_high=tuple(float(axes[a][i]) for a, i in enumerate(index_high)),
            kinds=(_KINDS[codes[index_low]], _KINDS[codes[index_high]]),
        ))
    return transitions
