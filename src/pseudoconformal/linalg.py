"""Dense linear algebra over indefinite scalar products at small sizes.

Everything here is written for small matrices: characteristic polynomials
are accumulated exactly by the Faddeev-LeVerrier recursion, roots come from a
Durand-Kerner iteration (up to order ``MAX_ROOT_ORDER``), symmetric
eigenproblems use cyclic Jacobi rotations, and linear solves use Gaussian
elimination with pivoting.  All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConvergenceError, DegenerateBasisError

#: relative threshold below which a characteristic root is flagged real
REAL_ROOT_TOL = 1e-8

#: relative radius used to cluster near-coincident roots into multiplicities
CLUSTER_RADIUS = 1e-6

#: off-diagonal stopping tolerance of the Jacobi eigensolver (relative)
JACOBI_TOL = 1e-12

#: relative pivot threshold treated as singular in elimination
SINGULAR_TOL = 1e-12

#: largest matrix order whose characteristic roots are computed
MAX_ROOT_ORDER = 12


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _finite_matrix(m, name: str):
    a = _as_matrix(m)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} requires finite entries")
    return a


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric nondegenerate bilinear form on an m-dimensional space."""

    gram: np.ndarray

    def __post_init__(self):
        g = _finite_matrix(self.gram, "a gram matrix").copy()
        scale = max(np.abs(g).max(), 1.0)
        if np.abs(g - g.T).max() > 1e-12 * scale:
            raise ValueError("gram matrix is not symmetric")
        row_norms = np.sqrt((g * g).sum(axis=1))
        bound = float(np.prod(np.maximum(row_norms, 1e-300)))
        if abs(det(g)) <= 1e-12 * bound:
            raise DegenerateBasisError("gram matrix is degenerate")
        g.flags.writeable = False
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def norm2(self, u) -> float:
        return scalar_product(u, u, self)


@dataclass(frozen=True)
class Signature:
    """Inertia counts of a symmetric matrix: (positive, negative, zero)."""

    plus: int
    minus: int
    zero: int

    def as_tuple(self):
        return (self.plus, self.minus, self.zero)


def scalar_product(u, v, form: BilinearForm) -> float:
    """Evaluate u^T . gram . v; symmetric in u and v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (form.dim,) or v.shape != (form.dim,):
        raise ValueError(
            f"dimension mismatch: form has dim {form.dim}, "
            f"vectors have shapes {u.shape} and {v.shape}"
        )
    return float(u @ form.gram @ v)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as such
def jacobi_eigh(m, max_sweeps: int = 60, vectors: int | None = None):
    """Eigendecomposition of symmetric matrices by cyclic Jacobi rotations.

    A stack of shape (N, k, k) is decomposed member by member in one
    vectorized pass and gives eigenvalues (N, k), sorted descending, and the
    eigenvectors (V, k, k), as columns, of its leading V = ``vectors``
    members: all of them by default, none at 0.  A single matrix (k, k) is a
    stack of one and gives shapes (k,) and (k, k), its eigenvectors None at
    0.  Column signs are fixed so that the entry of largest magnitude in each
    eigenvector is positive.  Eigenvalues do not depend on ``vectors``.

    The pass works member-last, on (k, k, N) and an accumulator (k, k, V):
    rotations update contiguous rows and reductions run along the stack.
    Every member visits the (p, q) pairs in row order, with its own
    convergence test at the start of each sweep, its off-diagonal norm
    summed as numpy sums its k*k squares (pairwise, in order below 8).  A
    member that has converged, or whose a_pq is negligible, is rotated by
    c = 1, s = 0 and so left exactly unchanged.  Raises ValueError on
    non-finite or asymmetric input and ConvergenceError when a member
    overflows or its off-diagonal norm is above ``JACOBI_TOL`` times its
    largest entry after ``max_sweeps``; its residual is the failed members' largest.
    """
    a = np.asarray(m, dtype=float)
    single = a.ndim != 3
    a = _as_matrix(a)[None] if single else a
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    count, k, _ = a.shape
    if not count:
        return np.zeros((0, k)), np.zeros((0, k, k))
    carry = count if vectors is None else min(vectors, count)
    a = np.ascontiguousarray(a.transpose(1, 2, 0))
    scale = np.maximum(np.abs(a).max(axis=(0, 1)), 1e-300)
    if not np.isfinite(scale).all():
        raise ValueError("jacobi_eigh requires finite entries")
    if (np.abs(a - a.transpose(1, 0, 2)).max(axis=(0, 1)) > 1e-10 * scale).any():
        raise ValueError("jacobi_eigh requires symmetric matrices")
    a = 0.5 * (a + a.transpose(1, 0, 2))
    v = np.repeat(np.eye(k)[:, :, None], carry, axis=2)  # v[j, i, n]: member n's v_ij
    off_diagonal = ~np.eye(k, dtype=bool)[:, :, None]
    for sweep in range(max_sweeps + 1):
        squares = np.square(a * off_diagonal).reshape(k * k, count)  # an inf diagonal gives nan
        off = np.sqrt(squares.sum(axis=0) if k < 3 else np.ascontiguousarray(squares.T).sum(axis=1))
        if not np.isfinite(off).all() and not np.isfinite(a).all():
            raise ConvergenceError(
                f"Jacobi pass overflowed for {int((~np.isfinite(a).all(axis=(0, 1))).sum())}"
                f" of {count} matrices", residual=math.inf)
        active = off > JACOBI_TOL * scale
        if not active.any():
            break
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweeps did not converge in {max_sweeps} sweeps for "
                f"{int(active.sum())} of {count} matrices "
                f"(largest off-diagonal norm {off[active].max():.3e})",
                residual=float(off[active].max()),
            )
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p, q]
                rotate = active & (np.abs(apq) > 1e-300)
                tau = (a[q, q] - a[p, p]) / (2.0 * np.where(rotate, apq, 1.0))
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = np.where(rotate, 1.0 / np.hypot(1.0, t), 1.0)
                s = np.where(rotate, t, 0.0) * c
                _rotate_pair(a.swapaxes(0, 1), p, q, c, s)
                _rotate_pair(a, p, q, c, s)
                if carry:
                    _rotate_pair(v, p, q, c[:carry], s[:carry])
                a[p, q], a[q, p] = np.where(rotate, 0.0, a[p, q]), np.where(rotate, 0.0, a[q, p])
    diagonal = np.diagonal(a).copy()
    w, v = -np.sort(-diagonal, axis=1, kind="stable"), v.transpose(2, 1, 0)
    if carry:
        order = np.argsort(-diagonal[:carry], axis=1, kind="stable")
        v = np.take_along_axis(v, order[:, None, :], axis=2)
        lead = np.take_along_axis(v, np.abs(v).argmax(axis=1)[:, None, :], axis=1)
        v = np.where(lead < 0, -v, v)
    return (w[0], v[0] if carry else None) if single else (w, v)


def _rotate_pair(x, p, q, c, s):
    """Rows p, q of a member-last stack x become c x_p - s x_q, s x_p + c x_q."""
    x[p], x[q] = c * x[p] - s * x[q], s * x[p] + c * x[q]


def _inertia(w: np.ndarray, tol: float) -> tuple:
    """(plus, minus, zero) counts of eigenvalues w (last axis, any order)
    beyond tol times their spectral radius, and the ratio of the least |w|
    to that radius; one of each per row of a stack, taken column by column."""
    columns = np.moveaxis(w, -1, 0)
    radius = np.maximum(reduce(np.maximum, np.abs(columns)), 1e-300)
    plus = sum(column > tol * radius for column in columns)
    minus = sum(column < -tol * radius for column in columns)
    return plus, minus, w.shape[-1] - plus - minus, reduce(np.minimum, np.abs(columns)) / radius


def signature(m, tol: float = 1e-10) -> Signature:
    """Inertia of a symmetric matrix; eigenvalues within tol of zero
    (relative to the spectral radius) count as zero."""
    plus, minus, zero, _ = _inertia(jacobi_eigh(_as_matrix(m), vectors=0)[0], tol)
    return Signature(plus=int(plus), minus=int(minus), zero=int(zero))


def char_poly(m) -> np.ndarray:
    """Coefficients of det(x I - m) in descending powers, by the
    Faddeev-LeVerrier recursion.  coeffs[0] is always 1."""
    return _faddeev_leverrier(_as_matrix(m))


def _faddeev_leverrier(a: np.ndarray) -> np.ndarray:
    """Coefficients c (..., k+1) of det(x I - a) in descending powers of
    square matrices a (..., k, k), by the Faddeev-LeVerrier recursion
    N_0 = I, M_j = a N_(j-1), c_j = -tr(M_j) / j, N_j = M_j + c_j I.  A
    member has the bits of its stack of one."""
    k = a.shape[-1]
    coeffs = np.empty(a.shape[:-2] + (k + 1,))
    coeffs[..., 0] = 1.0
    n_m = eye = np.eye(k)
    for j in range(1, k + 1):
        m_j = a @ n_m
        coeffs[..., j] = c = -np.trace(m_j, axis1=-2, axis2=-1) / j
        n_m = m_j + c[..., None, None] * eye
    return coeffs


def durand_kerner(coeffs):
    """All complex roots of a polynomial given in descending powers: the stack
    of one of ``_durand_kerner``, raising ConvergenceError where it fails."""
    roots, residual, converged = _durand_kerner(np.asarray(coeffs, dtype=complex)[None])
    if not converged[0]:
        raise ConvergenceError(f"root iteration did not converge (residual {residual[0]:.3e})",
                               residual=float(residual[0]))
    return roots[0]


def _durand_kerner(c: np.ndarray) -> tuple:
    """Roots (N, deg) of polynomials (N, deg+1) in descending powers, all at
    once by Durand-Kerner sweeps from a circle of radius one plus the largest
    coefficient magnitude, off the real axis lest conjugate symmetry trap it.
    A member stops once no root moves by 1e-13 (1 plus its largest root
    magnitude), or after 500 sweeps.  Products and magnitudes follow numpy's
    complex scalars (its vectorized ones round differently), so a member has
    the bits of its stack of one.  Returns the roots, the residuals max |p(z)|
    and whether each is finite and at most 1e-8 max(1, radius)^deg.  Raises
    ValueError on a non-finite coefficient or a zero leading one."""
    if not np.isfinite(c).all() or (c[:, 0] == 0).any():
        raise ValueError("durand_kerner requires finite coefficients and a nonzero leading one")
    c = np.where(np.hypot(c[:, :1].real - 1.0, c[:, :1].imag) > 1e-12, c / c[:, :1], c)
    count, deg = c.shape[0], c.shape[1] - 1
    if deg <= 1 or not count:
        return -c[:, 1:], np.zeros(count), np.ones(count, dtype=bool)
    radius = 1.0 + np.abs(c[:, 1:]).max(axis=1)
    unit = [cmath.exp(2j * math.pi * (j + 0.3) / deg) for j in range(deg)]
    z = np.array([[r * w for w in unit] for r in radius.tolist()])
    live, zl, cl = np.arange(count), z, c  # the members still iterating
    with np.errstate(all="ignore"):  # an overflow ends in a non-finite residual
        for _ in range(500):
            # p(z_i) reads only z_i, which no other update of the sweep moves
            p, max_step = _horner(cl, zl), np.zeros(len(live))
            for i in range(deg):
                dr, di = 1.0, 0.0
                for j in (*range(i), *range(i + 1, deg)):
                    er, ei = zl.real[:, i] - zl.real[:, j], zl.imag[:, i] - zl.imag[:, j]
                    tiny = np.hypot(er, ei) < 1e-30
                    er, ei = np.where(tiny, 1e-30, er), np.where(tiny, 0.0, ei)
                    dr, di = dr * er - di * ei, dr * ei + di * er
                denom = dr.astype(complex)
                denom.imag = di
                step = p[:, i] / denom
                zl[:, i] -= step
                max_step = np.fmax(max_step, np.hypot(step.real, step.imag))
            done = max_step < 1e-13 * (1.0 + np.abs(zl).max(axis=1))
            z[live[done]] = zl[done]
            live, zl, cl = live[~done], zl[~done], cl[~done]
            if not live.size:
                break
        z[live] = zl
        p = _horner(c, z)
        residual = np.hypot(p.real, p.imag).max(axis=1)  # a NaN value propagates
        bound = [1e-8 * np.float64(max(1.0, r)) ** deg for r in radius.tolist()]
    return z, residual, np.isfinite(residual) & (residual <= bound)


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polynomials c (N, deg+1) at z (N, m) in numpy's complex scalar arithmetic."""
    pr, pi = c.real[:, :1], c.imag[:, :1]
    for k in range(1, c.shape[1]):
        pr, pi = (pr * z.real - pi * z.imag + c.real[:, k : k + 1],
                  pr * z.imag + pi * z.real + c.imag[:, k : k + 1])
    return np.stack([pr, pi], axis=-1).view(complex)[..., 0]


@dataclass(frozen=True)
class Root:
    """A characteristic root with clustered multiplicity."""

    value: complex
    multiplicity: int
    is_real: bool = field(default=False)

    @property
    def real_value(self) -> float:
        return float(self.value.real)


def cluster_roots(values):
    """Group near-coincident root values into (mean, multiplicity) clusters:
    the one-row case of ``_cluster`` and ``_roots``, in numpy complex
    arithmetic."""
    return _root_records(*(x[0] for x in _roots(*_cluster(np.array([list(values)],
                                                                  dtype=complex)))))


def _root_records(values: np.ndarray, mults: np.ndarray, real: np.ndarray) -> list:
    """The Roots of one row of ``_roots``."""
    return [Root(value=v, multiplicity=m, is_real=r)
            for v, m, r in zip(values.tolist(), mults.tolist(), real.tolist()) if m]


def _roots(means: np.ndarray, mults: np.ndarray, counts: np.ndarray) -> tuple:
    """Roots of the rows of ``_cluster`` (cluster means, real or complex, and
    multiplicities (N, k) in order of creation, and counts), in one pass:
    the values (N, k) as complex, sorted by real then imaginary part, their
    multiplicities and real flags, zero past each row's count.

    Conjugate asymmetry left over by the iteration is removed first: column
    by column, the cluster mean m_i of every row, if its imaginary part is
    positive, pairs with the first mean of its multiplicity within
    ``CLUSTER_RADIUS`` (1 + |m_i|) of its conjugate, and the two become
    their average and its conjugate.  Where no mean has a positive
    imaginary part (real spectra), nothing can pair and the columns are not
    visited.  Then a mean with relatively negligible imaginary part is
    flagged real.
    """
    z, columns = means.astype(complex), np.arange(means.shape[1])
    valid = columns < counts[:, None]
    for i in columns.tolist() if (z.imag > 0).any() else ():
        pair = ((np.abs(z - np.conj(z[:, i, None]))
                 <= CLUSTER_RADIUS * (1.0 + np.abs(z[:, i, None])))
                & valid & (mults == mults[:, i, None]) & (columns != i)
                & (valid[:, i] & (z[:, i].imag > 0))[:, None])
        rows = np.flatnonzero(pair.any(axis=1))
        j = pair[rows].argmax(axis=1)
        z[rows, i] = 0.5 * (z[rows, i] + np.conj(z[rows, j]))
        z[rows, j] = np.conj(z[rows, i])
    real = valid & (np.abs(z.imag) < REAL_ROOT_TOL * (1.0 + np.abs(z.real)))
    z.imag[real], z[~valid] = 0.0, 0.0
    order = np.lexsort((z.imag, z.real, ~valid))
    return tuple(np.take_along_axis(a, order, axis=1) for a in (z, np.where(valid, mults, 0), real))


def _cluster(values: np.ndarray) -> tuple:
    """Clusters of near-coincident values in every row of a stack (N, k),
    real or complex, in one pass, in the input's arithmetic.  The values of
    a row are visited in ascending (real, imaginary) order, and each joins
    the first cluster, in order of creation, whose running mean m it lies
    within ``CLUSTER_RADIUS`` (1 + |m|) of, else it starts one.  Returns the
    cluster means and multiplicities (N, k) in order of creation, zero past
    each row's cluster count, and the counts."""
    values = np.sort(values, axis=1, kind="stable")
    sums, mults = np.zeros(values.shape, values.dtype), np.zeros(values.shape, dtype=int)
    counts = np.zeros(len(values), dtype=int)
    for z in values.T:
        placed = np.zeros(len(values), dtype=bool)
        for c in range(counts.max(initial=0)):
            mean = sums[:, c] / np.maximum(mults[:, c], 1)
            hit = ~placed & (c < counts) & (np.abs(z - mean) <= CLUSTER_RADIUS * (1 + np.abs(mean)))
            sums[hit, c], mults[hit, c], placed = sums[hit, c] + z[hit], mults[hit, c] + 1, placed | hit
        new = np.flatnonzero(~placed)
        sums[new, counts[new]], mults[new, counts[new]] = 0.0 + z[new], 1
        counts[new] += 1
    return sums / np.maximum(mults, 1), mults, counts


def char_roots(m):
    """Roots x of det(m + x I) = 0, i.e. the negated eigenvalues of m,
    clustered into multiplicities and flagged real or complex."""
    a = _as_matrix(m)
    if a.shape[0] > MAX_ROOT_ORDER:
        raise ValueError(f"char_roots is limited to matrices of order <= {MAX_ROOT_ORDER}")
    return cluster_roots(-durand_kerner(char_poly(a)))


def solve(a, b):
    """Solve a x = b, b a vector or a matrix of stacked right-hand sides: the
    stack of one of ``_solve``.  Raises ValueError on a non-finite matrix."""
    m, rhs = _finite_matrix(a, "solve"), np.asarray(b, dtype=float)
    if rhs.shape[:1] != m.shape[:1]:
        raise ValueError("right-hand side has incompatible shape")
    x, regular = _solve(m[None], rhs.reshape(len(rhs), -1)[None])
    if not regular[0]:
        raise DegenerateBasisError("matrix is singular to working precision")
    return x[0, 0] if rhs.ndim == 1 else np.ascontiguousarray(x[0].T)


def _solve(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solutions (N, r, k) of a x = b, a (N, k, k) and b (N, k, r) finite,
    zero where a pivot is at most SINGULAR_TOL of the member's largest entry,
    and whether each member is regular.  A contiguous row per right-hand side
    keeps its bits independent of the others, and a member's of its stack."""
    count, k = a.shape[:2]
    m = np.concatenate([a, b], axis=2)
    regular = _eliminate(m, SINGULAR_TOL * np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300))[1]
    m[~regular] = np.eye(k, m.shape[2])
    x = np.zeros((count, b.shape[2], k))
    for row in range(k - 1, -1, -1):
        x[:, :, row] = ((m[:, row, k:] - _dots(m[:, None, row, row + 1 : k], x[:, :, row + 1 :]))
                        / m[:, row, row, None])
    return x, regular


def inverse(a):
    return solve(a, np.eye(len(a)))


def det(a) -> float:
    """Determinant as the signed product of the pivots of ``_eliminate``, 0.0
    at the first exactly zero pivot.  Raises ValueError on a non-finite matrix."""
    m = _finite_matrix(a, "det")[None].copy()
    sign, regular = _eliminate(m, np.zeros(1))
    return float(sign[0]) * math.prod(np.diagonal(m[0]).tolist()) if regular[0] else 0.0


def _eliminate(m: np.ndarray, floor: np.ndarray) -> tuple:
    """Gaussian elimination with partial pivoting, in place, of square
    matrices augmented with right-hand sides, m (N, k, k+r): the signs of
    the row permutations and whether each member's pivots, left on its
    diagonal, all exceed its floor (N,).  Rows with a zero multiplier stay
    as they are, so a member has the bits of its stack of one."""
    count, k = m.shape[:2]
    members, sign = np.arange(count), np.ones(count)
    with np.errstate(all="ignore"):  # past a pivot at its floor a member's values are not read
        for col in range(k):
            pivot = col + np.abs(m[:, col:, col]).argmax(axis=1)
            moved = pivot != col
            if moved.any():
                m[:, col], m[members, pivot] = m[members, pivot], m[:, col].copy()
                sign = np.where(moved, -sign, sign)
            f = m[:, col + 1 :, col : col + 1] / m[:, col : col + 1, col : col + 1]
            if f.any():
                below = m[:, col + 1 :, col:]
                np.subtract(below, f * m[:, col : col + 1, col:], out=below, where=f != 0.0)
    return sign, (np.abs(np.diagonal(m, 0, 1, 2)) > floor[:, None]).all(axis=1)


def solve_particular(a, b):
    """One particular solution of a (possibly underdetermined) consistent
    system a x = b, with free variables set to zero.

    Column pivoting makes the choice deterministic.  Raises if the system is
    inconsistent or a has deficient row rank.
    """
    m = np.asarray(a, dtype=float).copy()
    if m.ndim != 2:
        raise ValueError("expected a 2-d coefficient matrix")
    rows, cols = m.shape
    rhs = np.asarray(b, dtype=float).copy()
    if rhs.shape != (rows,):
        raise ValueError("right-hand side has incompatible shape")
    scale = max(np.abs(m).max(), 1e-300)
    pivot_cols = []
    r = 0
    for _ in range(cols):
        if r >= rows:
            break
        sub = np.abs(m[r:, :])
        mask = np.ones(cols, dtype=bool)
        mask[pivot_cols] = False
        sub = sub[:, mask]
        if sub.size == 0 or sub.max() <= SINGULAR_TOL * scale:
            break
        flat = int(np.argmax(sub))
        prow = r + flat // sub.shape[1]
        pcol = np.flatnonzero(mask)[flat % sub.shape[1]]
        if prow != r:
            m[[r, prow]] = m[[prow, r]]
            rhs[[r, prow]] = rhs[[prow, r]]
        pivot_cols.append(int(pcol))
        for row in range(rows):
            if row == r:
                continue
            f = m[row, pcol] / m[r, pcol]
            if f != 0.0:
                m[row] -= f * m[r]
                rhs[row] -= f * rhs[r]
        r += 1
    if r < rows:
        # remaining rows must be trivially satisfied
        if np.abs(rhs[r:]).max(initial=0.0) > 1e-9 * max(1.0, np.abs(b).max()):
            raise DegenerateBasisError("linear conditions are inconsistent")
    x = np.zeros(cols)
    for i, pcol in enumerate(pivot_cols):
        x[pcol] = rhs[i] / m[i, pcol]
    return x


def _dots(a, b) -> np.ndarray:
    """Dot products of the vectors on the last axes of a and b, broadcast over
    the leading axes, by ``np.vecdot``: the dot loop of the 1-d ``a @ b``."""
    return np.vecdot(a, b)


def orthonormal_rows(stack):
    """Euclidean orthonormal bases of the row spans of a stack of finite
    matrices (N, r, m), by modified Gram-Schmidt with pivoting on the
    largest remaining norm, all members in one pass.

    Returns the bases (N, r, m) and the ranks (N,).  A member's basis fills
    its leading rows in pivot order, and the rows after its rank are zero;
    it stops at the first pivot whose norm is at most 1e-12 times its largest
    entry, one reduction over each member's flattened rows.  A member does
    not depend on the rest of its stack.  No row is deflated after the last
    pivot.
    """
    v = np.array(stack, dtype=float)
    if v.ndim != 3:
        raise ValueError("expected a stack of row matrices (N, r, m)")
    count, rows, width = v.shape
    # explicit sizes: an empty stack cannot infer -1
    floor = 1e-12 * np.maximum(np.abs(v.reshape(count, rows * width)).max(axis=1, initial=0.0), 1e-300)
    bases, ranks, members = np.zeros_like(v), np.zeros(count, dtype=int), np.arange(count)
    active = np.ones(count, dtype=bool)
    left = np.ones((count, rows), dtype=bool)  # rows not yet taken as a pivot
    for k in range(rows):
        norms = np.sqrt(_dots(v, v))
        pivot = (np.where(left, norms, -1.0) if k else norms).argmax(axis=1)  # all left at first
        best = norms[members, pivot]
        active &= best > floor
        live = np.count_nonzero(active)
        if not live:
            break
        every = live == count  # where(True, x, .) is x: no masking
        q = v[members, pivot] / (best if every else np.where(active, best, 1.0))[:, None]
        bases[:, k] = q = q if every else np.where(active[:, None], q, 0.0)
        ranks += active
        left[members, pivot] = False
        if k + 1 < rows:
            v = v - _dots(v, q[:, None, :])[..., None] * q[:, None, :]
    return bases, ranks
