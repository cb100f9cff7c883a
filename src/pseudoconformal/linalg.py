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

    def product(self, u, v) -> float:
        return scalar_product(u, v, self)

    def norm2(self, u) -> float:
        return scalar_product(u, u, self)


@dataclass(frozen=True)
class Signature:
    """Inertia counts of a symmetric matrix: (positive, negative, zero)."""

    plus: int
    minus: int
    zero: int

    @property
    def dim(self) -> int:
        return self.plus + self.minus + self.zero

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


def jacobi_eigh(m, tol: float = JACOBI_TOL, max_sweeps: int = 60):
    """Eigendecomposition of symmetric matrices by cyclic Jacobi rotations.

    A stack of shape (N, k, k) is decomposed member by member in one
    vectorized pass and gives eigenvalues (N, k), sorted descending, and
    eigenvectors (N, k, k) as columns; a single matrix (k, k) is a stack of
    one and gives shapes (k,) and (k, k).  Column signs are fixed so that the
    entry of largest magnitude in each eigenvector is positive.

    Every member visits the (p, q) pairs in row order, with its own
    convergence test at the start of each sweep.  A member that has
    converged, or whose a_pq is negligible, is rotated by c = 1, s = 0 and so
    left exactly unchanged.  Raises ValueError on non-finite or asymmetric
    input and ConvergenceError when the off-diagonal norm is still above
    ``tol`` after ``max_sweeps`` sweeps.
    """
    a = np.asarray(m, dtype=float)
    single = a.ndim != 3
    if single:
        a = _as_matrix(a)[None]
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    count, k, _ = a.shape
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300)
    if not np.isfinite(scale).all():
        raise ValueError("jacobi_eigh requires finite entries")
    if (np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-10 * scale).any():
        raise ValueError("jacobi_eigh requires symmetric matrices")
    a = 0.5 * (a + a.transpose(0, 2, 1))
    v = np.tile(np.eye(k), (count, 1, 1))
    off_diagonal = ~np.eye(k, dtype=bool)
    for sweep in range(max_sweeps + 1):
        strict = a * off_diagonal
        off = np.sqrt((strict * strict).sum(axis=(1, 2)))
        active = off > tol * scale
        if not active.any():
            break
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweeps did not converge in {max_sweeps} sweeps for "
                f"{int(active.sum())} of {count} matrices "
                f"(largest off-diagonal norm {off.max():.3e})",
                residual=float(off.max()),
            )
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[:, p, q]
                rotate = active & (np.abs(apq) > 1e-300)
                tau = (a[:, q, q] - a[:, p, p]) / (2.0 * np.where(rotate, apq, 1.0))
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = np.where(rotate, 1.0 / np.hypot(1.0, t), 1.0)[:, None]
                s = np.where(rotate, t, 0.0)[:, None] * c
                _rotate_pair(a[:, :, p], a[:, :, q], c, s)
                _rotate_pair(a[:, p, :], a[:, q, :], c, s)
                _rotate_pair(v[:, :, p], v[:, :, q], c, s)
                a[rotate, p, q] = 0.0
                a[rotate, q, p] = 0.0
    diagonal = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(-diagonal, axis=1, kind="stable")
    w = np.take_along_axis(diagonal, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    lead = np.take_along_axis(v, np.abs(v).argmax(axis=1)[:, None, :], axis=1)
    v = np.where(lead < 0, -v, v)
    return (w[0], v[0]) if single else (w, v)


def _rotate_pair(xp, xq, c, s):
    """Givens rotation in place of two equally shaped views: columns (or
    rows) p and q of every member become c xp - s xq and s xp + c xq."""
    old = xp.copy()
    xp[...] = c * xp - s * xq
    xq[...] = s * old + c * xq


def _inertia(w: np.ndarray, tol: float) -> tuple:
    """(plus, minus, zero) counts of eigenvalues w (last axis) beyond tol
    times their spectral radius, and the ratio of the least |w| to that
    radius; one of each per row of a stack."""
    abs_w = np.abs(w)
    radius = np.maximum(abs_w.max(axis=-1, keepdims=True), 1e-300)
    plus = (w > tol * radius).sum(axis=-1)
    minus = (w < -tol * radius).sum(axis=-1)
    return plus, minus, w.shape[-1] - plus - minus, abs_w.min(axis=-1) / radius[..., 0]


def signature(m, tol: float = 1e-10) -> Signature:
    """Inertia of a symmetric matrix; eigenvalues within tol of zero
    (relative to the spectral radius) count as zero."""
    plus, minus, zero, _ = _inertia(jacobi_eigh(_as_matrix(m))[0], tol)
    return Signature(plus=int(plus), minus=int(minus), zero=int(zero))


def char_poly(m) -> np.ndarray:
    """Coefficients of det(x I - m) in descending powers, by the
    Faddeev-LeVerrier recursion.  coeffs[0] is always 1."""
    return _faddeev_leverrier(_as_matrix(m))[0]


def _faddeev_leverrier(a: np.ndarray) -> tuple:
    """Coefficients c of det(x I - a) in descending powers and the adjugate
    of a square a, by the Faddeev-LeVerrier recursion N_0 = I,
    M_j = a N_(j-1), c_j = -tr(M_j) / j, N_j = M_j + c_j I.  Since N_k = 0,
    a N_(k-1) = -c_k I = (-1)^(k-1) det(a) I, so adj a = (-1)^(k-1) N_(k-1)."""
    k = a.shape[0]
    coeffs = np.empty(k + 1)
    coeffs[0] = 1.0
    n_m = n_last = np.eye(k)
    for j in range(1, k + 1):
        n_last, m_j = n_m, a @ n_m
        c = -np.trace(m_j) / j
        coeffs[j] = c
        n_m = m_j + c * np.eye(k)
    return coeffs, (-1.0) ** (k - 1) * n_last


def durand_kerner(coeffs):
    """All complex roots of a monic polynomial given in descending powers.

    Initial guesses sit on a circle whose radius is one plus the largest
    coefficient magnitude, offset off the real axis so conjugate symmetry
    cannot trap the iteration.  It stops once no root moves by 1e-13 (1 plus
    the largest root magnitude) in a sweep, or after 500 sweeps.  Raises
    ValueError on a non-finite coefficient or a zero leading one, and
    ConvergenceError when the final residual is not finite or above
    1e-8 max(1, radius)^deg.
    """
    c = np.asarray(coeffs, dtype=complex)
    if not np.isfinite(c).all() or c[0] == 0:
        raise ValueError("durand_kerner requires finite coefficients and a nonzero leading one")
    if abs(c[0] - 1.0) > 1e-12:
        c = c / c[0]
    deg = len(c) - 1
    if deg == 0:
        return np.empty(0, dtype=complex)
    if deg == 1:
        return np.array([-c[1]], dtype=complex)
    radius = 1.0 + float(np.abs(c[1:]).max())
    z = np.array(
        [radius * cmath.exp(2j * math.pi * (j + 0.3) / deg) for j in range(deg)]
    )
    tail = list(c[1:])
    with np.errstate(all="ignore"):  # an overflow ends in a non-finite residual
        for _ in range(500):
            max_step = 0.0
            for i in range(deg):
                zi, p = z[i], c[0]
                for ck in tail:
                    p = p * zi + ck
                denom = 1.0 + 0.0j
                for j in range(deg):
                    if j != i:
                        d = zi - z[j]
                        if abs(d) < 1e-30:
                            d = 1e-30
                        denom *= d
                step = p / denom
                z[i] -= step
                max_step = max(max_step, abs(step))
            if max_step < 1e-13 * (1.0 + float(np.abs(z).max())):
                break
        values = []
        for zi in z:
            p = c[0]
            for ck in tail:
                p = p * zi + ck
            values.append(abs(p))
        residual = float(np.max(values))  # a NaN value propagates
        bound = 1e-8 * np.float64(max(1.0, radius)) ** deg
    if not (math.isfinite(residual) and residual <= bound):
        raise ConvergenceError(
            f"root iteration did not converge (residual {residual:.3e})",
            residual=residual,
        )
    return z


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
    the one-row case of ``_cluster``, in numpy complex arithmetic, then the
    conjugate cleanup of ``_roots``."""
    means, mults, counts = _cluster(np.array([list(values)], dtype=complex))
    return _roots(means[0, : counts[0]], mults[0, : counts[0]])


def _roots(means: np.ndarray, mults: np.ndarray) -> list:
    """The Roots of one row of ``_cluster`` (cluster means and
    multiplicities in order of creation), sorted by real then imaginary part.

    Conjugate asymmetry left over by the iteration is removed first:
    clusters whose means are mutual conjugates are symmetrized, and a cluster
    mean with relatively negligible imaginary part is flagged real.
    """
    means, mults = list(means), mults.tolist()
    # enforce exact conjugate pairing of genuinely complex clusters
    for i in range(len(means)):
        if means[i].imag <= 0:
            continue
        for j in range(len(means)):
            if i == j or mults[i] != mults[j]:
                continue
            if abs(means[j] - means[i].conjugate()) <= CLUSTER_RADIUS * (1.0 + abs(means[i])):
                avg = 0.5 * (means[i] + means[j].conjugate())
                means[i] = avg
                means[j] = avg.conjugate()
                break
    roots = []
    for mean, mult in zip(means, mults):
        is_real = bool(abs(mean.imag) < REAL_ROOT_TOL * (1.0 + abs(mean.real)))
        if is_real:
            mean = complex(mean.real, 0.0)
        roots.append(Root(value=complex(mean), multiplicity=int(mult), is_real=is_real))
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return roots


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


def solve(a, b, tol: float = SINGULAR_TOL):
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b may be a vector or a matrix of stacked right-hand sides.  Raises
    ValueError on a non-finite matrix.
    """
    m = _finite_matrix(a, "solve").copy()
    k = m.shape[0]
    rhs = np.asarray(b, dtype=float).copy()
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    if rhs.shape[0] != k:
        raise ValueError("right-hand side has incompatible shape")
    if _eliminate(m, rhs, tol * max(np.abs(m).max(), 1e-300)) is None:
        raise DegenerateBasisError("matrix is singular to working precision")
    # one contiguous row per right-hand side: a column's bits never depend on the others
    x = np.zeros((rhs.shape[1], k))
    for b, xb in zip(rhs.T, x):
        for row in range(k - 1, -1, -1):
            xb[row] = (b[row] - m[row, row + 1 :] @ xb[row + 1 :]) / m[row, row]
    return x[0] if vector else np.ascontiguousarray(x.T)


def inverse(a, tol: float = SINGULAR_TOL):
    m = _as_matrix(a)
    return solve(m, np.eye(m.shape[0]), tol=tol)


def det(a) -> float:
    """Determinant as the signed product of the pivots of ``_eliminate``;
    0.0 at the first exactly zero pivot.  Raises ValueError on a non-finite
    matrix."""
    m = _finite_matrix(a, "det").copy()
    sign = _eliminate(m, None, 0.0)
    return 0.0 if sign is None else sign * math.prod(np.diagonal(m).tolist())


def _eliminate(m: np.ndarray, rhs: np.ndarray | None, floor: float):
    """Gaussian elimination with partial pivoting of a square m, in place,
    applied in place to the right-hand sides rhs (k, r) too unless rhs is
    None.  Returns the sign of the row permutation, or None at the first
    pivot whose magnitude is at most floor; m is then upper triangular with
    the pivots on its diagonal."""
    sign = 1.0
    for col in range(m.shape[0]):
        pivot_row = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[pivot_row, col]) <= floor:
            return None
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            if rhs is not None:
                rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
            sign = -sign
        for row in range(col + 1, m.shape[0]):
            f = m[row, col] / m[col, col]
            if f != 0.0:
                m[row, col:] -= f * m[col, col:]
                if rhs is not None:
                    rhs[row] -= f * rhs[col]
    return sign


def solve_particular(a, b, tol: float = SINGULAR_TOL):
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
        if sub.size == 0 or sub.max() <= tol * scale:
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


def nullspace(a, tol: float = 1e-10):
    """Orthonormal (Euclidean) basis of the kernel of a, via the symmetric
    eigendecomposition of a^T a."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    w, v = jacobi_eigh(m.T @ m)
    radius = max(float(np.abs(w).max()), 1e-300)
    keep = np.abs(w) <= tol * radius
    return v[:, keep]


def _dots(a, b) -> np.ndarray:
    """Dot products of the vectors on the last axes of a and b, broadcast
    over the leading axes; each has the bits of the 1-d ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def orthonormal_rows(stack, tol: float = 1e-12):
    """Euclidean orthonormal bases of the row spans of a stack of finite
    matrices (N, r, m), by modified Gram-Schmidt with pivoting on the
    largest remaining norm, all members in one pass.

    Returns the bases (N, r, m) and the ranks (N,).  A member's basis fills
    its leading rows in pivot order, and the rows after its rank are zero;
    it stops at the first pivot whose norm is at most tol times its largest
    entry.  A member does not depend on the rest of its stack.
    """
    v = np.array(stack, dtype=float)
    if v.ndim != 3:
        raise ValueError("expected a stack of row matrices (N, r, m)")
    count, rows, _ = v.shape
    scale = np.maximum(np.abs(v).max(axis=(1, 2), initial=0.0), 1e-300)
    bases = np.zeros_like(v)
    ranks = np.zeros(count, dtype=int)
    active = np.ones(count, dtype=bool)
    left = np.ones((count, rows), dtype=bool)  # rows not yet taken as a pivot
    members = np.arange(count)
    for k in range(rows):
        norms = np.sqrt(_dots(v, v))
        pivot = np.where(left, norms, -1.0).argmax(axis=1)
        best = norms[members, pivot]
        active &= best > tol * scale
        if not active.any():
            break
        q = np.where(active[:, None], v[members, pivot] / np.where(active, best, 1.0)[:, None], 0.0)
        bases[:, k] = q
        ranks += active
        left[members, pivot] = False
        v = v - _dots(v, q[:, None, :])[..., None] * q[:, None, :]
    return bases, ranks


def max_principal_angle(span_a, spans_b) -> np.ndarray:
    """Largest principal angle between the row span span_a (k, m) and each
    member of a stack of row spans spans_b (N, k, m), as an (N,) array.

    The residual r of span_a off a span has the sines of the principal
    angles as singular values.  Along the top eigenvector v of r r^T the unit
    combination v^T q_a splits into its part v^T p q_b in the span and v^T r
    off it, and the angle is atan2(|v^T r|, |v^T p|).  Taking the sine keeps
    small angles to rounding; the arccosine of a cosine near 1 cannot
    resolve angles below about 1.5e-8.  All spans are orthonormalized in one
    ``orthonormal_rows`` pass, and all r r^T are eigendecomposed in one
    stacked Jacobi pass; a member of another rank than span_a is at pi/2.
    """
    spans_b = np.asarray(spans_b, dtype=float)
    bases, ranks = orthonormal_rows(np.concatenate([np.asarray(span_a, dtype=float)[None],
                                                    spans_b]))
    k = ranks[0]
    qa = bases[0, :k]
    same = np.flatnonzero(ranks[1:] == k)
    qb = bases[1 + same, :k]
    angles = np.full(len(spans_b), math.pi / 2.0)
    p = qa @ np.swapaxes(qb, 1, 2)
    r = qa - p @ qb
    top = jacobi_eigh(r @ np.swapaxes(r, 1, 2))[1][:, None, :, 0]  # eigenvalues descend
    off, on = (top @ r)[:, 0], (top @ p)[:, 0]
    angles[same] = np.arctan2(np.sqrt((off * off).sum(axis=1)), np.sqrt((on * on).sum(axis=1)))
    return angles
