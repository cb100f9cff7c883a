"""Dense linear algebra over indefinite scalar products at small sizes.

Everything here is written for matrices of order <= ~12: characteristic
polynomials are accumulated exactly by the Faddeev-LeVerrier recursion, roots
come from a Durand-Kerner iteration, symmetric eigenproblems use cyclic Jacobi
rotations, and linear solves use Gaussian elimination with pivoting.  All
functions are pure; inputs are never mutated.
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


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric nondegenerate bilinear form on an m-dimensional space."""

    gram: np.ndarray
    sym_tol: float = 1e-12
    degenerate_tol: float = 1e-12

    def __post_init__(self):
        g = _as_matrix(self.gram).copy()
        scale = max(np.abs(g).max(), 1.0)
        if np.abs(g - g.T).max() > self.sym_tol * scale:
            raise ValueError("gram matrix is not symmetric")
        row_norms = np.sqrt((g * g).sum(axis=1))
        bound = float(np.prod(np.maximum(row_norms, 1e-300)))
        if abs(det(g)) <= self.degenerate_tol * bound:
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
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as columns.  Column signs are fixed so that the entry of
    largest magnitude in each eigenvector is positive.

    A stack of shape (N, k, k) is decomposed member by member in one
    vectorized pass and gives shapes (N, k) and (N, k, k).  Raises ValueError
    on non-finite or asymmetric input and ConvergenceError when the
    off-diagonal norm is still above ``tol`` after ``max_sweeps`` sweeps.
    """
    if np.ndim(m) == 3:
        return _jacobi_eigh_stacked(np.asarray(m, dtype=float), tol, max_sweeps)
    a = _as_matrix(m).copy()
    k = a.shape[0]
    scale = max(np.abs(a).max(), 1e-300)
    if not math.isfinite(scale):  # the maximum propagates NaN
        raise ValueError("jacobi_eigh requires finite entries")
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("jacobi_eigh requires a symmetric matrix")
    a = 0.5 * (a + a.T)
    v = np.eye(k)
    for sweep in range(max_sweeps + 1):
        strict = a - np.diag(np.diag(a))
        off = math.sqrt(float((strict * strict).sum()))
        if off <= tol * scale:
            break
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweeps did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off:.3e})",
                residual=off,
            )
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(k)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a[p, q] = a[q, p] = 0.0
                v = v @ rot
    order = np.argsort(-np.diag(a), kind="stable")
    w = np.diag(a)[order]
    v = v[:, order]
    for j in range(k):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return w, v


def _jacobi_eigh_stacked(a, tol: float, max_sweeps: int):
    """Cyclic Jacobi over a stack of symmetric matrices.

    Every member visits the (p, q) pairs in the order of the single-matrix
    loop, with its own convergence test at the start of each sweep.  A member
    that has converged, or whose a_pq is negligible, is rotated by c = 1,
    s = 0 and so left exactly unchanged.
    """
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
    return w, np.where(lead < 0, -v, v)


def _rotate_pair(xp, xq, c, s):
    """Givens rotation in place of two equally shaped views: columns (or
    rows) p and q of every member become c xp - s xq and s xp + c xq."""
    old = xp.copy()
    xp[...] = c * xp - s * xq
    xq[...] = s * old + c * xq


def signature(m, tol: float = 1e-10) -> Signature:
    """Inertia of a symmetric matrix; eigenvalues within tol of zero
    (relative to the spectral radius) count as zero."""
    a = _as_matrix(m)
    w, _ = jacobi_eigh(a)
    radius = float(np.abs(w).max()) if a.shape[0] else 0.0
    cut = tol * radius
    plus = int((w > cut).sum())
    minus = int((w < -cut).sum())
    return Signature(plus=plus, minus=minus, zero=a.shape[0] - plus - minus)


def char_poly(m) -> np.ndarray:
    """Coefficients of det(x I - m) in descending powers, by the
    Faddeev-LeVerrier recursion.  coeffs[0] is always 1."""
    a = _as_matrix(m)
    k = a.shape[0]
    coeffs = np.empty(k + 1)
    coeffs[0] = 1.0
    n_m = np.eye(k)
    for j in range(1, k + 1):
        m_j = a @ n_m
        c = -np.trace(m_j) / j
        coeffs[j] = c
        n_m = m_j + c * np.eye(k)
    return coeffs


def durand_kerner(coeffs, max_iter: int = 500, tol: float = 1e-13):
    """All complex roots of a monic polynomial given in descending powers.

    Initial guesses sit on a circle whose radius is one plus the largest
    coefficient magnitude, offset off the real axis so conjugate symmetry
    cannot trap the iteration.
    """
    c = np.asarray(coeffs, dtype=complex)
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
    for _ in range(max_iter):
        max_step = 0.0
        for i in range(deg):
            p = c[0]
            for ck in c[1:]:
                p = p * z[i] + ck
            denom = 1.0 + 0.0j
            for j in range(deg):
                if j != i:
                    d = z[i] - z[j]
                    if abs(d) < 1e-30:
                        d = 1e-30
                    denom *= d
            step = p / denom
            z[i] -= step
            max_step = max(max_step, abs(step))
        if max_step < tol * (1.0 + float(np.abs(z).max())):
            break
    residual = 0.0
    for zi in z:
        p = c[0]
        for ck in c[1:]:
            p = p * zi + ck
        residual = max(residual, abs(p))
    if residual > 1e-8 * max(1.0, radius) ** deg:
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


def cluster_roots(values, radius: float = CLUSTER_RADIUS):
    """Group near-coincident root values into (mean, multiplicity) clusters.

    Conjugate asymmetry left over by the iteration is removed afterwards:
    clusters whose means are mutual conjugates are symmetrized, and a cluster
    mean with relatively negligible imaginary part is flagged real.
    """
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in vals:
        placed = False
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(z - center) <= radius * (1.0 + abs(center)):
                cl.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    means = [sum(cl) / len(cl) for cl in clusters]
    mults = [len(cl) for cl in clusters]
    # enforce exact conjugate pairing of genuinely complex clusters
    for i in range(len(means)):
        if means[i].imag <= 0:
            continue
        for j in range(len(means)):
            if i == j or mults[i] != mults[j]:
                continue
            if abs(means[j] - means[i].conjugate()) <= radius * (1.0 + abs(means[i])):
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


def char_roots(m, cluster_radius: float = CLUSTER_RADIUS):
    """Roots x of det(m + x I) = 0, i.e. the negated eigenvalues of m,
    clustered into multiplicities and flagged real or complex."""
    a = _as_matrix(m)
    if a.shape[0] > 12:
        raise ValueError("char_roots is limited to matrices of order <= 12")
    eigen = durand_kerner(char_poly(a))
    return cluster_roots([-z for z in eigen], radius=cluster_radius)


def solve(a, b, tol: float = SINGULAR_TOL):
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b may be a vector or a matrix of stacked right-hand sides.
    """
    m = _as_matrix(a).copy()
    k = m.shape[0]
    rhs = np.asarray(b, dtype=float).copy()
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    if rhs.shape[0] != k:
        raise ValueError("right-hand side has incompatible shape")
    scale = max(np.abs(m).max(), 1e-300)
    perm = list(range(k))
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[pivot_row, col]) <= tol * scale:
            raise DegenerateBasisError("matrix is singular to working precision")
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        for row in range(col + 1, k):
            f = m[row, col] / m[col, col]
            if f != 0.0:
                m[row, col:] -= f * m[col, col:]
                rhs[row] -= f * rhs[col]
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
    """Determinant by elimination with partial pivoting."""
    m = _as_matrix(a).copy()
    k = m.shape[0]
    sign = 1.0
    value = 1.0
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(m[col:, col])))
        if m[pivot_row, col] == 0.0:
            return 0.0
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            sign = -sign
        value *= m[col, col]
        for row in range(col + 1, k):
            f = m[row, col] / m[col, col]
            if f != 0.0:
                m[row, col:] -= f * m[col, col:]
    return sign * value


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


def orthonormal_rows(vectors, tol: float = 1e-12):
    """Euclidean orthonormal basis of the row span, by modified Gram-Schmidt
    with pivoting on the largest remaining norm."""
    v = np.asarray(vectors, dtype=float).copy()
    if v.ndim != 2:
        raise ValueError("expected a 2-d matrix of row vectors")
    scale = max(float(np.abs(v).max()), 1e-300)
    basis = []
    remaining = [row.copy() for row in v]
    while remaining:
        norms = [float(math.sqrt(r @ r)) for r in remaining]
        i = int(np.argmax(norms))
        if norms[i] <= tol * scale:
            break
        q = remaining.pop(i) / norms[i]
        basis.append(q)
        remaining = [r - (r @ q) * q for r in remaining]
    return np.array(basis) if basis else np.empty((0, v.shape[1]))


def max_principal_angle(span_a, spans_b) -> np.ndarray:
    """Largest principal angle between the row span span_a (k, m) and each
    member of a stack of row spans spans_b (N, k, m), as an (N,) array.

    The residual r of span_a off a span has the sines of the principal
    angles as singular values.  Along the top eigenvector v of r r^T the unit
    combination v^T q_a splits into its part v^T p q_b in the span and v^T r
    off it, and the angle is atan2(|v^T r|, |v^T p|).  Taking the sine keeps
    small angles to rounding; the arccosine of a cosine near 1 cannot
    resolve angles below about 1.5e-8.  Every span is orthonormalized with
    ``orthonormal_rows``, and all r r^T are eigendecomposed in one stacked
    Jacobi pass; a member of another rank than span_a is at pi/2.
    """
    qa = orthonormal_rows(span_a)
    qbs = [orthonormal_rows(span) for span in spans_b]
    angles = np.full(len(qbs), math.pi / 2.0)
    same = [i for i, qb in enumerate(qbs) if qb.shape == qa.shape]
    qb = np.array([qbs[i] for i in same]).reshape(len(same), *qa.shape)
    p = qa @ np.swapaxes(qb, 1, 2)
    r = qa - p @ qb
    top = jacobi_eigh(r @ np.swapaxes(r, 1, 2))[1][:, None, :, 0]  # eigenvalues descend
    off, on = (top @ r)[:, 0], (top @ p)[:, 0]
    angles[same] = np.arctan2(np.sqrt((off * off).sum(axis=1)), np.sqrt((on * on).sum(axis=1)))
    return angles
