"""Adapted moving frames on the quadric and their connection forms.

A conformal frame is an ordered (n+2)-tuple of homogeneous vectors
A_0, ..., A_{n+1} with a prescribed Gram matrix under the ambient form.  Two
normalizations are used here:

* the null-adapted Gram, with two hyperbolic pairs (A_0, A_{n+1}) and
  (A_1, A_n) pairing to -1 and a positive definite screen block on
  A_2, ..., A_{n-1} (normalized to the identity);
* arbitrary constant-Gram frames, for which the compatibility relations
  between the connection matrix and the Gram matrix are checked numerically.

Connection forms are extracted from a frame field F(u) by central
differences of dF = omega F; the structure identity
d omega = omega ^ omega then holds up to O(h^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .conformal import AmbientModel
from .errors import DegenerateBasisError, NotLightlikeError, NotOnQuadricError
from .hypersurface import LIGHTLIKE, _pullback, causal_type_of_spectrum
from .linalg import inverse, jacobi_eigh, nullspace, solve

#: Gram residual every adapted frame must meet
ADAPT_TOL = 1e-10

#: default finite-difference step on unit-scaled parameters
DEFAULT_STEP = 1e-4


def lightlike_gram(n: int) -> np.ndarray:
    """Target Gram matrix of a null-adapted frame with identity screen block:
    (A_0, A_{n+1}) = (A_1, A_n) = -1, (A_i, A_j) = delta_ij, rest zero."""
    g = np.zeros((n + 2, n + 2))
    g[0, n + 1] = g[n + 1, 0] = -1.0
    g[1, n] = g[n, 1] = -1.0
    for i in range(2, n):
        g[i, i] = 1.0
    return g


def spacelike_gram(n: int) -> np.ndarray:
    """Target Gram of a frame adapted to a spacelike hypersurface: identity
    screen on A_1..A_{n-1}, tangent element normalized to (A_n, A_n) = -1,
    hyperbolic pair (A_0, A_{n+1})."""
    g = np.zeros((n + 2, n + 2))
    g[0, n + 1] = g[n + 1, 0] = -1.0
    for i in range(1, n):
        g[i, i] = 1.0
    g[n, n] = -1.0
    return g


def timelike_gram(n: int) -> np.ndarray:
    """Target Gram of a frame adapted to a timelike hypersurface: the tangent
    element is normalized to (A_n, A_n) = +1 instead, and the Lorentz
    direction moves into the screen block."""
    g = np.zeros((n + 2, n + 2))
    g[0, n + 1] = g[n + 1, 0] = -1.0
    for i in range(1, n):
        g[i, i] = 1.0
    g[n - 1, n - 1] = -1.0
    g[n, n] = 1.0
    return g


@dataclass(frozen=True)
class ConformalFrame:
    """Frame vectors as rows of an (n+2) x (n+2) matrix plus a target Gram."""

    vectors: np.ndarray
    target_gram: np.ndarray
    model: AmbientModel

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float).copy()
        t = np.asarray(self.target_gram, dtype=float).copy()
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "target_gram", t)

    @property
    def n(self) -> int:
        return self.model.n

    def vector(self, xi: int) -> np.ndarray:
        return self.vectors[xi]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.model.form.gram @ self.vectors.T

    def gram_residual(self) -> float:
        return float(np.abs(self.gram() - self.target_gram).max())

    def components(self, vectors) -> np.ndarray:
        """Coefficients of a vector, or of each row of a (k, n+2) stack, in
        this frame basis; a stack takes one elimination for all its rows."""
        v = np.asarray(vectors, dtype=float)
        return np.ascontiguousarray(solve(self.vectors.T, v.T).T)

    def to_json(self) -> str:
        return json.dumps(
            {
                "vectors": [[float(c) for c in row] for row in self.vectors],
                "target_gram": [[float(c) for c in row] for row in self.target_gram],
            }
        )


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Flip the sign so the coordinate of largest magnitude is positive."""
    c = v[int(np.argmax(np.abs(v)))]
    return v if c >= 0 else -v


def _generator_sign_fix(v: np.ndarray, n: int) -> np.ndarray:
    """Sign rule for null generator lifts, applied to a vector or to each row
    of a stack: make the time-slot coordinate positive.  A nonzero null
    direction always has a nonzero time component, so this rule never
    switches along a smooth generator field (a coordinate-based rule can flip
    inside a difference stencil wherever its chosen coordinate crosses zero).
    A time slot below 1e-10 of the largest coordinate falls back to the sign
    of that coordinate."""
    mag = np.abs(v)
    lead = np.take_along_axis(v, mag.argmax(axis=-1)[..., None], axis=-1)
    time = v[..., n : n + 1]
    key = np.where(mag[..., n : n + 1] > 1e-10 * mag.max(axis=-1, keepdims=True), time, lead)
    return np.where(key < 0, -v, v)


def _generator(rows, w, v, n: int, scale: float) -> np.ndarray:
    """Unit null generator of a jet, or of each jet of a stack: the image
    under the tangent rows of the induced metric's kernel column (eigenvalue
    of least magnitude), in homogeneous coordinates and oriented by its
    time-slot sign.  Smooth wherever the kernel eigenvalue stays simple."""
    kernel = np.take_along_axis(v, np.abs(w).argmin(axis=-1)[..., None, None], axis=-1)
    a1 = (np.swapaxes(rows, -1, -2) @ kernel)[..., 0]
    a1 = a1 / np.sqrt((a1 * a1).sum(axis=-1, keepdims=True))
    return _generator_sign_fix(a1, n) * scale


def _banded_orthonormal(candidates, product, count: int, tol: float) -> list:
    """Up to ``count`` vectors orthonormal under ``product``, by pivoted
    Gram-Schmidt on the candidates; stops once every remaining norm is below
    tol times the candidates' scale."""
    remaining = [np.asarray(c, dtype=float).copy() for c in candidates]
    scale = max(float(np.abs(np.asarray(remaining)).max()), 1e-300)
    basis = []
    while remaining and len(basis) < count:
        norms = [product(r, r) for r in remaining]
        best = max(norms)
        if best <= (tol * scale) ** 2:
            break
        # banded pivoting: take the first candidate within 10% of the best
        # norm, so exact ties (symmetric configurations) cannot make the
        # pivot flip between neighboring evaluation points
        i = next(k for k, nm in enumerate(norms) if nm >= 0.9 * best)
        s = remaining.pop(i) / math.sqrt(norms[i])
        basis.append(_sign_fix(s))
        remaining = [r - product(r, s) * s for r in remaining]
    return basis


def build_screen(candidates, model: AmbientModel, count: int, tol: float = 1e-8):
    """Orthonormalize candidate vectors under the ambient form into ``count``
    unit spacelike screen vectors, pivoting toward large remaining norms.

    Candidates whose residual norm collapses (null directions left over from
    the radical of the candidate span) are discarded.
    """
    screen = _banded_orthonormal(candidates, model.product, count, tol)
    if len(screen) < count:
        raise DegenerateBasisError(
            f"could not extract {count} spacelike screen vectors "
            f"(got {len(screen)})"
        )
    return np.array(screen)


def null_frame_coordinates(vectors, line, screen, gram) -> np.ndarray:
    """Coordinates of each row of ``vectors`` on e_2..e_{n-1}, A_n, A_{n+1}
    of the null-adapted frame on the line ``(A_0, A_1)`` and the screen rows
    e_i, with no frame built.  The frame's Gram is ``lightlike_gram``, so
    they are the pairings <v, e_i>, -<v, A_1> and -<v, A_0> (columns 0..n-3,
    n-2 and n-1), whatever partners A_n, A_{n+1} complete the frame.  Leading
    axes of all arguments but ``gram`` stack independent points.
    """
    a0, a1 = line
    basis = np.concatenate([screen, a1[..., None, :], a0[..., None, :]], axis=-2)
    paired = vectors @ np.swapaxes(basis @ gram, -1, -2)
    paired[..., screen.shape[-2] :] *= -1.0
    return paired


def _null_frame(a0, a1, screen, model: AmbientModel, scale2: float,
                action: str) -> ConformalFrame:
    """Frame (A_0, A_1, screen, A_n, A_{n+1}) with the partners in closed
    form, an explicit gauge that is smooth wherever the line and screen are:
    P y = y - sum_i <y, e_i> e_i projects off the screen, and x_n and x_{n+1}
    are the combinations of P G A_0 and P G A_1 pairing with (A_0, A_1) to
    (0, -1) and (-1, 0): a 2 x 2 inverse of (up to the screen residuals) the
    positive definite Euclidean Gram of G A_0 and G A_1.  Then
    A_n = x_n + <x_n, x_n>/2 A_1 and A_{n+1} = x_{n+1} + <x_{n+1}, x_{n+1}>/2 A_0
    are null, and adding <A_{n+1}, A_n> A_1 to A_{n+1} makes them orthogonal.
    """
    g = model.form.gram
    line = np.vstack([a0, a1])
    y = line @ g
    y = y - (y @ g @ screen.T) @ screen
    m = line @ g @ y.T
    # columns m^{-1} (0, -1) and m^{-1} (-1, 0): the combinations giving x_n, x_{n+1}
    c = np.array([[m[0, 1], -m[1, 1]], [-m[0, 0], m[1, 0]]]) / (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    x_n, x_np1 = c.T @ y
    a_n = x_n + 0.5 * float(x_n @ g @ x_n) * a1
    a_np1 = x_np1 + 0.5 * float(x_np1 @ g @ x_np1) * a0
    a_np1 = a_np1 + float(a_np1 @ g @ a_n) * a1
    vectors = np.vstack([a0, a1, screen, a_n, a_np1])
    _check_gram(vectors, model, scale2, action)
    return ConformalFrame(vectors=vectors, target_gram=lightlike_gram(model.n), model=model)


def _check_line(a0, a1):
    """Raise unless A_0 and A_1 span a line: their Euclidean angle must
    exceed 1e-6, which also keeps the 2 x 2 system of ``_null_frame``
    regular."""
    if float(a0 @ a1) ** 2 >= (1.0 - 1e-12) * float(a0 @ a0) * float(a1 @ a1):
        raise DegenerateBasisError("line vectors are dependent")


def _check_gram(rows, model: AmbientModel, scale2: float, action: str):
    """Raise unless the Gram of the leading rows of a null-adapted frame is
    within ADAPT_TOL max(1, scale2) of its target."""
    k = len(rows)
    target = lightlike_gram(model.n)[:k, :k]
    residual = float(np.abs(rows @ model.form.gram @ rows.T - target).max())
    if not residual <= ADAPT_TOL * max(1.0, scale2):
        raise DegenerateBasisError(f"frame {action} failed (gram residual {residual:.3e})")


def _lightlike_line(point, tangent_basis, model: AmbientModel, generator=None,
                    generator_scale: float = 1.0, degenerate_tol: float = 1e-7):
    """The line (A_0, A_1) and screen of ``adapt_lightlike_frame``, with its
    checks; the Gram block of the rows [A_0; A_1; screen] must meet
    ADAPT_TOL.  Their pairings give every coordinate the shape operator
    reads (``null_frame_coordinates``)."""
    a0 = np.asarray(point, dtype=float)
    basis = np.asarray(tangent_basis, dtype=float)
    n = model.n
    if basis.shape != (n - 1, n + 2):
        raise ValueError(f"tangent basis must have shape {(n - 1, n + 2)}")
    scale2 = float(a0 @ a0)
    if abs(model.quadratic(a0)) > 1e-8 * scale2:
        raise NotOnQuadricError("frame origin is not on the quadric")

    if generator is None:
        w, v = jacobi_eigh(_pullback(basis.T, model.form.gram))
        if max(float(np.abs(w).max()), 1e-300) <= 1e-14 * scale2:
            raise DegenerateBasisError("tangent basis is rank deficient")
        causal = causal_type_of_spectrum(w, degenerate_tol)
        if causal.kind != LIGHTLIKE:
            raise NotLightlikeError(
                "tangent plane is not tangent to the isotropic cone here "
                f"(induced inertia {causal.plus}+/{causal.minus}-/{causal.zero}0)"
            )
        a1 = _generator(basis, w, v, n, generator_scale)
    else:
        a1 = np.asarray(generator, dtype=float)
        if abs(model.quadratic(a1)) > 1e-8 * float(a1 @ a1):
            raise NotLightlikeError("supplied generator direction is not null")
        a1 = _generator_sign_fix(a1 / math.sqrt(float(a1 @ a1)), n) * generator_scale
    _check_line(a0, a1)
    screen = build_screen(basis, model, count=n - 2)
    _check_gram(np.vstack([a0, a1, screen]), model, scale2, "adaptation")
    return a0, a1, screen


def adapt_lightlike_frame(point, tangent_basis, model: AmbientModel, generator=None,
                          generator_scale: float = 1.0,
                          degenerate_tol: float = 1e-7) -> ConformalFrame:
    """Null-adapted frame at a point of a lightlike surface on the quadric.

    ``point`` is a homogeneous vector on the quadric, ``tangent_basis`` the
    n-1 derivative vectors spanning the embedded tangent space.  A_1 is taken
    along the null direction of the induced form, whose inertia must be
    (n-2, 0, 1), or along a supplied null ``generator``, whose caller has read
    that inertia off the same metric.  The screen comes from orthonormalizing
    the tangent directions (``_lightlike_line``), and A_n, A_{n+1} complete
    the two hyperbolic pairs in closed form (``_null_frame``).
    ``degenerate_tol`` is the relative eigenvalue threshold below which the
    induced form counts as degenerate; widen it for finite-difference jets.
    The lightlike engine builds no frame; this is for callers that need one,
    such as connection forms.
    """
    a0, a1, screen = _lightlike_line(point, tangent_basis, model, generator,
                                     generator_scale, degenerate_tol)
    return _null_frame(a0, a1, screen, model, float(a0 @ a0), "adaptation")


def complete_isotropic_frame(a0, a1, model: AmbientModel) -> ConformalFrame:
    """Null-adapted frame along a line of the quadric spanned by two given
    null, mutually orthogonal homogeneous vectors.

    When the line passes through the finite chart the screen is built from
    lifted spatial directions orthogonal to the line's null direction, which
    keeps the screen free of components along the ideal coordinate; for ideal
    lines it falls back to the orthogonal complement of the line, whose
    radical is the line itself.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    scale2 = max(float(a0 @ a0), float(a1 @ a1))
    for label, vec in (("first", a0), ("second", a1)):
        if abs(model.quadratic(vec)) > 1e-8 * scale2:
            raise NotOnQuadricError(f"{label} line vector is not on the quadric")
    if abs(model.product(a0, a1)) > 1e-8 * scale2:
        raise DegenerateBasisError("line vectors are not conjugate (line is not on the quadric)")
    _check_line(a0, a1)

    screen = build_screen(_line_screen_candidates(a0, a1, model), model, count=model.n - 2)
    return _null_frame(a0, a1, screen, model, scale2, "completion")


def _line_screen_candidates(a0, a1, model: AmbientModel):
    """Screen candidates along the line (A_0, A_1): the lifted spatial
    directions of ``_chart_screen_candidates`` where the line meets the finite
    chart, else the orthogonal complement of the line."""
    candidates = _chart_screen_candidates(a0, a1, model)
    if candidates is None:
        g = model.form.gram
        candidates = list(nullspace(np.vstack([g @ a0, g @ a1]), tol=1e-10).T)
    return candidates


def _chart_screen_candidates(a0, a1, model: AmbientModel):
    """Lifted spatial screen candidates for a line meeting the finite chart.

    Reduces the second line vector to zero ideal coordinate, reads off the
    null spatial direction, and lifts a spanning set of directions orthogonal
    to it.  Returns None when the line is ideal (no usable chart gauge).
    """
    from .conformal import lift_tangent

    n = model.n
    if abs(a0[0]) <= 1e-8 * math.sqrt(float(a0 @ a0)):
        return None
    p = a0[1 : n + 1] / a0[0]
    a1p = a1 - (a1[0] / a0[0]) * a0
    l = a1p[1 : n + 1]
    if abs(l[-1]) <= 1e-12 * math.sqrt(float(l @ l)):
        return None
    g = model.metric.gram
    candidates = []
    for k in range(n - 1):
        e = np.zeros(n)
        e[k] = 1.0
        # make e orthogonal to the null direction by shifting along the time
        # axis, which never annihilates a nonzero null vector
        v = e.copy()
        v[-1] += float(e @ g @ l) / l[-1]
        candidates.append(lift_tangent(p, v, model))
    return candidates


@dataclass(frozen=True)
class ConnectionForms:
    """Connection matrices omega_xi^eta per parameter direction.

    ``omega[a]`` is the matrix applied when moving in parameter direction a;
    row index xi, column index eta, so that dA_xi = omega_xi^eta A_eta.
    """

    omega: np.ndarray
    step: float
    gram: np.ndarray
    n: int

    def direction(self, a: int) -> np.ndarray:
        return self.omega[a]

    def gram_relation_residual(self) -> float:
        """Max violation of omega G + G omega^T = 0 over all directions;
        covers every differentiated Gram normalization at once."""
        worst = 0.0
        for om in self.omega:
            worst = max(worst, float(np.abs(om @ self.gram + self.gram @ om.T).max()))
        return worst

    def named_relation_residuals(self) -> dict[str, float]:
        """Residuals of the individually named pairing relations.

        Keys follow the index layout of the frame: hyperbolic-pair relations
        for (A_0, A_{n+1}) always apply; the null-pair relations for
        (A_1, A_n) apply to lightlike-adapted frames.
        """
        n = self.n
        out: dict[str, float] = {}
        mx = lambda vals: float(np.abs(np.asarray(vals)).max())
        out["w[n+1,0]"] = mx([om[n + 1, 0] for om in self.omega])
        out["w[0,n+1]"] = mx([om[0, n + 1] for om in self.omega])
        out["w[0,0]+w[n+1,n+1]"] = mx(
            [om[0, 0] + om[n + 1, n + 1] for om in self.omega]
        )
        g_rs = self.gram[1 : n + 1, 1 : n + 1]
        res9 = []
        for om in self.omega:
            res9.append(om[1 : n + 1, n + 1] - g_rs @ om[0, 1 : n + 1])
            res9.append(om[1 : n + 1, 0] - g_rs @ om[n + 1, 1 : n + 1])
        out["w[r,n+1]-g_rs.w[0,s]"] = mx(np.concatenate([r.ravel() for r in res9[0::2]]))
        out["w[r,0]-g_rs.w[n+1,s]"] = mx(np.concatenate([r.ravel() for r in res9[1::2]]))
        gdot = []
        for om in self.omega:
            block = om[1 : n + 1, 1 : n + 1]
            gdot.append(g_rs @ block.T + block @ g_rs)
        out["dg_rs"] = mx(np.concatenate([g.ravel() for g in gdot]))
        return out

    def lightlike_relation_residuals(self) -> dict[str, float]:
        """Residuals of the relations specific to null-adapted frames,
        including the screen compatibility w[1,i] = g^{ij} w[j,n]."""
        n = self.n
        mx = lambda vals: float(np.abs(np.asarray(vals)).max())
        out: dict[str, float] = {}
        out["w[1,n]"] = mx([om[1, n] for om in self.omega])
        out["w[n,1]"] = mx([om[n, 1] for om in self.omega])
        out["w[1,1]+w[n,n]"] = mx([om[1, 1] + om[n, n] for om in self.omega])
        out["w[0,n]+w[1,n+1]"] = mx([om[0, n] + om[1, n + 1] for om in self.omega])
        out["w[0,1]+w[n,n+1]"] = mx([om[0, 1] + om[n, n + 1] for om in self.omega])
        g_ij = self.gram[2:n, 2:n]
        g_inv = inverse(g_ij) if n > 2 else np.eye(0)
        res = []
        for om in self.omega:
            res.append(om[1, 2:n] - g_inv @ om[2:n, n])
        out["w[1,i]-g^ij.w[j,n]"] = mx(np.concatenate(res)) if res else 0.0
        return out


def _frame_matrix(frame_or_matrix) -> np.ndarray:
    if isinstance(frame_or_matrix, ConformalFrame):
        return np.asarray(frame_or_matrix.vectors, dtype=float)
    return np.asarray(frame_or_matrix, dtype=float)


def connection_forms(frame_field, u, model_or_gram, step: float = DEFAULT_STEP):
    """Connection matrices of a frame field at u by central differences.

    ``frame_field`` maps a parameter vector to a ConformalFrame (or a raw
    frame matrix).  ``model_or_gram`` provides the target Gram used by the
    relation residual checks.
    """
    u = np.asarray(u, dtype=float)
    center = _frame_matrix(frame_field(u))
    dim = center.shape[0]
    n = dim - 2
    f_inv = inverse(center)
    omegas = np.empty((u.shape[0], dim, dim))
    for a in range(u.shape[0]):
        e = np.zeros_like(u)
        e[a] = step
        fp = _frame_matrix(frame_field(u + e))
        fm = _frame_matrix(frame_field(u - e))
        omegas[a] = ((fp - fm) / (2.0 * step)) @ f_inv
    if isinstance(model_or_gram, AmbientModel):
        gram = center @ model_or_gram.form.gram @ center.T
    else:
        gram = np.asarray(model_or_gram, dtype=float)
    return ConnectionForms(omega=omegas, step=step, gram=gram, n=n)


def structure_residual(frame_field, u, model_or_gram, step: float = DEFAULT_STEP) -> float:
    """Max norm of d omega - omega ^ omega over all direction pairs,
    evaluated by nested central differences; O(h^2) for smooth fields."""
    u = np.asarray(u, dtype=float)
    d = u.shape[0]
    if d < 2:
        raise ValueError("structure residual needs at least two parameters")

    def omega_at(v):
        return connection_forms(frame_field, v, model_or_gram, step=step).omega

    center = omega_at(u)
    plus = []
    minus = []
    for c in range(d):
        e = np.zeros(d)
        e[c] = step
        plus.append(omega_at(u + e))
        minus.append(omega_at(u - e))
    worst = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            # d omega(e_a, e_b) = da omega_b - db omega_a
            da_ob = (plus[a][b] - minus[a][b]) / (2.0 * step)
            db_oa = (plus[b][a] - minus[b][a]) / (2.0 * step)
            bracket = center[a] @ center[b] - center[b] @ center[a]
            worst = max(worst, float(np.abs(da_ob - db_oa - bracket).max()))
    return worst
