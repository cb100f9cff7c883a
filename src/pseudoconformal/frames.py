"""Adapted moving frames on the quadric and their connection forms.

A conformal frame is an ordered (n+2)-tuple of homogeneous vectors
A_0, ..., A_{n+1} with a prescribed Gram matrix under the ambient form.  Two
normalizations are used here:

* the null-adapted Gram, with two hyperbolic pairs (A_0, A_{n+1}) and
  (A_1, A_n) pairing to -1 and a positive definite screen block on
  A_2, ..., A_{n-1} (normalized to the identity);
* arbitrary constant-Gram frames, for which the compatibility relations
  between the connection matrix and the Gram matrix are checked numerically.

The engines build no frame, only the line (A_0, A_1) and its screen, for a
whole grid in array passes (``_lightlike_lines``, ``_line_screen_candidates``
and ``build_screen``); the frame builders are their one-point cases.
Connection forms are extracted from a frame field F(u) by central
differences of dF = omega F; the structure identity
d omega = omega ^ omega then holds up to O(h^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conformal import AmbientModel
from .errors import DegenerateBasisError, GeometryError, NotLightlikeError, NotOnQuadricError
from .hypersurface import DEFAULT_STEP, LIGHTLIKE_TOL, _central, _pullback, _stencil_offsets
from .linalg import _dots, _inertia, inverse, jacobi_eigh, orthonormal_rows, solve

#: Gram residual every adapted frame must meet
ADAPT_TOL = 1e-10


def lightlike_gram(n: int) -> np.ndarray:
    """Target Gram matrix of a null-adapted frame with identity screen block:
    (A_0, A_{n+1}) = (A_1, A_n) = -1, (A_i, A_j) = delta_ij, rest zero."""
    g = np.zeros((n + 2, n + 2))
    g[0, n + 1] = g[n + 1, 0] = -1.0
    g[1, n] = g[n, 1] = -1.0
    g[range(2, n), range(2, n)] = 1.0
    return g


def spacelike_gram(n: int) -> np.ndarray:
    """Target Gram of a frame adapted to a spacelike hypersurface: identity
    screen on A_1..A_{n-1}, tangent element normalized to (A_n, A_n) = -1,
    hyperbolic pair (A_0, A_{n+1})."""
    g = np.zeros((n + 2, n + 2))
    g[0, n + 1] = g[n + 1, 0] = -1.0
    g[range(1, n), range(1, n)] = 1.0
    g[n, n] = -1.0
    return g


def timelike_gram(n: int) -> np.ndarray:
    """Target Gram of a frame adapted to a timelike hypersurface: the tangent
    element is normalized to (A_n, A_n) = +1 instead, and the Lorentz
    direction moves into the screen block."""
    g = np.zeros((n + 2, n + 2))
    g[0, n + 1] = g[n + 1, 0] = -1.0
    g[range(1, n), range(1, n)] = 1.0
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


def _orthonormal_screens(stack, gram, count: int) -> tuple:
    """Up to ``count`` rows orthonormal under ``gram`` from each member of a
    stack of candidates (N, r, m), by pivoted Gram-Schmidt in one pass: the
    rows (N, count, m), zero after a member's count, and the counts (N,).
    A member stops once every remaining norm is at most (1e-8 times its
    largest entry) squared.  The banded pivot, the first candidate within
    10% of the largest norm, keeps exact ties (symmetric configurations)
    from flipping it between neighbouring points.  Each row is signed so its
    largest coordinate is positive.  No member depends on the rest."""
    v = np.array(stack, dtype=float)
    size, rows, _ = v.shape
    members = np.arange(size)
    floor = (1e-8 * np.maximum(np.abs(v).max(axis=(1, 2), initial=0.0), 1e-300)) ** 2
    bases = np.zeros((size, count, v.shape[2]))
    counts = np.zeros(size, dtype=int)
    active = np.ones(size, dtype=bool)
    left = np.ones((size, rows), dtype=bool)  # candidates not yet taken as a pivot
    last = min(count, rows) - 1
    for k in range(last + 1):
        vg = v @ gram
        norms = np.where(left, _dots(vg, v), -np.inf)
        best = norms.max(axis=1)
        active &= best > floor
        if not active.any():
            break
        pivot = (left & (norms >= 0.9 * best[:, None])).argmax(axis=1)
        norm = np.where(active, norms[members, pivot], 1.0)
        s = np.where(active[:, None], v[members, pivot] / np.sqrt(norm)[:, None], 0.0)
        lead = np.take_along_axis(s, np.abs(s).argmax(axis=1)[:, None], axis=1)
        bases[:, k] = np.where(lead >= 0, s, -s)
        counts += active
        if k < last:  # deflate the candidates for the next pivot
            left[members, pivot] = False
            v = v - _dots(vg, s[:, None, :])[..., None] * s[:, None, :]
    return bases, counts


def _screen_error(count: int, got: int) -> DegenerateBasisError:
    return DegenerateBasisError(f"could not extract {count} spacelike screen vectors "
                                f"(got {got})")


def build_screen(candidates, model: AmbientModel, count: int):
    """``count`` unit spacelike screen vectors orthonormalized from candidate
    vectors under the ambient form (``_orthonormal_screens``); candidates
    whose residual collapses (null directions of the span's radical) are
    dropped.  A stack (N, r, m) gives the screens (N, count, m) and each
    member's count (N,)."""
    return _orthonormal_screens(candidates, model.form.gram, count)


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
    exc = _gram_gate(vectors[None], model, scale2, action).get(0)
    if exc is not None:
        raise exc
    return ConformalFrame(vectors=vectors, target_gram=lightlike_gram(model.n), model=model)


def _collinear(a0, a1) -> np.ndarray:
    """Whether the Euclidean angle of A_0 and A_1 is at most 1e-6, per line of
    a stack; a larger one also keeps the 2 x 2 system of ``_null_frame``
    regular."""
    return _dots(a0, a1) ** 2 >= (1.0 - 1e-12) * _dots(a0, a0) * _dots(a1, a1)


def _gram_gate(rows, model: AmbientModel, scale2, action: str) -> dict:
    """Index -> DegenerateBasisError of each member of a stack of leading
    rows (N, k, n+2) of null-adapted frames whose Gram is not within
    ADAPT_TOL max(1, scale2) of its target; a NaN residual fails."""
    k = rows.shape[-2]
    target = lightlike_gram(model.n)[:k, :k]
    residual = np.abs(rows @ model.form.gram @ np.swapaxes(rows, -1, -2) - target).max(axis=(1, 2))
    passed = residual <= ADAPT_TOL * np.maximum(1.0, scale2)
    return {i: DegenerateBasisError(f"frame {action} failed (gram residual {residual[i]:.3e})")
            for i in np.flatnonzero(~passed).tolist()}


def _lightlike_lines(points, tangent_rows, model: AmbientModel, generators=None,
                     generator_scale: float = 1.0) -> tuple:
    """A_0, A_1, screens (N, n-2, n+2) and failures (index -> exception, as
    in ``lightlike._JetStack``) of ``adapt_lightlike_frame`` at a stack of
    base points (N, n+2) with tangent rows (N, n-1, n+2) and, if given, null
    generators (N, n+2), in array passes.  A member fails with the first
    failed check of: A_0 on the quadric; the generator null, or else the
    rows of full rank with lightlike inertia; A_0 and A_1 independent; n-2
    screen vectors; the Gram of [A_0; A_1; screen] within ADAPT_TOL.  Their
    pairings give every coordinate the shape operator reads."""
    a0 = np.asarray(points, dtype=float)
    rows = np.asarray(tangent_rows, dtype=float)
    n, g = model.n, model.form.gram
    if rows.shape[1:] != (n - 1, n + 2):
        raise ValueError(f"tangent basis must have shape {(n - 1, n + 2)}")
    failures = {}

    def fail(mask, error):
        for i in np.flatnonzero(mask).tolist():
            failures.setdefault(i, error(i))

    with np.errstate(invalid="ignore", divide="ignore"):  # failed members only
        scale2 = _dots(a0, a0)
        fail(np.abs(_dots(a0 @ g, a0)) > 1e-8 * scale2,
             lambda i: NotOnQuadricError("frame origin is not on the quadric"))
        if generators is None:
            w, v = jacobi_eigh(_pullback(np.swapaxes(rows, 1, 2), g))
            fail(np.maximum(np.abs(w).max(axis=1), 1e-300) <= 1e-14 * scale2,
                 lambda i: DegenerateBasisError("tangent basis is rank deficient"))
            plus, minus, zero, _ = _inertia(w, LIGHTLIKE_TOL)
            fail((minus != 0) | (zero != 1), lambda i: NotLightlikeError(
                "tangent plane is not tangent to the isotropic cone here "
                f"(induced inertia {plus[i]}+/{minus[i]}-/{zero[i]}0)"))
            a1 = _generator(rows, w, v, n, generator_scale)
        else:
            a1 = np.asarray(generators, dtype=float)
            norm2 = _dots(a1, a1)
            fail(np.abs(_dots(a1 @ g, a1)) > 1e-8 * norm2,
                 lambda i: NotLightlikeError("supplied generator direction is not null"))
            a1 = _generator_sign_fix(a1 / np.sqrt(norm2)[:, None], n) * generator_scale
        fail(_collinear(a0, a1), lambda i: DegenerateBasisError("line vectors are dependent"))
        screens, counts = build_screen(rows, model, count=n - 2)
        fail(counts < n - 2, lambda i: _screen_error(n - 2, counts[i]))
        gate = _gram_gate(np.concatenate([a0[:, None], a1[:, None], screens], axis=1), model,
                          scale2, "adaptation")
    for i, exc in gate.items():
        failures.setdefault(i, exc)
    return a0, a1, screens, failures


def adapt_lightlike_frame(point, tangent_basis, model: AmbientModel, generator=None,
                          generator_scale: float = 1.0) -> ConformalFrame:
    """Null-adapted frame at a point of a lightlike surface on the quadric.

    ``point`` is a homogeneous vector on the quadric, ``tangent_basis`` the
    n-1 derivative vectors spanning the embedded tangent space.  A_1 is taken
    along the null direction of the induced form, whose inertia must be
    (n-2, 0, 1), or along a supplied null ``generator``, whose caller has read
    that inertia off the same metric.  The screen comes from orthonormalizing
    the tangent directions, and A_n, A_{n+1} complete the two hyperbolic
    pairs in closed form (``_null_frame``): the one-point case of
    ``_lightlike_lines``.  Induced eigenvalues below ``LIGHTLIKE_TOL`` times
    their spectral radius count as zero.  The lightlike engine builds no
    frame; this is for callers that need one, such as connection forms.
    """
    a0, a1, screens, failures = _lightlike_lines(
        np.asarray(point, dtype=float)[None], np.asarray(tangent_basis, dtype=float)[None],
        model, None if generator is None else np.asarray(generator, dtype=float)[None],
        generator_scale)
    if failures:
        raise failures[0]
    return _null_frame(a0[0], a1[0], screens[0], model, float(a0[0] @ a0[0]), "adaptation")


def complete_isotropic_frame(a0, a1, model: AmbientModel) -> ConformalFrame:
    """Null-adapted frame along a line of the quadric spanned by two given
    null, mutually orthogonal homogeneous vectors.

    A line through the finite chart gets its screen from lifted spatial
    directions, which keeps it free of components along the ideal
    coordinate; an ideal line from its orthogonal complement, whose radical
    is the line itself: the one-point case of the congruence engine's screen
    (``_line_screen_candidates``).
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    if not (np.isfinite(a0).all() and np.isfinite(a1).all()):
        raise GeometryError("line vectors have non-finite coordinates")
    scale2 = max(float(a0 @ a0), float(a1 @ a1))
    for label, vec in (("first", a0), ("second", a1)):
        if abs(model.quadratic(vec)) > 1e-8 * scale2:
            raise NotOnQuadricError(f"{label} line vector is not on the quadric")
    if abs(model.product(a0, a1)) > 1e-8 * scale2:
        raise DegenerateBasisError("line vectors are not conjugate (line is not on the quadric)")
    if _collinear(a0, a1):
        raise DegenerateBasisError("line vectors are dependent")
    screens, counts = build_screen(_line_screen_candidates(a0[None], a1[None], model), model,
                                   count=model.n - 2)
    if counts[0] < model.n - 2:
        raise _screen_error(model.n - 2, counts[0])
    return _null_frame(a0, a1, screens[0], model, scale2, "completion")


def _line_screen_candidates(a0, a1, model: AmbientModel) -> np.ndarray:
    """Screen candidates (N, r, n+2) along a stack of lines (A_0, A_1).  For
    a line meeting the finite chart, in closed form: A_1 reduced to zero
    ideal coordinate gives the null spatial direction l, each unit e_k
    (k < n-1) is shifted along the time axis to be orthogonal to l (which
    never annihilates a nonzero null vector) and lifted at the chart point.
    For an ideal line, the line's orthogonal complement: the unit vectors
    projected off the span of G A_0 and G A_1, orthonormalized (each span
    one ``orthonormal_rows`` pass over the ideal lines).  Zero rows, which
    never pivot, pad the chart members of a stack with an ideal line."""
    n, g = model.n, model.form.gram
    with np.errstate(invalid="ignore", divide="ignore"):  # ideal members only
        p = a0[:, 1 : n + 1] / a0[:, :1]
        l = (a1 - (a1[:, :1] / a0[:, :1]) * a0)[:, 1 : n + 1]
        chart = ((np.abs(a0[:, 0]) > 1e-8 * np.sqrt(_dots(a0, a0)))
                 & (np.abs(l[:, -1]) > 1e-12 * np.sqrt(_dots(l, l))))
        v = np.zeros((len(a0), n - 1, n))
        v[:, :, : n - 1] = np.eye(n - 1)
        v[:, :, -1] += (l @ model.metric.gram)[:, : n - 1] / l[:, -1:]
    ideal = np.flatnonzero(~chart)
    candidates = np.zeros((len(a0), n if ideal.size else n - 1, n + 2))
    candidates[chart, : n - 1, 1 : n + 1] = v[chart]
    candidates[chart, : n - 1, n + 1] = _dots((p[chart] @ model.metric.gram)[:, None], v[chart])
    if ideal.size:
        span = orthonormal_rows(np.stack([a0[ideal], a1[ideal]], axis=1) @ g)[0]
        complement = orthonormal_rows(np.eye(n + 2) - np.swapaxes(span, 1, 2) @ span)[0]
        candidates[ideal] = complement[:, :n]
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

    def gram_relation_residual(self) -> float:
        """Max violation of omega G + G omega^T = 0 over all directions;
        covers every differentiated Gram normalization at once."""
        om = self.omega
        return float(np.abs(om @ self.gram + self.gram @ np.swapaxes(om, 1, 2)).max())

    def named_relation_residuals(self) -> dict[str, float]:
        """Residuals of the individually named pairing relations.

        Keys follow the index layout of the frame: hyperbolic-pair relations
        for (A_0, A_{n+1}) always apply; the null-pair relations for
        (A_1, A_n) apply to lightlike-adapted frames.
        """
        n, om = self.n, self.omega
        g_rs = self.gram[1 : n + 1, 1 : n + 1]
        block = om[:, 1 : n + 1, 1 : n + 1]
        return {key: float(np.abs(value).max()) for key, value in (
            ("w[n+1,0]", om[:, n + 1, 0]),
            ("w[0,n+1]", om[:, 0, n + 1]),
            ("w[0,0]+w[n+1,n+1]", om[:, 0, 0] + om[:, n + 1, n + 1]),
            ("w[r,n+1]-g_rs.w[0,s]", om[:, 1 : n + 1, n + 1] - om[:, 0, 1 : n + 1] @ g_rs.T),
            ("w[r,0]-g_rs.w[n+1,s]", om[:, 1 : n + 1, 0] - om[:, n + 1, 1 : n + 1] @ g_rs.T),
            ("dg_rs", g_rs @ np.swapaxes(block, 1, 2) + block @ g_rs))}

    def lightlike_relation_residuals(self) -> dict[str, float]:
        """Residuals of the relations specific to null-adapted frames,
        including the screen compatibility w[1,i] = g^{ij} w[j,n]."""
        n, om = self.n, self.omega
        g_inv = inverse(self.gram[2:n, 2:n])
        return {key: float(np.abs(value).max()) for key, value in (
            ("w[1,n]", om[:, 1, n]),
            ("w[n,1]", om[:, n, 1]),
            ("w[1,1]+w[n,n]", om[:, 1, 1] + om[:, n, n]),
            ("w[0,n]+w[1,n+1]", om[:, 0, n] + om[:, 1, n + 1]),
            ("w[0,1]+w[n,n+1]", om[:, 0, 1] + om[:, n, n + 1]),
            ("w[1,i]-g^ij.w[j,n]", om[:, 1, 2:n] - om[:, 2:n, n] @ g_inv.T))}


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
    frames = np.array([_frame_matrix(frame_field(p)) for p in u + _stencil_offsets(len(u), step)])
    center, n = frames[0], len(frames[0]) - 2
    omegas = _central(frames[None, 1:], step)[0] @ inverse(center)
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

    omegas = np.array([omega_at(p) for p in u + _stencil_offsets(d, step)])
    center, d_omega = omegas[0], _central(omegas[None, 1:], step)[0]  # d_omega[a, b] = d_a omega_b
    worst = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            # d omega(e_a, e_b) = da omega_b - db omega_a
            bracket = center[a] @ center[b] - center[b] @ center[a]
            worst = max(worst, float(np.abs(d_omega[a, b] - d_omega[b, a] - bracket).max()))
    return worst
