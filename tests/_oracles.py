"""Independent oracles used by the tests.

Nothing here calls the library's own solvers: matrix functions come from
explicit series or from numpy.linalg, jets from the immersion's own point,
Jacobian and Hessian lifted with ``lift_point``/``lift_tangent`` or written
out, and singular generator positions from a brute-force rank scan along the
line, so agreement with the library's characteristic-root route is a genuine
two-sided check.  Root clusters come from the nested-list rule that the
library's stacked clustering replaced, one value at a time, and single
symmetric eigenproblems, solves, determinants, characteristic polynomials
and polynomial roots from the one-matrix loops that the stacked passes
replaced; stacked eigenproblems also from the member-first Jacobi pass that
the member-last one replaced, induced-metric spectra from the stacked pass
that decomposed every J^T J before the closed-form rank certificate, and
orthonormal rows from the routine that deflated after its last pivot.  The
leaf integrator's reference checks every pass of its RK4 runs as soon as it
is made, which the integrator defers to one check at the end.
The tangential-degeneracy reference is the kernel flow that the closed-form
check replaced: RK4 along the numpy.linalg.eigh kernel field, and principal
angles from numpy.linalg.svd.  Curved leaves come from the cone congruence in
bent parameters, whose leaves keep a closed-form invariant.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from pseudoconformal import catalog
from pseudoconformal.congruence import IsotropicCongruence, _kernel_projections, _line_checks
from pseudoconformal.conformal import (AtInfinity, ProjectivePoint, darboux_unembed, lift_point,
                                      lift_tangent)
from pseudoconformal.errors import ConvergenceError, DegenerateBasisError, GeometryError
from pseudoconformal.frames import _lightlike_lines, complete_isotropic_frame
from pseudoconformal.hypersurface import _evaluation_error


def expm(a, terms=30):
    """Matrix exponential by scaling and squaring a Taylor series."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 1)
    x = a / 2.0**squarings
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def quadric_algebra_generator(gram, rng):
    """Random generator B with B gram + gram B^T = 0, i.e. the flow of
    exp(tB) preserves frames with the given Gram matrix."""
    dim = gram.shape[0]
    k = rng.normal(size=(dim, dim))
    k = k - k.T
    return k @ np.linalg.inv(gram)


def eigh_jet(imm, u, model):
    """Jet of the immersion at u lifted to the quadric, with its unit null
    generator: (A_0, rows dA_0 (params, n+2), induced metric, A_1).  The
    point and Jacobian are evaluated once each; a chart immersion is lifted
    with lift_point/lift_tangent and its metric is J^T g J, a homogeneous
    one keeps its coordinates and pulls back the quadric's polar form.  A_1
    is the image of the numpy.linalg.eigh kernel of the metric, with a
    positive time slot."""
    p, j = imm.point(u), imm.jet1(u)
    if imm.homogeneous:
        a0, rows, gram = p, j.T, model.form.gram
    else:
        a0 = lift_point(p, model)
        rows = np.array([lift_tangent(p, j[:, a], model) for a in range(imm.params)])
        gram = model.metric.gram
    metric = j.T @ gram @ j
    metric = 0.5 * (metric + metric.T)
    w, v = np.linalg.eigh(metric)
    g = rows.T @ v[:, np.argmin(np.abs(w))]
    g = g / np.linalg.norm(g)
    return a0, rows, metric, g * np.sign(g[model.n])


def _generator_derivative(imm, u, model):
    """Exact dA_1 (params, n+2) of the eigh_jet generator, from imm.jet2(u).

    With a = R^T k the image of the unit kernel column k of the induced
    metric M, the kernel moves by d_b k = -M^+ (d_b M) k, M^+ the
    numpy.linalg.pinv of M cut at the lightlike threshold 1e-7, and the
    generator s a / |a| by s (d_b a / |a| - a (a . d_b a) / |a|^3), its part
    along A_1 included.  d_b J is the Hessian column H_{.b}; a chart row
    (0, J_a, <p, J_a>) moves by (0, H_ab, <J_b, J_a> + <p, H_ab>).
    """
    p, j, h = imm.point(u), imm.jet1(u), imm.jet2(u)
    d = imm.params
    a0, rows, metric, g = eigh_jet(imm, u, model)
    gram = model.form.gram if imm.homogeneous else model.metric.gram
    w, v = np.linalg.eigh(metric)
    k = v[:, np.argmin(np.abs(w))]
    pinv = np.linalg.pinv(metric, rtol=1e-7, hermitian=True)
    a = rows.T @ k
    norm = np.linalg.norm(a)
    da1 = np.empty((d, model.n + 2))
    for b in range(d):
        hb = h[:, :, b]
        if imm.homogeneous:
            drows = hb.T
        else:
            drows = np.array([np.concatenate([[0.0], hb[:, c], [j[:, b] @ gram @ j[:, c]
                                                               + p @ gram @ hb[:, c]]])
                              for c in range(d)])
        dmetric = hb.T @ gram @ j + j.T @ gram @ hb
        da = drows.T @ k - rows.T @ (pinv @ dmetric @ k)
        da1[b] = np.sign(g @ a) * (da / norm - a * (a @ da) / norm**3)
    return da1


def _line_fields_hypersurface(imm, u, model, step=1e-4):
    """A_0, A_1, dA_0 and central differences dA_1 of the eigh_jet
    generators."""
    a0, rows, _, a1 = eigh_jet(imm, u, model)
    d = imm.params
    da1 = np.empty((d, model.n + 2))
    for a in range(d):
        e = np.zeros(d)
        e[a] = step
        da1[a] = (eigh_jet(imm, u + e, model)[3] - eigh_jet(imm, u - e, model)[3]) / (2 * step)
    return a0, a1, rows, da1


def focal_reference(imm, u, model, cluster_radius=1e-6):
    """Per-point reference for the focal set at u: (x, multiplicity, target)
    per root, sorted by x.  Eigenvalues within cluster_radius (1 + |x|) of a
    root's smallest one make up the root, whose x is their mean; target is
    its finite focal point or, at infinity, the normalized projective
    coordinates.

    The generator at u is the numpy.linalg.eigh kernel image, and dA_1 its
    exact derivative (``_generator_derivative``).  The line (A_0, A_1) and
    the screen, with their checks, are the library's.  The frame is completed by two
    numpy.linalg.svd null vectors of [screen G; A_0; A_1] (any completion off
    the screen gives the same screen coordinates), and the screen
    coordinates c of dA_0 and dd of dA_1 come from numpy.linalg.solve.  The
    relation dd = c lam^T is read on the complement of the numpy.linalg.eigh
    kernel of the induced metric (c annihilates the kernel, so V^T c is a
    square, invertible block for the other eigenvectors V) with
    numpy.linalg.solve, and the roots are the negated numpy.linalg.eigvalsh
    eigenvalues of the symmetrized operator.  Raises whatever the library's
    line and screen checks raise.
    """
    n = imm.n
    a0, rows, metric, g = eigh_jet(imm, u, model)
    line = _lightlike_lines(a0[None], rows[None], model, generators=g[None])
    if line[3]:
        raise line[3][0]
    a0, a1, screen = (x[0] for x in line[:3])
    lines = np.vstack([screen @ model.form.gram, a0, a1])
    frame = np.vstack([a0, a1, screen, np.linalg.svd(lines)[2][n:]])
    da1 = _generator_derivative(imm, u, model)
    c = np.linalg.solve(frame.T, rows.T).T[:, 2:n]
    dd = np.linalg.solve(frame.T, da1.T).T[:, 2:n]
    w, v = np.linalg.eigh(metric)
    complement = v[:, np.argsort(np.abs(w))[1:]]
    lam = np.linalg.solve(complement.T @ c, complement.T @ dd).T
    roots = []
    for x in np.sort(-np.linalg.eigvalsh(0.5 * (lam + lam.T))):
        if roots and x - roots[-1][0] <= cluster_radius * (1.0 + abs(roots[-1][0])):
            roots[-1].append(x)
        else:
            roots.append([x])
    out = []
    for group in roots:
        x = float(np.mean(group))
        target = darboux_unembed(ProjectivePoint(a1 + x * a0), model)
        out.append((x, len(group),
                    target.point.coords if isinstance(target, AtInfinity) else target))
    return out


#: the kernel flow reference's step count each way, its arc, its focal stop
#: radius in chart coordinates and its rate neighbours' step
FLOW_STEPS, FLOW_ARC, FLOW_FOCAL_RADIUS, FLOW_RATE_STEP = 5, 0.25, 0.05, 1e-4

DegeneracyFlow = namedtuple("DegeneracyFlow", "max_angle tangent_rank samples skipped rates")


def _eigh_kernel(imm, u, model):
    """The unit numpy.linalg.eigh kernel column of the induced metric at u
    and the span [A_0; rows] there, or None where the jet fails or the
    metric is not degenerate with a one-dimensional kernel."""
    try:
        a0, rows, metric, _ = eigh_jet(imm, u, model)
    except (ValueError, ArithmeticError):
        return None
    if not (np.isfinite(metric).all() and np.isfinite(rows).all() and np.isfinite(a0).all()):
        return None
    w, v = np.linalg.eigh(metric)
    order = np.argsort(np.abs(w))
    radius = np.abs(w).max()
    if not (abs(w[order[0]]) <= 1e-7 * radius < abs(w[order[1]])):
        return None
    return v[:, order[0]], v[:, order[1:]], np.vstack([a0, rows])


def _sine_of_largest_angle(span_a, span_b):
    """Sine of the largest principal angle between two row spans of equal
    rank, from numpy.linalg.svd: the largest singular value of span_a's
    orthonormal basis minus its projection on span_b's (1 for other ranks)."""
    bases = []
    for span in (span_a, span_b):
        _, sv, vt = np.linalg.svd(span)
        bases.append(vt[: int((sv > 1e-12 * sv[0]).sum())])
    qa, qb = bases
    if len(qa) != len(qb):
        return 1.0
    return float(np.linalg.svd(qa - (qa @ qb.T) @ qb, compute_uv=False)[0])


def degeneracy_flow_reference(imm, u, model, arc=FLOW_ARC, steps=FLOW_STEPS):
    """The tangential degeneracy of the Darboux image at u by the kernel
    flow: the span [A_0; rows] at u is compared, by its largest principal
    angle, with the spans at samples along the generator curve through u,
    and the rank is the number of directions of an orthonormal parameter
    basis (the kernel column k first) along which it turns at a rate above
    max(1e-6, 1e-3 times the fastest) between u and u + 1e-4 d.

    The curve integrates the unit numpy.linalg.eigh kernel field by RK4 in
    ``steps`` steps of arc / steps each way, carrying the direction's sign,
    and a run ends where a stage is not a regular lightlike point.  A run's
    samples end at the first that is not one either, or lies within
    FLOW_FOCAL_RADIUS of a finite focal point of u (``focal_reference``) in
    the chart coordinates x^r / x^0; that sample is skipped.  Angles are
    arcsines of ``_sine_of_largest_angle``.  Returns the largest angle, the
    rank, the samples used, those skipped and the rates."""
    n, h = imm.n, arc / steps
    centre = _eigh_kernel(imm, u, model)
    if centre is None:
        raise GeometryError(f"not a regular lightlike point at u={np.asarray(u).tolist()}")
    k0, others, span0 = centre
    k0 = k0 if k0[np.argmax(np.abs(k0))] > 0 else -k0
    focal = [t for _, _, t in focal_reference(imm, u, model) if len(t) == n]

    def aligned(x, ref):
        got = _eigh_kernel(imm, x, model)
        if got is None:
            raise GeometryError(f"not a regular lightlike point at u={x.tolist()}")
        return got[0] if got[0] @ ref >= 0.0 else -got[0]

    used, skipped = [], []
    for sign in (1.0, -1.0):
        x, k1, run = np.array(u, dtype=float), sign * k0, []
        try:
            for step in range(steps):
                k1 = aligned(x, k1) if step else k1
                k2 = aligned(x + 0.5 * h * k1, k1)
                k3 = aligned(x + 0.5 * h * k2, k2)
                k4 = aligned(x + h * k3, k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                run.append(x.copy())
        except GeometryError:
            pass
        for sample in run:
            got = _eigh_kernel(imm, sample, model)
            chart = None if got is None else got[2][0, 1 : n + 1] / got[2][0, 0]
            if got is None or any(np.linalg.norm(chart - f) < FLOW_FOCAL_RADIUS for f in focal):
                skipped.append(tuple(sample.tolist()))
                break
            used.append((tuple(sample.tolist()), got[2]))
    angles = [math.asin(min(1.0, _sine_of_largest_angle(span0, span))) for _, span in used]
    rates = []
    for direction in np.vstack([k0, others.T]):
        got = _eigh_kernel(imm, np.asarray(u, dtype=float) + FLOW_RATE_STEP * direction, model)
        if got is None:
            raise GeometryError(f"rate neighbour of u={np.asarray(u).tolist()} is not regular")
        rates.append(math.asin(min(1.0, _sine_of_largest_angle(span0, got[2])))
                     / FLOW_RATE_STEP)
    rates = np.array(rates)
    return DegeneracyFlow(max(angles, default=0.0),
                          int((rates > max(1e-6, 1e-3 * rates.max())).sum()),
                          tuple(s for s, _ in used), tuple(skipped), tuple(rates.tolist()))


def translated_congruence(imm, last, model, t_range=(-0.5, 0.5)):
    """The normal congruence swept by the time translates of a lightlike
    chart immersion f across its generators: on the slice of parameters
    u = (v, last), its line at (v, t) runs through f(v, last) + t e_n along
    the generator there, the image under the Jacobian of the
    numpy.linalg.eigh kernel of the induced metric (scaled to time
    component 1, so the line field is smooth).  Its leaves t = const are the
    translates of f, so its singular points are f's focal points, translated.
    """
    n = imm.n

    def base(w):
        p = np.array(imm.point(np.append(w[:-1], last)), dtype=float)
        p[n - 1] += w[-1]
        return p

    def direction(w):
        j = imm.jet1(np.append(w[:-1], last))
        w_, v = np.linalg.eigh(j.T @ model.metric.gram @ j)
        g = j @ v[:, np.argmin(np.abs(w_))]
        return g / g[n - 1]

    return IsotropicCongruence.from_null_lines(n, tuple(imm.domain[:-1]) + (t_range,), base,
                                               direction)


def bent_cone_congruence(n, bend=1.5):
    """The cone congruence of C^n_1 (catalog ``cone_normal_congruence``)
    reparametrized by (s, t) -> (s, t + bend |s|^2), s the first n-2
    parameters: its line at (s, t) is the cone's at (s, t + bend |s|^2), and
    it broadcasts as the cone's does.  The cone's leaves are
    u_last = const, so these leaves are the curved level sets of
    ``bent_leaf_invariant``, curves at n = 3 and surfaces at n = 4."""
    cone = catalog.build("cone_normal_congruence", n=n)

    def unbend(u):
        u = np.array(u, dtype=float)
        u[..., -1] += bend * (u[..., :-1] ** 2).sum(axis=-1)
        return u

    return IsotropicCongruence(n=n, domain=cone.domain, name=f"bent_cone{n}",
                               line=lambda u: cone.line(unbend(u)), broadcasts=True)


def bent_leaf_invariant(us, bend=1.5):
    """t + bend |s|^2 at parameter points (..., n-1) of ``bent_cone_congruence``:
    constant on each of its leaves."""
    us = np.asarray(us, dtype=float)
    return us[..., -1] + bend * (us[..., :-1] ** 2).sum(axis=-1)


def _line_fields_congruence(cong, u, model, step=1e-4):
    a0, a1 = cong.line_at(u)
    d = cong.params
    da0 = np.empty((d, model.n + 2))
    da1 = np.empty((d, model.n + 2))
    for a in range(d):
        e = np.zeros(d)
        e[a] = step
        p0, p1 = cong.line_at(u + e)
        m0, m1 = cong.line_at(u - e)
        da0[a] = (p0 - m0) / (2 * step)
        da1[a] = (p1 - m1) / (2 * step)
    return a0, a1, da0, da1


class SingularBasis(Exception):
    """The oracle's basis-form matrix is numerically singular."""


def congruence_reference(cong, u, model, step=1e-4):
    """Per-point reference for ``congruence_affinor``: a dict with the shape
    operator, transversal shift, transversal form, the characteristic roots
    x (det(lam + x I) = 0), unclustered, and the diagnostics, read off the
    frame coordinates.

    The frame is the library's ``complete_isotropic_frame`` (which raises
    off the quadric); the frame coordinates of dA_0 and dA_1 come from
    numpy.linalg.solve against the frame matrix, the basis forms from
    numpy.linalg.solve (SingularBasis where its condition number exceeds
    1e12) and the roots from numpy.linalg.eigvals.
    """
    n = model.n
    a0, a1, da0, da1 = _line_fields_congruence(cong, u, model, step)
    frame = complete_isotropic_frame(a0, a1, model)
    comp0 = np.linalg.solve(frame.vectors.T, da0.T).T
    comp1 = np.linalg.solve(frame.vectors.T, da1.T).T
    basis = np.hstack([comp0[:, 2:n], comp0[:, n][:, None]])
    if not np.isfinite(basis).all() or np.linalg.cond(basis) > 1e12:
        raise SingularBasis(f"singular basis forms at u={list(u)}")
    unknowns = np.linalg.solve(basis, comp1[:, 2:n])
    lam = unknowns[: n - 2].T
    return {
        "shape_operator": lam,
        "transversal_shift": unknowns[n - 2],
        "transversal_form": comp0[:, n],
        "roots": -np.linalg.eigvals(lam),
        "diagnostics": {
            "w0np1": np.abs(comp0[:, n + 1]).max(),
            "w1n": np.abs(comp1[:, n]).max(),
            "transversal_consistency": np.abs(comp1[:, n + 1] + comp0[:, n]).max(),
        },
    }


def deflating_orthonormal_rows(stack, tol=1e-12):
    """``linalg.orthonormal_rows`` as it was before its two trims: its scale
    a reduction over the (r, m) axes, and every row deflated after every
    pivot, the last included.  The trimmed routine must keep these bits."""
    def dots(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

    v = np.array(stack, dtype=float)
    count, rows, _ = v.shape
    scale = np.maximum(np.abs(v).max(axis=(1, 2), initial=0.0), 1e-300)
    bases, ranks = np.zeros_like(v), np.zeros(count, dtype=int)
    active, left = np.ones(count, dtype=bool), np.ones((count, rows), dtype=bool)
    members = np.arange(count)
    for k in range(rows):
        norms = np.sqrt(dots(v, v))
        pivot = np.where(left, norms, -1.0).argmax(axis=1)
        best = norms[members, pivot]
        active &= best > tol * scale
        if not active.any():
            break
        q = np.where(active[:, None], v[members, pivot] / np.where(active, best, 1.0)[:, None], 0.0)
        bases[:, k] = q
        ranks += active
        left[members, pivot] = False
        v = v - dots(v, q[:, None, :])[..., None] * q[:, None, :]
    return bases, ranks


def pivoted_rank(rows, tol=1e-12):
    """Rank of one row matrix by modified Gram-Schmidt with pivoting on the
    largest remaining norm, stopping at the first pivot whose norm is at most
    tol times the largest entry: the rule of ``linalg.orthonormal_rows``."""
    v = np.array(rows, dtype=float)
    scale = max(float(np.abs(v).max(initial=0.0)), 1e-300)
    left, rank = list(range(len(v))), 0
    while left:
        norms = [math.sqrt(float(v[i] @ v[i])) for i in left]
        k = int(np.argmax(norms))
        if norms[k] <= tol * scale:
            break
        q = v[left.pop(k)] / norms[k]
        v = v - np.outer(v @ q, q)
        rank += 1
    return rank


#: line jets of ``inline_rk4_runs``: A_0, A_1 (N, n+2), dA_0, dA_1 (N, d, n+2), forms (N, d)
InlineJets = namedtuple("InlineJets", "a0 a1 da0 da1 forms")


def inline_line_jets(cong, us, model, step=1e-4):
    """Line jets at us (N, d), every point checked as soon as its pass is
    evaluated: one stacked ``line_at`` call over the stencil u, u + step e_0,
    u - step e_0, ..., then the failure of the lowest failing point raised,
    a point failing with the first of its own evaluation, its line checks,
    its neighbours' evaluations in stencil order, non-finite differentials
    and dependent basis forms (rank of [A_0; A_1; dA_0] below d+2)."""
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
    rows = np.concatenate([lines[:, 0], diffs[:, :, 0]], axis=1)
    for i in [i for i in np.flatnonzero(live).tolist() if pivoted_rank(rows[i]) < d + 2]:
        failures[i] = DegenerateBasisError(f"basis forms are dependent at u={us[i].tolist()}; "
                                           "the family is not a congruence there")
    if failures:
        raise failures[min(failures)]
    forms = -(diffs[:, :, 0] @ (model.form.gram @ lines[:, 0, 1, :, None]))[..., 0]
    return InlineJets(lines[:, 0, 0], lines[:, 0, 1], diffs[:, :, 0], diffs[:, :, 1], forms)


def inline_rk4_runs(cong, starts, refs, model, step, count):
    """Reference for ``congruence._rk4_runs``: the same lockstep RK4 runs,
    with every pass checked as soon as it is evaluated (``inline_line_jets``)
    and the projections' checks after it, so the first failing pass raises
    at once, at its lowest failing member.  It shares the line check and the
    kernel projection with the library, and the rank rule with
    ``linalg.orthonormal_rows``; what it does not share is when they run.  Returns per run the (point, jets, index) of its
    start and of each point reached, and whether a run left the domain."""
    lo, hi = np.array(cong.domain, dtype=float).T
    u, ref = starts.copy(), refs.copy()
    going, visits, truncated = np.arange(len(u)), [[] for _ in u], False
    ks = np.zeros((4,) + u.shape)
    for n_step in range(count + 1):
        if not going.size:
            break
        for stage, weight in enumerate((0.0, 0.5, 0.5, 1.0)):
            prev = ref if stage == 0 else ks[stage - 1]
            points = u[going] + weight * step * prev[going] if stage else u[going]
            jets = inline_line_jets(cong, points, model)
            if stage == 0:
                for j, r in enumerate(going):
                    visits[r].append((u[r].copy(), jets, j))
            if n_step == count:
                break
            d, norms, vanishing = _kernel_projections(jets.forms, prev[going])
            if vanishing.any():
                raise DegenerateBasisError(f"transversal form vanishes at "
                                           f"u={points[vanishing.argmax()].tolist()}; "
                                           "distribution undefined")
            if (norms < 1e-10).any():
                raise DegenerateBasisError("transport direction left the distribution kernel "
                                           f"at u={points[(norms < 1e-10).argmax()].tolist()}")
            ks[stage, going] = d / norms[:, None]
        else:
            u[going] = u[going] + (step / 6.0) * (ks[0, going] + 2 * ks[1, going]
                                                  + 2 * ks[2, going] + ks[3, going])
            outside = ((u[going] < lo - 1e-9) | (u[going] > hi + 1e-9)).any(axis=1)
            truncated |= bool(outside.any())
            going = going[~outside]
            ref[going] = ks[0, going]
    return visits, truncated


def generator_rank_scan(obj, u, model, kind="hypersurface", t_range=(-10.0, 10.0),
                        samples=2000, drop_tol=1e-5):
    """Brute-force scan for singular positions along the generator at u.

    Builds the matrix of homogeneous tangent rows of the swept surface at
    X(t) = A_1 + t A_0 and records the parameter values where its rank drops
    below the generic value, located by a golden-section refinement of the
    relevant singular value.  Rank is measured with numpy's SVD.
    """
    if kind == "hypersurface":
        a0, a1, da0, da1 = _line_fields_hypersurface(obj, u, model)
        generic_rank = model.n
    else:
        a0, a1, da0, da1 = _line_fields_congruence(obj, u, model)
        generic_rank = model.n + 1

    def rank_gap(t):
        # rows are kept unnormalized: a derivative row collapsing to zero is
        # itself a rank drop and must stay visible
        rows = [a1 + t * a0, a0]
        for a in range(da0.shape[0]):
            rows.append(da1[a] + t * da0[a])
        sv = np.linalg.svd(np.array(rows), compute_uv=False)
        if len(sv) < generic_rank:
            return 0.0
        return float(sv[generic_rank - 1] / max(sv[0], 1e-300))

    ts = np.linspace(t_range[0], t_range[1], samples)
    vals = np.array([rank_gap(t) for t in ts])
    positions = []
    for i in range(1, samples - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            lo, hi = ts[i - 1], ts[i + 1]
            phi = (np.sqrt(5.0) - 1.0) / 2.0
            a_, b_ = lo, hi
            c_ = b_ - phi * (b_ - a_)
            d_ = a_ + phi * (b_ - a_)
            fc, fd = rank_gap(c_), rank_gap(d_)
            for _ in range(80):
                if fc < fd:
                    b_, d_, fd = d_, c_, fc
                    c_ = b_ - phi * (b_ - a_)
                    fc = rank_gap(c_)
                else:
                    a_, c_, fc = c_, d_, fd
                    d_ = a_ + phi * (b_ - a_)
                    fd = rank_gap(d_)
            t_star = 0.5 * (a_ + b_)
            if rank_gap(t_star) < drop_tol:
                positions.append(t_star)
    merged = []
    for t in sorted(positions):
        if not merged or abs(t - merged[-1]) > 1e-6 * (1 + abs(t)):
            merged.append(t)
    return merged


def matmul_stacked_spectra(jets, gram, us, failures, vectors=False):
    """Spectra of the induced metrics of a stack of Jacobians, with the
    failures of the members that are no immersion: the pass that
    ``hypersurface._stacked_spectra`` ran before its closed-form rank
    certificate, with every member's J^T J from one stacked matmul decomposed
    beside the metrics and judged by its spectrum.  The Jacobi pass is
    ``member_first_jacobi``, whose bits are ``linalg.jacobi_eigh``'s."""
    count, _, d = jets.shape
    live = np.delete(np.arange(count), list(failures))
    j = jets[live]
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = np.swapaxes(j, 1, 2) @ gram @ j
        stack = np.concatenate([0.5 * (metrics + np.swapaxes(metrics, 1, 2)),
                                np.swapaxes(j, 1, 2) @ j])
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2)).reshape(2, -1).all(axis=0)
        for i in live[~finite].tolist():
            failures[i] = DegenerateBasisError(f"non-finite jacobian at u={us[i].tolist()}")
        live, stack = live[finite], stack[np.tile(finite, 2)]
    w, v = member_first_jacobi(stack, vectors=len(live) if vectors else 0)
    spectra = w[len(live):]
    for i in live[spectra[:, -1] <= 1e-12 * np.maximum(spectra[:, 0], 1e-300)].tolist():
        failures[i] = DegenerateBasisError(f"jacobian is rank deficient at u={us[i].tolist()}")
    w_all, v_all = np.zeros((count, d)), np.zeros((count, d, d)) if vectors else None
    w_all[live] = w[: len(live)]
    if vectors:
        v_all[live] = v
    return w_all, v_all


def single_matrix_jacobi(m, tol=1e-12, max_sweeps=60):
    """Eigendecomposition of one symmetric matrix by cyclic Jacobi rotations,
    one explicit rotation matrix at a time: eigenvalues sorted descending,
    eigenvectors as columns signed so that the entry of largest magnitude in
    each is positive.  This is the single-matrix loop that
    ``linalg.jacobi_eigh`` ran before a single matrix became a stack of one."""
    a = np.array(m, dtype=float)
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


@np.errstate(over="ignore", invalid="ignore")
def member_first_jacobi(m, tol=1e-12, max_sweeps=60, vectors=None):
    """Eigendecomposition of a stack of symmetric matrices (N, k, k), or of
    one matrix, by cyclic Jacobi rotations: the member-first pass that
    ``linalg.jacobi_eigh`` ran before it worked on a member-last copy.  Its
    reductions run over each member's k*k entries and its rotations update
    stride-k columns of the (N, k, k) stack; results, errors and their
    messages are otherwise ``jacobi_eigh``'s."""
    a = np.asarray(m, dtype=float)
    single = a.ndim != 3
    if single:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        a = a[None]
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    count, k, _ = a.shape
    carry = count if vectors is None else min(vectors, count)
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300)
    if not np.isfinite(scale).all():
        raise ValueError("jacobi_eigh requires finite entries")
    if (np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-10 * scale).any():
        raise ValueError("jacobi_eigh requires symmetric matrices")
    a = 0.5 * (a + a.transpose(0, 2, 1))
    v = np.tile(np.eye(k), (carry, 1, 1))
    off_diagonal = ~np.eye(k, dtype=bool)
    for sweep in range(max_sweeps + 1):
        strict = a * off_diagonal  # not finite once any entry of the member is not
        off = np.sqrt((strict * strict).sum(axis=(1, 2)))
        if not np.isfinite(off).all() and not np.isfinite(a).all():
            raise ConvergenceError(
                f"Jacobi pass overflowed for {int((~np.isfinite(a).all(axis=(1, 2))).sum())}"
                f" of {count} matrices", residual=math.inf)
        active = off > tol * scale
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
                apq = a[:, p, q]
                rotate = active & (np.abs(apq) > 1e-300)
                tau = (a[:, q, q] - a[:, p, p]) / (2.0 * np.where(rotate, apq, 1.0))
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = np.where(rotate, 1.0 / np.hypot(1.0, t), 1.0)[:, None]
                s = np.where(rotate, t, 0.0)[:, None] * c
                _member_first_rotate_pair(a[:, :, p], a[:, :, q], c, s)
                _member_first_rotate_pair(a[:, p, :], a[:, q, :], c, s)
                if carry:
                    _member_first_rotate_pair(v[:, :, p], v[:, :, q], c[:carry], s[:carry])
                a[rotate, p, q] = 0.0
                a[rotate, q, p] = 0.0
    diagonal = np.diagonal(a, axis1=1, axis2=2)
    w = -np.sort(-diagonal, axis=1, kind="stable")
    if carry:
        order = np.argsort(-diagonal[:carry], axis=1, kind="stable")
        v = np.take_along_axis(v, order[:, None, :], axis=2)
        lead = np.take_along_axis(v, np.abs(v).argmax(axis=1)[:, None, :], axis=1)
        v = np.where(lead < 0, -v, v)
    return (w[0], v[0] if carry else None) if single else (w, v)


def _member_first_rotate_pair(xp, xq, c, s):
    """Givens rotation in place of two equally shaped views: columns (or
    rows) p and q of every member become c xp - s xq and s xp + c xq."""
    old = xp.copy()
    xp[...] = c * xp - s * xq
    xq[...] = s * old + c * xq


def single_matrix_solve(a, b, tol=1e-12):
    """Solution of one finite system a x = b, b a vector or a matrix of
    right-hand sides, or DegenerateBasisError: the single-matrix elimination
    and back substitution ``linalg.solve`` ran before a matrix became a
    stack of one of ``linalg._solve``."""
    m = np.array(a, dtype=float)
    k = m.shape[0]
    rhs = np.asarray(b, dtype=float).copy()
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    if _single_matrix_eliminate(m, rhs, tol * max(np.abs(m).max(), 1e-300)) is None:
        raise DegenerateBasisError("matrix is singular to working precision")
    x = np.zeros((rhs.shape[1], k))
    for b, xb in zip(rhs.T, x):
        for row in range(k - 1, -1, -1):
            xb[row] = (b[row] - m[row, row + 1 :] @ xb[row + 1 :]) / m[row, row]
    return x[0] if vector else np.ascontiguousarray(x.T)


def single_matrix_det(a):
    """Determinant of one finite matrix as ``linalg.det`` took it before a
    matrix became a stack of one of ``linalg._eliminate``."""
    m = np.array(a, dtype=float)
    sign = _single_matrix_eliminate(m, None, 0.0)
    return 0.0 if sign is None else sign * math.prod(np.diagonal(m).tolist())


def _single_matrix_eliminate(m, rhs, floor):
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


def single_matrix_faddeev_leverrier(a):
    """Characteristic coefficients of one square matrix as
    ``linalg._faddeev_leverrier`` took them before it broadcast."""
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


def single_polynomial_durand_kerner(coeffs):
    """Roots of one polynomial, or ConvergenceError, by the single-polynomial
    Durand-Kerner loop in numpy complex scalars that ``linalg.durand_kerner``
    ran before a polynomial became a stack of one."""
    c = np.asarray(coeffs, dtype=complex)
    if abs(c[0] - 1.0) > 1e-12:
        c = c / c[0]
    deg = len(c) - 1
    if deg == 0:
        return np.empty(0, dtype=complex)
    if deg == 1:
        return np.array([-c[1]], dtype=complex)
    radius = 1.0 + float(np.abs(c[1:]).max())
    z = np.array([radius * cmath.exp(2j * math.pi * (j + 0.3) / deg) for j in range(deg)])
    tail = list(c[1:])
    with np.errstate(all="ignore"):
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
        residual = float(np.max(values))
        bound = 1e-8 * np.float64(max(1.0, radius)) ** deg
    if not (math.isfinite(residual) and residual <= bound):
        raise ConvergenceError(f"root iteration did not converge (residual {residual:.3e})",
                               residual=residual)
    return z


def fd_jacobian(fun, u, out_dim, step=1e-6):
    u = np.asarray(u, dtype=float)
    j = np.empty((out_dim, len(u)))
    for a in range(len(u)):
        e = np.zeros(len(u))
        e[a] = step
        j[:, a] = (np.asarray(fun(u + e)) - np.asarray(fun(u - e))) / (2 * step)
    return j


#: the clustering radius and real-root threshold the library documents
#: (``linalg.CLUSTER_RADIUS``, ``linalg.REAL_ROOT_TOL``)
CLUSTER_RADIUS, REAL_ROOT_TOL = 1e-6, 1e-8

#: a clustered root, with the fields of ``linalg.Root``
Root = namedtuple("Root", "value multiplicity is_real")


def nested_clusters(values):
    """Clusters of root values by the nested-list rule, one value at a time:
    (mean, multiplicity) per cluster in order of creation.  Values are
    visited in ascending (real, imaginary) order, and each joins the first
    cluster whose mean, recomputed from its members, lies within
    CLUSTER_RADIUS (1 + |mean|), else starts one.  The arithmetic is that of
    the values: Python's for complex, numpy's for numpy scalars."""
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    clusters = []
    for z in vals:
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(z - center) <= CLUSTER_RADIUS * (1.0 + abs(center)):
                cl.append(z)
                break
        else:
            clusters.append([z])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def nested_cluster_roots(values):
    """Roots of the ``nested_clusters`` of values: clusters whose means are
    mutual conjugates are symmetrized, a mean with relatively negligible
    imaginary part is flagged real, and the roots are sorted by real then
    imaginary part."""
    clusters = nested_clusters(values)
    means, mults = [m for m, _ in clusters], [k for _, k in clusters]
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


def root_bits(roots):
    """The bits of Root records: hex real and imaginary parts, multiplicity
    and real flag."""
    return [(r.value.real.hex(), r.value.imag.hex(), r.multiplicity, r.is_real) for r in roots]
