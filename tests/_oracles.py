"""Independent oracles used by the tests.

Nothing here calls the library's own solvers: matrix functions come from
explicit series or from numpy.linalg, jets from the immersion's own point
and Jacobian lifted with ``lift_point``/``lift_tangent``, and singular
generator positions from a brute-force rank scan along the line, so
agreement with the library's characteristic-root route is a genuine
two-sided check.
"""

import numpy as np

from pseudoconformal.conformal import (AtInfinity, ProjectivePoint, darboux_unembed, lift_point,
                                      lift_tangent)
from pseudoconformal.frames import _lightlike_line, complete_isotropic_frame


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


def _generator_differences(imm, u, model, step):
    """Central differences dA_1 (params, n+2) of the eigh_jet generators."""
    d = imm.params
    da1 = np.empty((d, model.n + 2))
    for a in range(d):
        e = np.zeros(d)
        e[a] = step
        da1[a] = (eigh_jet(imm, u + e, model)[3] - eigh_jet(imm, u - e, model)[3]) / (2 * step)
    return da1


def _line_fields_hypersurface(imm, u, model, step=1e-4):
    a0, rows, _, a1 = eigh_jet(imm, u, model)
    return a0, a1, rows, _generator_differences(imm, u, model, step)


def focal_reference(imm, u, model, step=1e-4, cluster_radius=1e-6):
    """Per-point reference for the focal set at u: (x, multiplicity, target)
    per root, sorted by x.  Eigenvalues within cluster_radius (1 + |x|) of a
    root's smallest one make up the root, whose x is their mean; target is
    its finite focal point or, at infinity, the normalized projective
    coordinates.

    The generators of u and of its central-difference neighbours are
    numpy.linalg.eigh kernels.  The line (A_0, A_1) and the screen, with
    their checks, are the library's.  The frame is completed by two
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
    a0, a1, screen = _lightlike_line(a0, rows, model, generator=g)
    lines = np.vstack([screen @ model.form.gram, a0, a1])
    frame = np.vstack([a0, a1, screen, np.linalg.svd(lines)[2][n:]])
    da1 = _generator_differences(imm, u, model, step)
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


def fd_jacobian(fun, u, out_dim, step=1e-6):
    u = np.asarray(u, dtype=float)
    j = np.empty((out_dim, len(u)))
    for a in range(len(u)):
        e = np.zeros(len(u))
        e[a] = step
        j[:, a] = (np.asarray(fun(u + e)) - np.asarray(fun(u - e))) / (2 * step)
    return j
