"""Independent oracles used by the tests.

Nothing here calls the library's own solvers: matrix functions come from
explicit series or from numpy.linalg, and singular generator positions come
from a brute-force rank scan along the line, so agreement with the library's
characteristic-root route is a genuine two-sided check.
"""

import numpy as np

from pseudoconformal.lightlike import PointJet


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


def _line_fields_hypersurface(imm, u, model, step=1e-4):
    jet = PointJet(imm, u, model)
    d = imm.params
    da1 = np.empty((d, model.n + 2))
    for a in range(d):
        e = np.zeros(d)
        e[a] = step
        da1[a] = (
            PointJet(imm, u + e, model).generator()
            - PointJet(imm, u - e, model).generator()
        ) / (2 * step)
    return jet.a0, jet.generator(), jet.rows, da1


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
