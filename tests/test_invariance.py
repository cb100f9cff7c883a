"""Lightlike hypersurfaces and congruences under the conformal group O(n,2).

Moving every line of a congruence by one M in O(n,2) is a conformal motion
of the whole family, so nothing the paper attaches to it may change: a
normal congruence stays normal, a twisted one stays twisted, the
characteristic roots keep their real/complex pattern, each real singular
point X moves to M X, and a normal congruence still stratifies.  Moving the
quadric image of a lightlike hypersurface by M keeps its causal type, its
failing points, its root multiplicities and its tangential degeneracy (rank
n - 2, no turning along the generator), and moves each focal point X to
M X; the characteristic roots themselves are gauge-covariant and may change.
M is exp(0.3 B) for a seeded B in the Lie algebra of the quadric's form.
"""

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.conformal import AmbientModel, lift_point, lift_tangent
from pseudoconformal.congruence import (
    INTEGRABILITY_TOL,
    IsotropicCongruence,
    congruence_affinor,
    congruence_singular_points,
    integrability_defect,
    stratify,
)
from pseudoconformal.hypersurface import Immersion, classify_point, parameter_grid
from pseudoconformal.lightlike import degeneracy_check, focal_map, lightlike_affinor

from _oracles import expm, quadric_algebra_generator

#: (catalog name, n, normal) for every catalog congruence and two at n = 4
CASES = [
    ("parallel_null_congruence", 3, True),
    ("cone_normal_congruence", 3, True),
    ("twisted_congruence", 4, False),
    ("parallel_null_congruence", 4, True),
    ("cone_normal_congruence", 4, True),
]


def conformal_motion(model, seed=7):
    """exp(0.3 B) with B B-skew for the quadric's polar form; checked to
    preserve that form."""
    gram = model.form.gram
    m = expm(0.3 * quadric_algebra_generator(gram, np.random.default_rng(seed)))
    assert np.abs(m.T @ gram @ m - gram).max() < 1e-12
    return m


def moved(cong, m):
    """The congruence whose line at u is (M A_0(u), M A_1(u))."""

    def line(u):
        a0, a1 = cong.line_at(u)
        return m @ a0, m @ a1

    return IsotropicCongruence(n=cong.n, domain=cong.domain, line=line, name=cong.name)


def projective_distance(x, y):
    """Euclidean distance of the unit representatives, up to sign."""
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    return min(np.linalg.norm(x - y), np.linalg.norm(x + y))


def case_id(case):
    return f"{case[0]}{case[1]}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_normality_is_invariant(case):
    name, n, normal = case
    cong = catalog.build(name, n=n)
    model = AmbientModel.standard(n)
    defect = integrability_defect(moved(cong, conformal_motion(model)), [3] * cong.params)
    if normal:
        assert defect < INTEGRABILITY_TOL
    else:
        assert defect > 0.1


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_roots_and_singular_points_are_invariant(case):
    name, n, _ = case
    cong = catalog.build(name, n=n)
    model = AmbientModel.standard(n)
    m = conformal_motion(model)
    image = moved(cong, m)
    for u in parameter_grid(cong, [3] * cong.params)[1]:
        before = congruence_singular_points(congruence_affinor(cong, u))
        after = congruence_singular_points(congruence_affinor(image, u))
        assert [(s.is_real, s.multiplicity) for s in before] == \
            [(s.is_real, s.multiplicity) for s in after]
        for s, t in zip(before, after):
            if s.is_real:
                assert projective_distance(t.point.coords, m @ s.point.coords) < 1e-7


@pytest.mark.parametrize("n,seed,count", [(3, (0.0, -0.2), 30), (4, (0.05, -0.1, 0.3), 8)])
def test_moved_cone_still_stratifies(n, seed, count):
    cong = catalog.build("cone_normal_congruence", n=n)
    model = AmbientModel.standard(n)
    image = moved(cong, conformal_motion(model))
    step = 1e-2 if n == 3 else 2e-2
    leaf = stratify(cong, np.array(seed), step=step, count=count)
    moved_leaf = stratify(image, np.array(seed), step=step, count=count)
    assert not moved_leaf.truncated
    assert moved_leaf.lightlike_fraction >= 0.99
    assert len(moved_leaf.parameters) == len(leaf.parameters)
    # the transversal form -<dA_0, A_1> is itself invariant, so the leaf
    # keeps its parameters
    assert np.abs(np.array(moved_leaf.parameters) - np.array(leaf.parameters)).max() < 1e-7


def moved_immersion(imm, m, model, hessian=False):
    """The homogeneous immersion u -> M A_0(u), with the analytic jet
    M dA_0(u), of a Lorentzian immersion's quadric image; with ``hessian``
    also the analytic second jet, whose (a, b) entry is M applied to
    (0, H_ab, <J_a, J_b> + <p, H_ab>)."""

    def value(u):
        return m @ lift_point(imm.point(u), model)

    def jacobian(u):
        p, j = imm.point(u), imm.jet1(u)
        return m @ np.array([lift_tangent(p, j[:, a], model) for a in range(imm.params)]).T

    def second(u):
        p, j, h = imm.point(u), imm.jet1(u), imm.jet2(u)
        out = np.empty((imm.n + 2, imm.params, imm.params))
        for a in range(imm.params):
            for b in range(imm.params):
                lifted = lift_tangent(p, h[:, a, b], model)
                lifted[-1] += j[:, a] @ model.metric.gram @ j[:, b]
                out[:, a, b] = m @ lifted
        return out

    return Immersion(n=imm.n, domain=imm.domain, value=value, jacobian=jacobian,
                     hessian=second if hessian else None, homogeneous=True, name=imm.name)


@pytest.mark.parametrize("name", catalog.lightlike_entries())
def test_lightlike_focal_set_is_invariant(name):
    imm = catalog.build(name)
    model = AmbientModel.standard(imm.n)
    m = conformal_motion(model)
    image = moved_immersion(imm, m, model)
    counts = [4] * imm.params
    grid = parameter_grid(imm, counts)[1]
    assert [classify_point(imm, u).kind for u in grid] == \
        [classify_point(image, u).kind for u in grid]
    before = focal_map(imm, counts)
    after = focal_map(image, counts)
    assert [u for u, _ in before.errors] == [u for u, _ in after.errors]
    for u in grid:
        key = tuple(u.tolist())
        xs = [s for s in before.samples if s.u == key]
        ys = [s for s in after.samples if s.u == key]
        # the roots are gauge-covariant, so their order may flip with the
        # generator's normalization: match each focal point to its image
        assert sorted(s.multiplicity for s in xs) == sorted(s.multiplicity for s in ys)
        # the image has no Hessian, so its dA_1 differences the analytic
        # Jacobian: worst distance measured on these grids 1.8e-10
        for s in xs:
            assert min(projective_distance(t.projective.coords, m @ s.projective.coords)
                       for t in ys if t.multiplicity == s.multiplicity) < 1e-9


@pytest.mark.parametrize("motion", ["lift", "moved"])
@pytest.mark.parametrize("name", catalog.lightlike_entries())
def test_degeneracy_is_invariant(name, motion):
    # the quadric image, plain or moved, is tangentially degenerate of the
    # chart immersion's rank n - 2 at every grid point.  With its analytic
    # Hessians its rate stays at rounding (worst 3.0e-15 measured); with
    # Hessians differenced from its analytic Jacobian it reads their error
    # (worst 1.6e-10 measured)
    imm = catalog.build(name)
    model = AmbientModel.standard(imm.n)
    m = np.eye(imm.n + 2) if motion == "lift" else conformal_motion(model)
    exact, differenced = (moved_immersion(imm, m, model, hessian=h) for h in (True, False))
    for u in parameter_grid(imm, [3] * imm.params)[1]:
        chart, image, fd = (degeneracy_check(x, lightlike_affinor(x, u))
                            for x in (imm, exact, differenced))
        assert chart.tangent_rank == image.tangent_rank == fd.tangent_rank == imm.n - 2
        assert max(chart.generator_rate, image.generator_rate) <= 1e-13
        assert fd.generator_rate <= 1e-9
