import math

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.conformal import (AmbientModel, AtInfinity, darboux_unembed, lift_point,
                                      lift_tangent)
from pseudoconformal.errors import (DegenerateBasisError, NotLightlikeError,
                                    NotOnQuadricError)
from pseudoconformal.hypersurface import Immersion, parameter_grid
from pseudoconformal.lightlike import (
    PointJet,
    degeneracy_check,
    focal_map,
    lightlike_affinor,
    singular_points,
    torse_directions,
)

from _oracles import generator_rank_scan


class TestNullHyperplane:
    def test_shape_operator_vanishes(self, model3):
        imm = catalog.build("null_hyperplane")
        an = lightlike_affinor(imm, np.array([0.3, -0.2]), model=model3)
        assert np.abs(an.shape_operator).max() < 1e-10
        assert an.symmetry_defect < 1e-12

    def test_root_zero_with_full_multiplicity(self, model4):
        imm = catalog.build("null_hyperplane", n=4)
        an = lightlike_affinor(imm, np.array([0.1, 0.2, -0.3]), model=model4)
        assert len(an.roots) == 1
        assert an.roots[0].multiplicity == 2
        assert abs(an.roots[0].value) < 1e-8

    def test_focal_point_is_ideal(self, model3):
        imm = catalog.build("null_hyperplane")
        an = lightlike_affinor(imm, np.array([0.0, 0.0]), model=model3)
        sp = singular_points(an)[0]
        assert isinstance(darboux_unembed(sp.point, model3), AtInfinity)

    def test_scan_finds_only_the_zero_root(self, model3):
        # independent oracle: the only rank drop along the generator sits at
        # the root position, whose point is ideal (no finite focal point)
        imm = catalog.build("null_hyperplane")
        u = np.array([0.25, 0.4])
        positions = generator_rank_scan(imm, u, model3, kind="hypersurface")
        assert len(positions) == 1
        assert abs(positions[0]) < 1e-6


class TestLightCone:
    def test_shape_operator_is_inverse_gauge_radius(self, model3):
        # at |w| = r the single root sends A_1 + x A_0 to the vertex
        imm = catalog.build("light_cone")
        an = lightlike_affinor(imm, np.array([1.0, 0.0]), model=model3)
        assert an.shape_operator.shape == (1, 1)
        assert abs(an.shape_operator[0, 0]) > 0.1
        assert an.symmetry_defect == 0.0

    @pytest.mark.parametrize("w", [np.array([1.0, 0.0]), np.array([1.2, 0.9]),
                                   np.array([0.5, 0.5])])
    def test_singular_point_is_vertex(self, model3, w):
        imm = catalog.build("light_cone")
        an = lightlike_affinor(imm, w, model=model3)
        sp = singular_points(an)
        assert len(sp) == 1
        vertex = darboux_unembed(sp[0].point, model3)
        assert np.abs(vertex).max() < 1e-6

    def test_focal_point_gauge_independent(self, model3):
        # rescaling the generator moves the root but not the focal point
        imm = catalog.build("light_cone")
        u = np.array([1.0, 0.6])
        an1 = lightlike_affinor(imm, u, model=model3, generator_scale=1.0)
        an2 = lightlike_affinor(imm, u, model=model3, generator_scale=2.7)
        x1 = singular_points(an1)[0]
        x2 = singular_points(an2)[0]
        assert abs(x1.x - x2.x) > 1e-3
        assert abs(x2.x - 2.7 * x1.x) < 1e-8
        p1 = darboux_unembed(x1.point, model3)
        p2 = darboux_unembed(x2.point, model3)
        assert np.abs(p1 - p2).max() < 1e-6

    def test_roots_match_rank_scan(self, model3):
        imm = catalog.build("light_cone")
        for u in (np.array([1.0, 0.0]), np.array([0.8, 1.1])):
            an = lightlike_affinor(imm, u, model=model3)
            roots = sorted(r.value.real for r in an.roots)
            scan = generator_rank_scan(imm, u, model3, kind="hypersurface")
            assert len(scan) == len(roots)
            for r, s in zip(roots, sorted(scan)):
                assert abs(r - s) < 1e-4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_root_count_with_multiplicity(self, n):
        model = AmbientModel.standard(n)
        imm = catalog.build("light_cone", n=n)
        u = np.full(n - 1, 0.9)
        an = lightlike_affinor(imm, u, model=model)
        assert sum(r.multiplicity for r in an.roots) == n - 2
        assert all(r.is_real for r in an.roots)

    def test_cone_generator_is_umbilic_in_higher_dimension(self, model4):
        # both focal distances coincide: a single root of multiplicity 2
        imm = catalog.build("light_cone", n=4)
        an = lightlike_affinor(imm, np.array([0.9, 0.8, 1.0]), model=model4)
        assert len(an.roots) == 1
        assert an.roots[0].multiplicity == 2
        fams = torse_directions(an)
        assert fams[0].directions.shape == (2, 2)

    def test_focal_map_merges_to_vertex(self, model3):
        imm = catalog.build("light_cone")
        focal = focal_map(imm, (6, 6), model=model3)
        assert not focal.errors
        finite = [c for c in focal.clusters if not c.at_infinity]
        assert len(finite) == 1
        assert np.abs(finite[0].representative).max() < 1e-6
        assert finite[0].count == 36


class TestTiltedNullFamily:
    def test_focal_samples_trace_offset_helix(self, model3):
        imm = catalog.build("tilted_null_family")
        for tau in (0.5, 1.4, 2.2):
            u = np.array([tau, 0.9])
            an = lightlike_affinor(imm, u, model=model3)
            sp = singular_points(an)
            assert len(sp) == 1
            got = darboux_unembed(sp[0].point, model3)
            expect = catalog.tilted_family_focal_curve(tau, 0.5)
            assert np.abs(got - expect).max() < 1e-4

    def test_focal_point_independent_of_position_on_ruling(self, model3):
        imm = catalog.build("tilted_null_family")
        points = []
        for s in (0.4, 0.9, 1.6):
            an = lightlike_affinor(imm, np.array([1.0, s]), model=model3)
            points.append(darboux_unembed(singular_points(an)[0].point, model3))
        assert np.abs(points[0] - points[1]).max() < 1e-6
        assert np.abs(points[0] - points[2]).max() < 1e-6

    def test_roots_match_rank_scan(self, model3):
        imm = catalog.build("tilted_null_family")
        u = np.array([1.3, 0.7])
        an = lightlike_affinor(imm, u, model=model3)
        scan = generator_rank_scan(imm, u, model3, kind="hypersurface")
        roots = sorted(r.value.real for r in an.roots)
        assert len(scan) == len(roots)
        for r, s in zip(roots, sorted(scan)):
            assert abs(r - s) < 1e-4


class TestCircleWavefront:
    def test_two_distinct_real_roots(self, model4):
        imm = catalog.build("circle_wavefront")
        an = lightlike_affinor(imm, np.array([0.6, 0.7, 0.5]), model=model4)
        assert sum(r.multiplicity for r in an.roots) == 2
        assert len(an.roots) == 2
        assert all(r.is_real for r in an.roots)
        assert an.symmetry_defect < 1e-6

    def test_focal_points_on_circle_and_axis(self, model4):
        # the caustic of a circular wavefront: the circle itself plus its axis
        imm = catalog.build("circle_wavefront")
        an = lightlike_affinor(imm, np.array([0.6, 0.7, 0.5]), model=model4)
        on_circle = on_axis = False
        for sp in singular_points(an):
            p = darboux_unembed(sp.point, model4)
            if abs(math.hypot(p[0], p[1]) - 2.0) < 1e-5 and abs(p[2]) < 1e-5:
                on_circle = True
            if math.hypot(p[0], p[1]) < 1e-5:
                on_axis = True
        assert on_circle and on_axis

    def test_torse_directions_orthogonal(self, model4):
        imm = catalog.build("circle_wavefront")
        for u in (np.array([0.6, 0.7, 0.5]), np.array([0.45, 0.8, 0.4])):
            an = lightlike_affinor(imm, u, model=model4)
            fams = torse_directions(an)
            assert len(fams) == 2
            d1, d2 = fams[0].directions[0], fams[1].directions[0]
            assert abs(float(d1 @ d2)) < 1e-8
            assert abs(float(d1 @ d1) - 1.0) < 1e-10

    def test_roots_match_rank_scan(self, model4):
        imm = catalog.build("circle_wavefront")
        u = np.array([0.6, 0.7, 0.5])
        an = lightlike_affinor(imm, u, model=model4)
        scan = generator_rank_scan(imm, u, model4, kind="hypersurface")
        roots = sorted(r.value.real for r in an.roots)
        assert len(scan) == len(roots)
        for r, s in zip(roots, sorted(scan)):
            assert abs(r - s) < 1e-4


class TestTorseDirectionsSmallCases:
    def test_diagonal_shape_operator(self, model4):
        from pseudoconformal.frames import complete_isotropic_frame
        from pseudoconformal.lightlike import LightlikeAnalysis
        from pseudoconformal.linalg import char_roots

        lam = np.diag([2.0, 3.0])
        roots = tuple(char_roots(lam))
        an = LightlikeAnalysis(
            u=np.zeros(3), shape_operator=lam, symmetry_defect=0.0,
            determinant=6.0, roots=roots, frame=_any_frame(model4),
        )
        fams = torse_directions(an)
        by_root = {round(f.root, 6): f.directions[0] for f in fams}
        assert np.abs(np.abs(by_root[-2.0]) - np.array([1.0, 0.0])).max() < 1e-12
        assert np.abs(np.abs(by_root[-3.0]) - np.array([0.0, 1.0])).max() < 1e-12

    def test_symmetric_off_diagonal(self, model4):
        from pseudoconformal.lightlike import LightlikeAnalysis
        from pseudoconformal.linalg import char_roots

        lam = np.array([[2.0, 1.0], [1.0, 2.0]])
        roots = tuple(char_roots(lam))
        an = LightlikeAnalysis(
            u=np.zeros(3), shape_operator=lam, symmetry_defect=0.0,
            determinant=3.0, roots=roots, frame=_any_frame(model4),
        )
        fams = torse_directions(an)
        assert sorted(round(f.root, 6) for f in fams) == [-3.0, -1.0]
        d = {round(f.root, 6): f.directions[0] for f in fams}
        inv = 1 / math.sqrt(2.0)
        assert np.abs(np.abs(d[-1.0]) - np.array([inv, inv])).max() < 1e-10
        assert np.abs(np.abs(d[-3.0]) - np.array([inv, inv])).max() < 1e-10
        assert abs(float(d[-1.0] @ d[-3.0])) < 1e-10


def _any_frame(model):
    from pseudoconformal.conformal import lift_point, lift_tangent
    from pseudoconformal.frames import complete_isotropic_frame

    p = np.zeros(model.n)
    l = np.zeros(model.n)
    l[0] = 1.0
    l[-1] = 1.0
    return complete_isotropic_frame(
        lift_point(p, model), lift_tangent(p, l, model), model
    )


class TestSingularPointsSmallCases:
    def test_zero_operator_gives_generator_point(self, model4):
        from pseudoconformal.lightlike import LightlikeAnalysis
        from pseudoconformal.linalg import char_roots

        frame = _any_frame(model4)
        lam = np.zeros((2, 2))
        an = LightlikeAnalysis(
            u=np.zeros(3), shape_operator=lam, symmetry_defect=0.0,
            determinant=0.0, roots=tuple(char_roots(lam)), frame=frame,
        )
        pts = singular_points(an)
        assert len(pts) == 1
        assert pts[0].multiplicity == 2
        from pseudoconformal.conformal import ProjectivePoint

        assert pts[0].point == ProjectivePoint(frame.vector(1))


class TestDegeneracy:
    def test_null_hyperplane_tangent_plane_constant(self, model3):
        imm = catalog.build("null_hyperplane")
        an = lightlike_affinor(imm, np.array([0.2, -0.3]), model=model3)
        report = degeneracy_check(imm, an, model=model3)
        assert report.max_angle < 1e-6
        assert report.tangent_rank == 1

    def test_light_cone_tangentially_degenerate(self, model3):
        imm = catalog.build("light_cone")
        an = lightlike_affinor(imm, np.array([1.0, 0.7]), model=model3)
        report = degeneracy_check(imm, an, model=model3)
        assert report.max_angle < 1e-6
        assert report.tangent_rank == 1
        # the span varies at second order along the generator flow, at first
        # order transversally
        assert report.variation_rates[0] < 1e-3 * max(report.variation_rates)

    def test_higher_dimensional_rank(self, model4):
        imm = catalog.build("circle_wavefront")
        an = lightlike_affinor(imm, np.array([0.6, 0.7, 0.5]), model=model4)
        report = degeneracy_check(imm, an, model=model4, arc=0.1)
        assert report.max_angle < 1e-6
        assert report.tangent_rank == 2

    def test_spacelike_input_rejected(self, model3):
        imm = catalog.build("spacelike_hypersphere")
        with pytest.raises(NotLightlikeError):
            degeneracy_check(imm, lightlike_affinor(imm, np.array([0.1, 0.1]), model=model3),
                             model=model3)


class TestPointJet:
    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_generator_is_the_null_kernel_image(self, name):
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        _, grid = parameter_grid(imm, [3] * imm.params)
        for u in grid:
            jet = PointJet(imm, u, model)
            g = jet.generator()
            assert abs(model.quadratic(g)) < 1e-12
            assert np.abs(jet.rows @ model.form.gram @ g).max() < 1e-12
            # the same line as the image of the numpy.linalg.eigh kernel
            w, v = np.linalg.eigh(jet.rows @ model.form.gram @ jet.rows.T)
            ref = jet.rows.T @ v[:, np.argmin(np.abs(w))]
            ref /= np.linalg.norm(ref)
            assert min(np.abs(g - ref).max(), np.abs(g + ref).max()) < 1e-12


def _cone_variant(**overrides):
    """The light cone with its value or jacobian replaced."""
    cone = catalog.build("light_cone")
    fields = dict(n=3, domain=cone.domain, value=cone.value, jacobian=cone.jacobian)
    fields.update(overrides)
    return Immersion(**fields)


class TestAffinorRejections:
    """Each precondition of lightlike_affinor fails with its own exception
    type and message."""

    def test_spacelike_point(self, model3):
        imm = catalog.build("spacelike_slice")
        with pytest.raises(NotLightlikeError) as exc:
            lightlike_affinor(imm, np.array([0.1, 0.2]), model=model3)
        assert str(exc.value) == "hypersurface is spacelike at u=[0.1, 0.2], not lightlike"

    def test_non_finite_jacobian(self, model3):
        imm = _cone_variant(jacobian=lambda u: np.full((3, 2), np.nan))
        with pytest.raises(DegenerateBasisError) as exc:
            lightlike_affinor(imm, np.array([1.0, 0.5]), model=model3)
        assert str(exc.value) == "non-finite jacobian at u=[1.0, 0.5]"

    def test_rank_deficient_jacobian(self, model3):
        cone = catalog.build("light_cone")
        imm = _cone_variant(jacobian=lambda u: np.outer(cone.jet1(u)[:, 0], [1.0, 2.0]))
        with pytest.raises(DegenerateBasisError) as exc:
            lightlike_affinor(imm, np.array([1.0, 0.5]), model=model3)
        assert str(exc.value) == "jacobian is rank deficient at u=[1.0, 0.5]"

    def test_homogeneous_immersion_off_the_quadric(self, model3):
        # a constant shift keeps the lightlike tangent rows but moves the
        # point off the quadric
        cone = catalog.build("light_cone")
        shift = np.array([0.0, 0.0, 0.0, 0.0, 0.5])

        def jacobian(u):
            p, j = cone.point(u), cone.jet1(u)
            return np.array([lift_tangent(p, j[:, a], model3) for a in range(2)]).T

        imm = _cone_variant(homogeneous=True, jacobian=jacobian,
                            value=lambda u: lift_point(cone.point(u), model3) + shift)
        with pytest.raises(NotOnQuadricError) as exc:
            lightlike_affinor(imm, np.array([1.0, 0.5]), model=model3)
        assert str(exc.value) == "frame origin is not on the quadric"


class TestFiniteDifferenceJets:
    def test_full_pipeline_without_analytic_jets(self, model3):
        # same cone, jets from finite differences: wider tolerances apply but
        # the focal point still lands on the vertex
        analytic = catalog.build("light_cone")
        from pseudoconformal.hypersurface import Immersion

        fd = Immersion(n=3, domain=analytic.domain, value=analytic.value,
                       name="light_cone_fd")
        u = np.array([1.0, 0.6])
        an = lightlike_affinor(fd, u, model=model3)
        assert an.symmetry_defect < 1e-3
        vertex = darboux_unembed(singular_points(an)[0].point, model3)
        assert np.abs(vertex).max() < 1e-3


class TestSymmetryAcrossCatalog:
    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_symmetry_defect_small_with_analytic_jets(self, name):
        entry = catalog.CATALOG[name]
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        lo = np.array([d[0] for d in imm.domain])
        hi = np.array([d[1] for d in imm.domain])
        for frac in (0.3, 0.55, 0.8):
            u = lo + frac * (hi - lo)
            an = lightlike_affinor(imm, u, model=model)
            assert an.symmetry_defect < 1e-6
