import ast
import inspect
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.cli import _build_object, _resolve_grid, load_scene, main
from pseudoconformal.conformal import (AmbientModel, AtInfinity, ProjectivePoint, darboux_embed,
                                      darboux_unembed, lift_point, lift_tangent)
from pseudoconformal.errors import (DegenerateBasisError, GeometryError, NotLightlikeError,
                                    NotOnQuadricError)
from pseudoconformal.hypersurface import Immersion, parameter_grid
from pseudoconformal.lightlike import (
    FocalSample,
    LightlikeAnalysis,
    _affinors,
    _degeneracy,
    _JetStack,
    _merge,
    _pseudo_inverse,
    _row_derivatives,
    degeneracy_check,
    focal_map,
    lightlike_affinor,
    lightlike_frame_field,
    singular_points,
    torse_directions,
)
from pseudoconformal.linalg import cluster_roots

from _oracles import degeneracy_flow_reference, focal_reference, generator_rank_scan


class TestNullHyperplane:
    def test_shape_operator_vanishes(self):
        imm = catalog.build("null_hyperplane")
        an = lightlike_affinor(imm, np.array([0.3, -0.2]))
        assert np.abs(an.shape_operator).max() < 1e-10
        assert an.symmetry_defect < 1e-12

    def test_root_zero_with_full_multiplicity(self):
        imm = catalog.build("null_hyperplane", n=4)
        an = lightlike_affinor(imm, np.array([0.1, 0.2, -0.3]))
        assert len(an.roots) == 1
        assert an.roots[0].multiplicity == 2
        assert abs(an.roots[0].value) < 1e-8

    def test_focal_point_is_ideal(self, model3):
        imm = catalog.build("null_hyperplane")
        an = lightlike_affinor(imm, np.array([0.0, 0.0]))
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
    def test_shape_operator_is_inverse_gauge_radius(self):
        # at |w| = r the single root sends A_1 + x A_0 to the vertex
        imm = catalog.build("light_cone")
        an = lightlike_affinor(imm, np.array([1.0, 0.0]))
        assert an.shape_operator.shape == (1, 1)
        assert abs(an.shape_operator[0, 0]) > 0.1
        assert an.symmetry_defect == 0.0

    @pytest.mark.parametrize("w", [np.array([1.0, 0.0]), np.array([1.2, 0.9]),
                                   np.array([0.5, 0.5])])
    def test_singular_point_is_vertex(self, model3, w):
        imm = catalog.build("light_cone")
        an = lightlike_affinor(imm, w)
        sp = singular_points(an)
        assert len(sp) == 1
        vertex = darboux_unembed(sp[0].point, model3)
        assert np.abs(vertex).max() < 1e-6

    def test_focal_point_gauge_independent(self, model3):
        # rescaling the generator moves the root but not the focal point
        imm = catalog.build("light_cone")
        u = np.array([1.0, 0.6])
        an1 = lightlike_affinor(imm, u, generator_scale=1.0)
        an2 = lightlike_affinor(imm, u, generator_scale=2.7)
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
            an = lightlike_affinor(imm, u)
            roots = sorted(r.value.real for r in an.roots)
            scan = generator_rank_scan(imm, u, model3, kind="hypersurface")
            assert len(scan) == len(roots)
            for r, s in zip(roots, sorted(scan)):
                assert abs(r - s) < 1e-4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_root_count_with_multiplicity(self, n):
        imm = catalog.build("light_cone", n=n)
        u = np.full(n - 1, 0.9)
        an = lightlike_affinor(imm, u)
        assert sum(r.multiplicity for r in an.roots) == n - 2
        assert all(r.is_real for r in an.roots)

    def test_cone_generator_is_umbilic_in_higher_dimension(self):
        # both focal distances coincide: a single root of multiplicity 2
        imm = catalog.build("light_cone", n=4)
        an = lightlike_affinor(imm, np.array([0.9, 0.8, 1.0]))
        assert len(an.roots) == 1
        assert an.roots[0].multiplicity == 2
        fams = torse_directions(an)
        assert fams[0].directions.shape == (2, 2)

    def test_focal_map_merges_to_vertex(self):
        imm = catalog.build("light_cone")
        focal = focal_map(imm, (6, 6))
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
            an = lightlike_affinor(imm, u)
            sp = singular_points(an)
            assert len(sp) == 1
            got = darboux_unembed(sp[0].point, model3)
            expect = catalog.tilted_family_focal_curve(tau, 0.5)
            assert np.abs(got - expect).max() < 1e-4

    def test_focal_point_independent_of_position_on_ruling(self, model3):
        imm = catalog.build("tilted_null_family")
        points = []
        for s in (0.4, 0.9, 1.6):
            an = lightlike_affinor(imm, np.array([1.0, s]))
            points.append(darboux_unembed(singular_points(an)[0].point, model3))
        assert np.abs(points[0] - points[1]).max() < 1e-6
        assert np.abs(points[0] - points[2]).max() < 1e-6

    def test_roots_match_rank_scan(self, model3):
        imm = catalog.build("tilted_null_family")
        u = np.array([1.3, 0.7])
        an = lightlike_affinor(imm, u)
        scan = generator_rank_scan(imm, u, model3, kind="hypersurface")
        roots = sorted(r.value.real for r in an.roots)
        assert len(scan) == len(roots)
        for r, s in zip(roots, sorted(scan)):
            assert abs(r - s) < 1e-4


class TestCircleWavefront:
    def test_two_distinct_real_roots(self):
        imm = catalog.build("circle_wavefront")
        an = lightlike_affinor(imm, np.array([0.6, 0.7, 0.5]))
        assert sum(r.multiplicity for r in an.roots) == 2
        assert len(an.roots) == 2
        assert all(r.is_real for r in an.roots)
        assert an.symmetry_defect < 1e-6

    def test_focal_points_on_circle_and_axis(self, model4):
        # the caustic of a circular wavefront: the circle itself plus its axis
        imm = catalog.build("circle_wavefront")
        an = lightlike_affinor(imm, np.array([0.6, 0.7, 0.5]))
        on_circle = on_axis = False
        for sp in singular_points(an):
            p = darboux_unembed(sp.point, model4)
            if abs(math.hypot(p[0], p[1]) - 2.0) < 1e-5 and abs(p[2]) < 1e-5:
                on_circle = True
            if math.hypot(p[0], p[1]) < 1e-5:
                on_axis = True
        assert on_circle and on_axis

    def test_torse_directions_orthogonal(self):
        imm = catalog.build("circle_wavefront")
        for u in (np.array([0.6, 0.7, 0.5]), np.array([0.45, 0.8, 0.4])):
            an = lightlike_affinor(imm, u)
            fams = torse_directions(an)
            assert len(fams) == 2
            d1, d2 = fams[0].directions[0], fams[1].directions[0]
            assert abs(float(d1 @ d2)) < 1e-8
            assert abs(float(d1 @ d1) - 1.0) < 1e-10

    def test_roots_match_rank_scan(self, model4):
        imm = catalog.build("circle_wavefront")
        u = np.array([0.6, 0.7, 0.5])
        an = lightlike_affinor(imm, u)
        scan = generator_rank_scan(imm, u, model4, kind="hypersurface")
        roots = sorted(r.value.real for r in an.roots)
        assert len(scan) == len(roots)
        for r, s in zip(roots, sorted(scan)):
            assert abs(r - s) < 1e-4


def _truth_distance(name, sample):
    """Max-norm distance of a finite focal sample from the analytic focal set
    of a catalog entry at default parameters: the cone's vertex, the tilted
    family's focal curve at the sample's tau, and for the circle wavefront
    the circle of radius 2 in the (x^1, x^2) plane or its axis."""
    p = sample.point
    if name == "light_cone":
        return float(np.abs(p).max())
    if name == "tilted_null_family":
        return float(np.abs(p - catalog.tilted_family_focal_curve(sample.u[0], 0.5)).max())
    q = math.hypot(p[0], p[1])
    return min(max(abs(q - 2.0), abs(p[2])), q)


class TestExactTruth:
    """dA_1 is read in closed form from the analytic Hessians, so focal
    points sit at rounding distance from their analytic truth (2-7e-9 with
    the central-difference generators this replaced)."""

    @pytest.mark.parametrize("name,n,count", [("light_cone", 3, 8), ("light_cone", 5, 3),
                                              ("tilted_null_family", 3, 12),
                                              ("circle_wavefront", 4, 5)])
    def test_focal_points_match_analytic_truth(self, name, n, count):
        imm = catalog.build(name, n=n)
        focal = focal_map(imm, [count] * imm.params)
        assert focal.errors == ()
        assert len(focal.samples) == count ** imm.params * (2 if name == "circle_wavefront" else 1)
        for s in focal.samples:
            assert not s.at_infinity
            assert _truth_distance(name, s) <= 1e-12
        if name == "circle_wavefront":
            # one root on the circle and one on its axis at every point
            on_axis = [math.hypot(s.point[0], s.point[1]) <= 1e-12 for s in focal.samples]
            assert on_axis.count(True) == on_axis.count(False)

    @pytest.mark.parametrize("n", [3, 4])
    def test_null_hyperplane_roots_vanish_at_infinity(self, n):
        imm = catalog.build("null_hyperplane", n=n)
        focal = focal_map(imm, [4] * imm.params)
        assert focal.errors == ()
        assert len(focal.samples) == 4 ** imm.params
        for s in focal.samples:
            assert s.x == 0.0 and s.multiplicity == n - 2 and s.at_infinity


class TestTorseDirectionsSmallCases:
    def test_diagonal_shape_operator(self, model4):
        from pseudoconformal.frames import complete_isotropic_frame
        from pseudoconformal.lightlike import LightlikeAnalysis
        from pseudoconformal.linalg import char_roots

        lam = np.diag([2.0, 3.0])
        roots = tuple(char_roots(lam))
        an = LightlikeAnalysis(
            u=np.zeros(3), shape_operator=lam, symmetry_defect=0.0,
            determinant=6.0, roots=roots, **_any_line(model4),
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
            determinant=3.0, roots=roots, **_any_line(model4),
        )
        fams = torse_directions(an)
        assert sorted(round(f.root, 6) for f in fams) == [-3.0, -1.0]
        d = {round(f.root, 6): f.directions[0] for f in fams}
        inv = 1 / math.sqrt(2.0)
        assert np.abs(np.abs(d[-1.0]) - np.array([inv, inv])).max() < 1e-10
        assert np.abs(np.abs(d[-3.0]) - np.array([inv, inv])).max() < 1e-10
        assert abs(float(d[-1.0] @ d[-3.0])) < 1e-10


def _analysis(lam):
    """A LightlikeAnalysis of the shape operator lam, with its roots from the
    Jacobi spectrum as the engine clusters them."""
    from pseudoconformal.lightlike import LightlikeAnalysis
    from pseudoconformal.linalg import cluster_roots, jacobi_eigh

    w, _ = jacobi_eigh(lam)
    return LightlikeAnalysis(
        u=np.zeros(lam.shape[0] + 1), shape_operator=lam, symmetry_defect=0.0,
        determinant=float(np.linalg.det(lam)),
        roots=tuple(cluster_roots([complex(-x) for x in w])),
        **_any_line(AmbientModel.standard(lam.shape[0] + 2)),
    )


class TestTorseMultipleRoots:
    """A multiple root's directions depend on its eigenspace only, not on how
    rounding noise splits it."""

    def test_full_multiplicity_gives_the_identity_basis(self):
        # the light cone's umbilic operator with the off-diagonal noise seen
        # on a shipped scene
        lam = 0.408 * np.eye(2) + 7.8e-10 * np.array([[0.0, 1.0], [1.0, 0.0]])
        (fam,) = torse_directions(_analysis(lam))
        assert fam.multiplicity == 2
        assert np.abs(np.abs(fam.directions) - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("spectrum", [(0.408, 0.408), (1.0, 1.0, 2.0), (-0.5, 0.7, 0.7, 0.7)])
    def test_rounding_noise_does_not_move_the_basis(self, spectrum, rng):
        k = len(spectrum)
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        lam = q @ np.diag(spectrum) @ q.T
        lam = 0.5 * (lam + lam.T)
        base = {f.root: f for f in torse_directions(_analysis(lam))}
        for _ in range(5):
            e = rng.normal(size=(k, k))
            moved = torse_directions(_analysis(lam + 1e-10 * (e + e.T) / np.abs(e + e.T).max()))
            assert len(moved) == len(base)
            for f in moved:
                ref = min(base.values(), key=lambda g: abs(g.root - f.root))
                assert f.multiplicity == ref.multiplicity
                if f.multiplicity > 1:
                    assert np.abs(f.directions - ref.directions).max() < 1e-8
                    assert np.abs(f.directions @ f.directions.T - np.eye(f.multiplicity)).max() < 1e-12
                    # the rows span the root's eigenspace
                    assert np.abs(f.directions @ (lam + f.root * np.eye(k))).max() < 1e-8

    def test_a_chained_cluster_gets_each_eigenvector_once(self, rng):
        # -w = 1e-6 (0, 1, 1.5, 1.833, 2.1, 2.2) clusters as 4 + 2, but 2.1e-6
        # lies nearer the first cluster's mean than 0 does: each root takes
        # its own eigenvectors, so all the directions form one orthonormal basis
        x = 1e-6 * np.array([0.0, 1.0, 1.5, 1.833, 2.1, 2.2])
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        lam = q @ np.diag(-x) @ q.T
        fams = torse_directions(_analysis(0.5 * (lam + lam.T)))
        assert [f.multiplicity for f in fams] == [4, 2]
        dirs = np.vstack([f.directions for f in fams])
        assert np.abs(dirs @ dirs.T - np.eye(6)).max() < 1e-12
        for f, own in zip(fams, (q[:, :4], q[:, 4:])):
            assert np.abs(f.directions.T @ f.directions - own @ own.T).max() < 1e-9


def _any_line(model):
    """The line and screen fields of a LightlikeAnalysis, from a completed
    isotropic frame."""
    from pseudoconformal.frames import complete_isotropic_frame

    p = np.zeros(model.n)
    l = np.zeros(model.n)
    l[0] = 1.0
    l[-1] = 1.0
    vectors = complete_isotropic_frame(
        lift_point(p, model), lift_tangent(p, l, model), model
    ).vectors
    return {"line": (vectors[0], vectors[1]), "screen": vectors[2 : model.n]}


class TestShapeOperatorPairings:
    def test_each_diagnostic_reads_its_pairing(self, model4):
        # differentials with known, distinct coefficients on A_n (-<v, A_1>)
        # and A_{n+1} (-<v, A_0>) in a completed frame
        from pseudoconformal.frames import complete_isotropic_frame
        from pseudoconformal.lightlike import _shape_operators

        fields = _any_line(model4)
        a0, a1 = fields["line"]
        a_n, a_np1 = complete_isotropic_frame(a0, a1, model4).vectors[4:]
        c = np.array([[1.0, 0.2], [-0.3, 0.8], [0.5, 0.5]])
        s = np.array([[0.4, -0.1], [-0.1, 0.9]])
        da0 = (c @ fields["screen"] + np.outer([0.1, -0.3, 0.2], a_n)
               + np.outer([0.05, 0.4, -0.1], a_np1) + np.outer([0.7, 0.0, -0.2], a0))
        da1 = (c @ s @ fields["screen"] + np.outer([0.6, 0.0, 0.0], a_n)
               + np.outer([0.0, -0.7, 0.0], a_np1) + np.outer([0.0, 0.3, 0.1], a1))
        # the induced metric of the screen part, c c^T, with its kernel
        w, v = np.linalg.eigh(c @ c.T)
        lam, stacked = _shape_operators(a0[None], a1[None], fields["screen"][None],
                                        model4.form.gram, da0[None], da1[None],
                                        _pseudo_inverse(w[None], v[None])[0])
        diagnostics = {key: float(value[0]) for key, value in stacked.items()}
        pairs = {"w0n": (da0, a1), "w0np1": (da0, a0), "w1n": (da1, a1), "w1np1": (da1, a0)}
        for key, (rows, vec) in pairs.items():
            assert diagnostics[key] == pytest.approx(
                np.abs(rows @ model4.form.gram @ vec).max(), abs=1e-12)
        assert diagnostics == pytest.approx(
            {"w0n": 0.3, "w0np1": 0.4, "w1n": 0.6, "w1np1": 0.7}, abs=1e-12)
        assert np.abs(lam[0] - s).max() < 1e-12


class TestSingularPointsSmallCases:
    def test_zero_operator_gives_generator_point(self, model4):
        from pseudoconformal.lightlike import LightlikeAnalysis
        from pseudoconformal.linalg import char_roots

        fields = _any_line(model4)
        lam = np.zeros((2, 2))
        an = LightlikeAnalysis(
            u=np.zeros(3), shape_operator=lam, symmetry_defect=0.0,
            determinant=0.0, roots=tuple(char_roots(lam)), **fields,
        )
        pts = singular_points(an)
        assert len(pts) == 1
        assert pts[0].multiplicity == 2
        from pseudoconformal.conformal import ProjectivePoint

        assert pts[0].point == ProjectivePoint(fields["line"][1])


def _rescaled(imm, s):
    """The immersion u -> imm(s u) on the domain divided by s."""
    return Immersion(
        n=imm.n,
        domain=tuple((lo / s, hi / s) for lo, hi in imm.domain),
        value=lambda u: imm.value(s * u),
        jacobian=None if imm.jacobian is None else (lambda u: s * imm.jacobian(s * u)),
        hessian=None if imm.hessian is None else (lambda u: s * s * imm.hessian(s * u)),
        homogeneous=imm.homogeneous,
        name=imm.name,
    )


class TestDegeneracy:
    def test_null_hyperplane_tangent_plane_constant(self):
        imm = catalog.build("null_hyperplane")
        an = lightlike_affinor(imm, np.array([0.2, -0.3]))
        report = degeneracy_check(imm, an)
        assert report.generator_rate < 1e-6
        assert report.tangent_rank == 1

    def test_light_cone_tangentially_degenerate(self):
        imm = catalog.build("light_cone")
        an = lightlike_affinor(imm, np.array([1.0, 0.7]))
        report = degeneracy_check(imm, an)
        assert report.generator_rate < 1e-6
        assert report.tangent_rank == 1

    def test_higher_dimensional_rank(self):
        imm = catalog.build("circle_wavefront")
        an = lightlike_affinor(imm, np.array([0.6, 0.7, 0.5]))
        report = degeneracy_check(imm, an)
        assert report.generator_rate < 1e-6
        assert report.tangent_rank == 2

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_rank_survives_rescaled_parameters(self, name, scale):
        # u -> scale * u slows or speeds every parameter direction alike; the
        # kernel direction's rate must still read as zero next to the others
        imm = _rescaled(catalog.build(name), scale)
        u = np.array([lo + 0.55 * (hi - lo) for lo, hi in imm.domain])
        report = degeneracy_check(imm, lightlike_affinor(imm, u))
        assert report.generator_rate <= 1e-13
        assert report.tangent_rank == imm.n - 2

    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_tangent_span_constant_along_the_generator(self, name):
        # the Darboux image is tangentially degenerate: the tangent span does
        # not turn along the generator, at every grid point
        imm = catalog.build(name)
        for u in parameter_grid(imm, [3] * imm.params)[1]:
            report = degeneracy_check(imm, lightlike_affinor(imm, u))
            assert report.generator_rate <= 1e-13
            assert report.tangent_rank == imm.n - 2

    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_agrees_with_the_kernel_flow(self, name):
        # the independent reference integrates the numpy.linalg.eigh kernel
        # field and measures principal angles by numpy.linalg.svd; both read
        # a constant tangent span and the same rank at every grid point (the
        # worst flow angle measured here is 2.8e-15)
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        for u in parameter_grid(imm, [3] * imm.params)[1]:
            flow = degeneracy_flow_reference(imm, u, model)
            report = degeneracy_check(imm, lightlike_affinor(imm, u))
            assert flow.samples
            assert flow.max_angle <= 1e-13 and report.generator_rate <= 1e-13
            assert report.tangent_rank == flow.tangent_rank == imm.n - 2

    @pytest.mark.parametrize("u,samples,skipped", [([0.2, 0.0], 8, 1), ([0.1, 0.0], 6, 0)],
                             ids=["sample_on_the_vertex", "stage_on_the_vertex"])
    def test_agrees_with_a_kernel_flow_that_ends_at_the_vertex(self, u, samples, skipped):
        # the cone's generator curve through u runs into its vertex: the
        # reference skips the sample that lands there, or ends at the RK4
        # stage that does, and reads no turning from the rest
        imm, model = catalog.build("light_cone", n=3), AmbientModel.standard(3)
        u = np.array(u)
        flow = degeneracy_flow_reference(imm, u, model)
        report = degeneracy_check(imm, lightlike_affinor(imm, u))
        assert (len(flow.samples), len(flow.skipped)) == (samples, skipped)
        assert flow.max_angle <= 1e-13 and report.generator_rate <= 1e-13
        assert flow.tangent_rank == report.tangent_rank == 1

    @pytest.mark.parametrize("scene", ["lightcone3.json", "nullplane3.json", "tilted3.json",
                                       "wavefront4.json"])
    def test_the_centre_joins_the_grid_pass(self, scene, tmp_path, monkeypatch):
        # one lightlike run makes one jet stack and one jet2 call, over the
        # grid with the centre as its last member; the degeneracy, which only
        # the centre's report reads, is one Jacobi pass over that one member
        # beside the induced metrics' and the operators'
        import pseudoconformal.frames
        import pseudoconformal.hypersurface
        import pseudoconformal.lightlike
        import pseudoconformal.linalg

        path = str(Path(__file__).resolve().parent.parent / "scenes" / scene)
        scene_doc = load_scene(path)
        imm, counts = _resolve_grid(scene_doc, _build_object(scene_doc))
        grid = parameter_grid(imm, counts)[1]
        center = [0.5 * (lo + hi) for lo, hi in imm.domain]
        calls, stacks, hessians = [], [], []
        original, original_stack = pseudoconformal.linalg.jacobi_eigh, _JetStack
        original_jet2 = Immersion.jet2

        def counted(*args, **kwargs):
            calls.append((np.shape(args[0]), inspect.stack(0)[1].function))
            return original(*args, **kwargs)

        def counted_stack(imm, us, *args):
            stacks.append(us.tolist())
            return original_stack(imm, us, *args)

        def counted_jet2(self, u):
            hessians.append(len(u))
            return original_jet2(self, u)

        for module in (pseudoconformal.frames, pseudoconformal.hypersurface,
                       pseudoconformal.lightlike, pseudoconformal.linalg):
            monkeypatch.setattr(module, "jacobi_eigh", counted)
        monkeypatch.setattr(pseudoconformal.lightlike, "_JetStack", counted_stack)
        monkeypatch.setattr(Immersion, "jet2", counted_jet2)
        out = tmp_path / "out.json"
        assert main(["lightlike", "--scene", path, "--out", str(out), "--format", "json"]) == 0
        assert len(stacks) == 1 and stacks[0] == grid.tolist() + [center]
        members = len(grid) + 1 - len(json.loads(out.read_text())["errors"])
        assert hessians == [members]
        d = imm.params
        assert [call for call in calls if len(call[0]) == 3] == [
            ((len(grid) + 1, d, d), "_stacked_spectra"),  # metrics; every J^T J certified
            ((members, d - 1, d - 1), "_affinors"),
            ((1, d, d), "_degeneracy")]

    def test_one_clustering_and_one_member_degeneracy_per_run(self, tmp_path, capsys,
                                                              monkeypatch):
        # a lightlike run clusters the roots of its whole stack once, for the
        # focal set and the centre alike, and takes the degeneracy of the
        # centre alone; lightlike_affinor takes none
        import pseudoconformal.lightlike

        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append((name, len(args[1]) if name == "_degeneracy" else len(args[0])))
                return original(*args)
            return wrapper

        for name in ("_cluster", "_roots", "_degeneracy"):
            monkeypatch.setattr(pseudoconformal.lightlike, name,
                                counted(name, getattr(pseudoconformal.lightlike, name)))
        path = Path(__file__).resolve().parent.parent / "scenes" / "wavefront4.json"
        assert main(["lightlike", "--scene", str(path), "--out", str(tmp_path / "out.csv")]) == 0
        members = len(parameter_grid(catalog.build("circle_wavefront"), [4, 4, 4])[1]) + 1
        assert calls == [("_cluster", members), ("_roots", members), ("_degeneracy", 1)]
        calls.clear()
        lightlike_affinor(catalog.build("circle_wavefront"), np.array([0.6, 0.7, 0.5]))
        assert calls == [("_cluster", 1), ("_roots", 1)]

    def test_one_pseudo_inverse_per_pass(self, monkeypatch):
        # dA_1, the shape operators and the degeneracy read the metrics'
        # pseudo-inverses and kernels of one call
        import pseudoconformal.lightlike

        calls, original = [], pseudoconformal.lightlike._pseudo_inverse

        def counted(w, v):
            calls.append(len(w))
            return original(w, v)

        monkeypatch.setattr(pseudoconformal.lightlike, "_pseudo_inverse", counted)
        imm = catalog.build("circle_wavefront")
        grid = parameter_grid(imm, [3] * imm.params)[1]
        columns = _affinors(imm, grid, AmbientModel.standard(imm.n), 1.0, None)
        assert calls == [len(grid)] and len(columns.members) == len(grid)

    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_grid_members_read_the_centre_check(self, name):
        # the degeneracy of every member of a grid pass, in one stacked pass,
        # has the generator rate and tangent rank bits that degeneracy_check
        # gives its point alone
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        columns = _affinors(imm, parameter_grid(imm, [3] * imm.params)[1], model, 1.0, None)
        assert not columns.failures
        rates, ranks = _degeneracy(columns.jets, columns.members, columns.dr, columns.kernels)
        for i, rate, rank in zip(columns.members, rates, ranks):
            report = degeneracy_check(imm, SimpleNamespace(u=columns.us[i]))
            assert (report.generator_rate.hex(), report.tangent_rank) == (rate.hex(), rank)

    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_another_eigenvector_fails(self, name):
        # forced through the stacked check on the grid's jet stack: the rate
        # along any other eigenvector of the induced metric than the kernel's
        # is that of a direction the span turns in (0.35 or more here)
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        grid = parameter_grid(imm, [3] * imm.params)[1]
        jets, (hessians, raised) = _JetStack(imm, grid, model, 1.0), imm.jet2(grid)
        assert not jets.failures and not raised
        members = np.arange(len(grid))
        dr = _row_derivatives(jets, members, hessians)
        rates, ranks = _degeneracy(jets, members, dr, _pseudo_inverse(jets.w, jets.v)[1])
        assert (rates <= 1e-13).all() and (ranks == imm.n - 2).all()
        other = np.swapaxes(jets.v, -1, -2)[members, np.abs(jets.w).argmax(axis=1)]
        assert (_degeneracy(jets, members, dr, other)[0] > 0.1).all()

    @pytest.mark.parametrize("name,n", [("spacelike_hypersphere", 3),
                                        ("timelike_hypersphere", 3), ("euclidean_sphere", 3)])
    def test_a_non_lightlike_immersion_fails(self, name, n):
        # the check refuses the point; forced through the stacked check on
        # its jet stack, which takes no lightlike test, the formula reads a
        # span that turns along the least eigenvector of the metric (at rate
        # 0.58 or more here), in all n - 1 directions
        imm = catalog.build(name, n=n)
        model = AmbientModel.standard(n)
        u = np.array([lo + 0.4 * (hi - lo) for lo, hi in imm.domain])
        with pytest.raises(NotLightlikeError):
            degeneracy_check(imm, SimpleNamespace(u=u))
        jets, (hessians, raised) = _JetStack(imm, u[None], model, 1.0), imm.jet2(u[None])
        assert not jets.failures and not raised
        rates, ranks = _degeneracy(jets, [0], _row_derivatives(jets, [0], hessians),
                                   _pseudo_inverse(jets.w, jets.v)[1])
        assert rates[0] > 0.1 and ranks[0] == n - 1

    def test_spacelike_input_rejected(self):
        imm = catalog.build("spacelike_hypersphere")
        with pytest.raises(NotLightlikeError):
            degeneracy_check(imm, lightlike_affinor(imm, np.array([0.1, 0.1])))


class TestJetStack:
    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_generator_is_the_null_kernel_image(self, name):
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        _, grid = parameter_grid(imm, [3] * imm.params)
        jets = _JetStack(imm, grid, model, 1.0)
        assert not jets.failures
        for rows, g in zip(jets.rows, jets.generators):
            assert abs(model.quadratic(g)) < 1e-12
            assert np.abs(rows @ model.form.gram @ g).max() < 1e-12
            # the same line as the image of the numpy.linalg.eigh kernel
            w, v = np.linalg.eigh(rows @ model.form.gram @ rows.T)
            ref = rows.T @ v[:, np.argmin(np.abs(w))]
            ref /= np.linalg.norm(ref)
            assert min(np.abs(g - ref).max(), np.abs(g + ref).max()) < 1e-12


    @pytest.mark.parametrize("name, us, errors", [
        ("light_cone", [[0.7, 0.4], [0.0, 0.0], [1.1, -0.3]],
         {1: "non-finite jacobian at u=[0.0, 0.0]"}),
        ("timelike_hypersphere", [[0.1, 0.2], [1.75, 0.0], [-0.2, 0.5]],
         {1: "evaluation failed at u=[1.75, 0.0]: math domain error"}),
    ])
    def test_mixed_failures_keep_messages_and_bits(self, name, us, errors, model3):
        # one stacked point and jet call; the scalar-only copy evaluates
        # member by member, and both give the same failures and bits
        imm = catalog.build(name)
        scalar_only = Immersion(n=imm.n, domain=imm.domain, value=imm.value,
                                jacobian=imm.jacobian)
        us = np.array(us)
        got, ref = (_JetStack(obj, us, model3, 1.0) for obj in (imm, scalar_only))
        assert {i: str(exc) for i, exc in got.failures.items()} == errors
        assert ({i: (type(exc), str(exc)) for i, exc in got.failures.items()}
                == {i: (type(exc), str(exc)) for i, exc in ref.failures.items()})
        live = [i for i in range(len(us)) if i not in errors]
        for field in ("a0", "rows", "w", "v", "generators"):
            assert getattr(got, field)[live].tobytes() == getattr(ref, field)[live].tobytes()


    def test_hessian_failures_are_point_errors(self, model3):
        # one stacked jet2 call: a Hessian that raises for one point (a
        # negative square root, NaN in the stack) and one that is not finite
        # (a division by zero) fail their points; the other members keep the
        # bits they get alone.  Hessians written for one point (a stack makes
        # them raise TypeError, IndexError for a stack of one, or give another
        # shape) are evaluated point by point, with the same results.
        cone = catalog.build("light_cone")

        def hessian(u):
            ok = (catalog._sqrt(1.5 - u[..., 0]) * 0.0 + 1.0 / (u[..., 1] - 0.5) * 0.0 + 1.0)
            return cone.hessian(u) * np.asarray(ok)[..., None, None, None]

        variants = [Immersion(n=3, domain=cone.domain, value=cone.value, jacobian=cone.jacobian,
                              hessian=h, broadcasts=True)
                    for h in (hessian, lambda u: hessian(np.array([float(u[0]), float(u[1])])),
                              lambda u: hessian(np.array([u[0], u[1]])))]
        us = np.array([[0.7, 0.4], [1.55, 0.4], [1.1, 0.5], [1.2, 0.9]])
        errors = {1: (GeometryError, "evaluation failed at u=[1.55, 0.4]: math domain error"),
                  2: (DegenerateBasisError, "non-finite hessian at u=[1.1, 0.5]")}
        bits = lambda an: (an.shape_operator.tobytes(), an.roots, an.line[0].tobytes(),
                           an.line[1].tobytes(), an.screen.tobytes(), an.diagnostics)
        for imm in variants:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results = _members(_affinors(imm, us, model3, 1.0, None))
                alone = [_members(_affinors(imm, u[None], model3, 1.0, None))[0] for u in us]
            for i, got in enumerate(results):
                if i in errors:
                    assert (type(got), str(got)) == (type(alone[i]), str(alone[i])) == errors[i]
                else:
                    assert bits(got) == bits(alone[i]) == bits(
                        lightlike_affinor(cone, us[i]))

    def test_infinite_jacobian_fails_without_warning(self):
        # the member is masked before the lift, where inf * 0 would warn
        jacobian = lambda u: np.array([[1.0, 0.0], [0.0, 1.0], [math.inf if u[0] > 0.5 else 0.0, 0.0]])
        imm = Immersion(n=3, domain=((0, 1), (0, 1)), jacobian=jacobian,
                        value=lambda u: np.array([u[0], u[1], 0.0]))
        errors = dict(focal_map(imm, [3, 3]).errors)
        assert errors[(1.0, 0.5)] == "non-finite jacobian at u=[1.0, 0.5]"


def _members(columns):
    """Each member of ``_affinors`` columns as the exception it failed with,
    or as the LightlikeAnalysis its columns and the cluster_roots of its
    spectrum make (determinant 0)."""
    results = dict(columns.failures)
    for j, i in enumerate(columns.members.tolist()):
        results[i] = LightlikeAnalysis(
            u=columns.us[i], shape_operator=columns.operators[j],
            symmetry_defect=float(columns.defects[j]), determinant=0.0,
            roots=tuple(cluster_roots([complex(-x) for x in columns.spectra[j]])),
            line=(columns.a0[j], columns.a1[j]), screen=columns.screens[j],
            diagnostics={key: float(value[j]) for key, value in columns.diagnostics.items()})
    return [results[i] for i in range(len(columns.us))]


def _cone_variant(**overrides):
    """The light cone with its value or jacobian replaced."""
    cone = catalog.build("light_cone")
    fields = dict(n=3, domain=cone.domain, value=cone.value, jacobian=cone.jacobian)
    fields.update(overrides)
    return Immersion(**fields)


class TestAffinorRejections:
    """Each precondition of lightlike_affinor fails with its own exception
    type and message."""

    def test_spacelike_point(self):
        imm = catalog.build("spacelike_slice")
        with pytest.raises(NotLightlikeError) as exc:
            lightlike_affinor(imm, np.array([0.1, 0.2]))
        assert str(exc.value) == "hypersurface is spacelike at u=[0.1, 0.2], not lightlike"

    def test_non_finite_jacobian(self):
        imm = _cone_variant(jacobian=lambda u: np.full((3, 2), np.nan))
        with pytest.raises(DegenerateBasisError) as exc:
            lightlike_affinor(imm, np.array([1.0, 0.5]))
        assert str(exc.value) == "non-finite jacobian at u=[1.0, 0.5]"

    def test_rank_deficient_jacobian(self):
        cone = catalog.build("light_cone")
        imm = _cone_variant(jacobian=lambda u: np.outer(cone.jet1(u)[:, 0], [1.0, 2.0]))
        with pytest.raises(DegenerateBasisError) as exc:
            lightlike_affinor(imm, np.array([1.0, 0.5]))
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
            lightlike_affinor(imm, np.array([1.0, 0.5]))
        assert str(exc.value) == "frame origin is not on the quadric"

    def test_base_point_off_its_tangent_rows(self, model3):
        # A_0 moved along the quadric, the tangent rows kept: the induced
        # metric stays lightlike, but A_0 no longer pairs to zero with the
        # generator and the screen
        cone = catalog.build("light_cone")
        shift = np.array([0.0, 0.0, 0.5])

        def jacobian(u):
            p, j = cone.point(u), cone.jet1(u)
            return np.array([lift_tangent(p, j[:, a], model3) for a in range(2)]).T

        imm = _cone_variant(homogeneous=True, jacobian=jacobian,
                            value=lambda u: lift_point(cone.point(u) + shift, model3))
        with pytest.raises(DegenerateBasisError) as exc:
            lightlike_affinor(imm, np.array([1.0, 0.5]))
        assert str(exc.value).startswith("frame adaptation failed (gram residual ")


class TestFiniteDifferenceJets:
    @pytest.mark.parametrize("name,n,count", [("light_cone", 3, 4), ("light_cone", 5, 3),
                                              ("tilted_null_family", 3, 4),
                                              ("circle_wavefront", 4, 4)])
    def test_no_point_fails_for_want_of_a_frame(self, name, n, count):
        # completing the frame at every point used to fail some FD points
        # ("frame adaptation failed") whose line and screen met ADAPT_TOL
        imm = _fd_variant(catalog.build(name, n=n))
        focal = focal_map(imm, [count] * imm.params)
        assert focal.errors == ()

    def test_newly_analysed_point_finds_the_vertex(self, model5):
        imm = _fd_variant(catalog.build("light_cone", n=5))
        an = lightlike_affinor(imm, np.full(4, 0.4))
        points = singular_points(an)
        assert sum(sp.multiplicity for sp in points) == 3
        for sp in points:
            assert np.abs(darboux_unembed(sp.point, model5)).max() < 1.5e-6

    def test_full_pipeline_without_analytic_jets(self, model3):
        # same cone, jets from finite differences: the analytic tolerances
        # apply, and the focal point still lands on the vertex
        analytic = catalog.build("light_cone")
        from pseudoconformal.hypersurface import Immersion

        fd = Immersion(n=3, domain=analytic.domain, value=analytic.value,
                       name="light_cone_fd")
        u = np.array([1.0, 0.6])
        an = lightlike_affinor(fd, u)
        assert an.symmetry_defect < 1e-3
        vertex = darboux_unembed(singular_points(an)[0].point, model3)
        assert np.abs(vertex).max() < 1e-3


class TestSymmetryAcrossCatalog:
    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_symmetry_defect_small_with_analytic_jets(self, name):
        entry = catalog.CATALOG[name]
        imm = catalog.build(name)
        lo = np.array([d[0] for d in imm.domain])
        hi = np.array([d[1] for d in imm.domain])
        for frac in (0.3, 0.55, 0.8):
            u = lo + frac * (hi - lo)
            an = lightlike_affinor(imm, u)
            assert an.symmetry_defect < 1e-6


def _fd_variant(imm):
    """The same immersion with finite-difference jets."""
    return Immersion(n=imm.n, domain=imm.domain, value=imm.value, name=imm.name + "_fd")


def _engine_cases():
    cases = []
    for name in catalog.lightlike_entries():
        imm = catalog.build(name)
        cases.append((name, imm, [4] * imm.params, None))
    cases.append(("light_cone5", catalog.build("light_cone", n=5), [3] * 4, None))
    scenes = sorted(p for p in (Path(__file__).resolve().parent.parent / "scenes").glob("*.json"))
    for path in scenes:
        scene = load_scene(str(path))
        if scene.kind == "hypersurface" and scene.builtin in catalog.lightlike_entries():
            imm, counts = _resolve_grid(scene, _build_object(scene))
            cases.append((path.name, imm, counts, scene.tolerances.get("symmetry")))
    return cases


#: (label, immersion, grid counts, symmetry tolerance): every lightlike catalog
#: entry, the light cone at n = 5, and every shipped lightlike scene
ENGINE_CASES = _engine_cases()


def _point_focal(imm, u, model, sym_tol):
    """What focal_map records at u, from lightlike_affinor: the samples as
    (root index, x, multiplicity, at infinity, point bytes, projective bytes),
    or the error message."""
    try:
        an = lightlike_affinor(imm, u, sym_tol=sym_tol)
    except (GeometryError, ValueError, ArithmeticError) as exc:
        return str(exc)
    out = []
    for k, sp in enumerate(singular_points(an)):
        target = darboux_unembed(sp.point, model)
        inf = isinstance(target, AtInfinity)
        out.append((k, sp.x, sp.multiplicity, inf, None if inf else target.tobytes(),
                    sp.point.coords.tobytes()))
    return out


def _nested_loop_merge(samples, tol):
    """The merge focal_map used before it compared arrays: every cluster in
    creation order, against its first sample."""
    clusters = []
    for s in samples:
        for c in clusters:
            if c[0].at_infinity != s.at_infinity:
                continue
            if s.at_infinity:
                close = s.projective.isclose(c[0].projective, tol=tol)
            else:
                close = float(np.abs(s.point - c[0].point).max()) <= tol
            if close:
                c.append(s)
                break
        else:
            clusters.append([s])
    return clusters


def _column_merge(samples, tol):
    """_merge on the columns of a list of samples, as lists of samples."""
    ideal = np.array([s.at_infinity for s in samples])
    points = np.array([np.full(len(samples[0].projective.coords) - 2, np.nan) if s.at_infinity
                       else s.point for s in samples])
    cluster, first = _merge(points, np.array([s.projective.coords for s in samples]), ideal, tol)
    assert cluster[first].tolist() == list(range(len(first)))
    return [[samples[i] for i in np.flatnonzero(cluster == c)] for c in range(len(first))]


def _finite_sample(p, model):
    p = np.asarray(p, dtype=float)
    return FocalSample(u=(0.0,), root_index=0, x=0.0, multiplicity=1, at_infinity=False,
                       point=p, projective=darboux_embed(p, model))


def _ideal_sample(coords):
    return FocalSample(u=(0.0,), root_index=0, x=0.0, multiplicity=1, at_infinity=True,
                       point=None, projective=ProjectivePoint(coords))


class TestLightlikeEngine:
    """focal_map analyses the whole grid in stacked passes; each point keeps
    the bits lightlike_affinor gives it alone."""

    @pytest.mark.parametrize("label,imm,counts,sym_tol", ENGINE_CASES,
                             ids=[c[0] for c in ENGINE_CASES])
    @pytest.mark.parametrize("jets", ["analytic", "fd"])
    def test_samples_and_errors_match_lightlike_affinor(self, label, imm, counts, sym_tol, jets):
        if jets == "fd":
            imm = _fd_variant(imm)
        model = AmbientModel.standard(imm.n)
        focal = focal_map(imm, counts, sym_tol=sym_tol)
        samples, errors = [], []
        for u in parameter_grid(imm, counts)[1]:
            got = _point_focal(imm, u, model, sym_tol)
            if isinstance(got, str):
                errors.append((tuple(u.tolist()), got))
            else:
                samples += [(tuple(u.tolist()), *s) for s in got]
        assert [(s.u, s.root_index, s.x, s.multiplicity, s.at_infinity,
                 None if s.at_infinity else s.point.tobytes(), s.projective.coords.tobytes())
                for s in focal.samples] == samples
        assert list(focal.errors) == errors

    def test_point_off_the_quadric_keeps_its_earlier_samples(self, monkeypatch):
        # a point keeps the samples before its first singular point off the
        # quadric, loses the rest and is listed in errors with that one's
        # message, in grid order
        import pseudoconformal.lightlike

        imm = catalog.build("circle_wavefront")
        expected = focal_map(imm, [3, 3, 3])
        unembed = pseudoconformal.lightlike._unembed
        # two roots per grid point: samples 2k and 2k + 1 are the roots of
        # grid point k
        off = {k: NotOnQuadricError(f"off at {k}") for k in (4, 6, 7, 9)}

        def failing(coords, model):
            points, ideal, failures = unembed(coords, model)
            return points, ideal, {**failures, **off}

        monkeypatch.setattr(pseudoconformal.lightlike, "_unembed", failing)
        focal = focal_map(imm, [3, 3, 3])
        keep = [s for i, s in enumerate(expected.samples) if i not in (4, 5, 6, 7, 9)]
        assert [(s.u, s.root_index, s.x) for s in focal.samples] == [
            (s.u, s.root_index, s.x) for s in keep]
        grid = parameter_grid(imm, [3, 3, 3])[1]
        assert focal.errors == ((tuple(grid[2].tolist()), "off at 4"),
                                (tuple(grid[3].tolist()), "off at 6"),
                                (tuple(grid[4].tolist()), "off at 9"))
        assert sum(c.count for c in focal.clusters) == len(keep)

    def test_non_lightlike_centres_in_a_stack(self, model3):
        # the light cone below u0 = 1, the spacelike slice above: the slice
        # members fail as they fail alone, the cone members keep their bits
        cone, slab = _cone_variant(), catalog.build("spacelike_slice")
        pick = lambda u: cone if u[0] < 1.0 else slab
        imm = Immersion(n=3, domain=cone.domain, value=lambda u: pick(u).value(u),
                        jacobian=lambda u: pick(u).jacobian(u))
        grid = parameter_grid(imm, [4, 4])[1]
        results = _members(_affinors(imm, grid, model3, 1.0, None))
        bits = lambda an: (an.shape_operator.tobytes(), an.roots, an.line[0].tobytes(),
                           an.line[1].tobytes(), an.screen.tobytes(), an.diagnostics)
        for u, got in zip(grid, results):
            if u[0] < 1.0:
                assert bits(got) == bits(lightlike_affinor(cone, u))
            else:
                assert (type(got), str(got)) == (
                    NotLightlikeError, f"hypersurface is spacelike at u={u.tolist()}, not lightlike")
                with pytest.raises(NotLightlikeError, match=str(got).replace("[", "\\[")):
                    lightlike_affinor(imm, u)

    def test_frame_field_gives_the_affinor_frames(self):
        imm = catalog.build("circle_wavefront")
        field = lightlike_frame_field(imm)
        for u in parameter_grid(imm, [3, 3, 3])[1]:
            an = lightlike_affinor(imm, u)
            frame = field(u)
            assert frame.vectors[:4].tobytes() == np.vstack([*an.line, an.screen]).tobytes()
            assert frame.gram_residual() < 1e-10

    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_engine_builds_no_frame(self, name, monkeypatch):
        import pseudoconformal.frames
        import pseudoconformal.lightlike
        import pseudoconformal.linalg

        imm = catalog.build(name)
        counts = [3] * imm.params
        expected = focal_map(imm, counts)

        def refuse(*args, **kwargs):
            raise AssertionError("a frame was completed")

        solves = []
        original = pseudoconformal.linalg.solve

        def counted(*args, **kwargs):
            solves.append(np.shape(args[0]))
            return original(*args, **kwargs)

        for module in (pseudoconformal.frames, pseudoconformal.lightlike):
            monkeypatch.setattr(module, "_null_frame", refuse)
        for module in (pseudoconformal.frames, pseudoconformal.linalg):
            monkeypatch.setattr(module, "solve", counted)
        focal = focal_map(imm, counts)
        key = lambda s: (s.u, s.root_index, s.x, s.multiplicity, s.at_infinity,
                         s.projective.coords.tobytes())
        assert [key(s) for s in focal.samples] == [key(s) for s in expected.samples]
        assert focal.errors == expected.errors == ()
        # the operator is read in closed form: nothing is eliminated
        assert not hasattr(pseudoconformal.lightlike, "solve")
        assert solves == []

    def test_jacobi_calls_do_not_grow_with_the_grid(self, monkeypatch):
        import pseudoconformal.frames
        import pseudoconformal.hypersurface
        import pseudoconformal.lightlike
        import pseudoconformal.linalg

        calls = []
        original = pseudoconformal.linalg.jacobi_eigh

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        for module in (pseudoconformal.frames, pseudoconformal.hypersurface,
                       pseudoconformal.lightlike, pseudoconformal.linalg):
            monkeypatch.setattr(module, "jacobi_eigh", counted)
        imm = catalog.build("light_cone")
        per_grid = []
        for count in (3, 6):
            calls.clear()
            focal = focal_map(imm, (count, count))
            assert len(focal.samples) == count * count
            per_grid.append(len(calls))
        assert per_grid[0] == per_grid[1] == 2

    @pytest.mark.parametrize("name", catalog.lightlike_entries())
    def test_one_jet_per_grid_point(self, name, monkeypatch):
        # one stacked point, jet1 and jet2 call per grid, one member per point
        imm = catalog.build(name)
        counts = [3] * imm.params
        calls = []
        for method in ("point", "jet1", "jet2"):
            original = getattr(Immersion, method)

            def counted(self, u, method=method, original=original):
                calls.append((method, np.shape(u)))
                return original(self, u)

            monkeypatch.setattr(Immersion, method, counted)
        focal = focal_map(imm, counts)
        assert focal.errors == ()
        grid = (3 ** imm.params, imm.params)
        assert sorted(calls) == [("jet1", grid), ("jet2", grid), ("point", grid)]

    def test_array_merge_matches_nested_loop(self, model3, rng):
        tol = 2.0 ** -20
        line = lambda t: np.array([t * tol, 0.5, -0.25])
        adversarial = [
            _finite_sample(line(1.5), model3),    # first cluster
            _finite_sample(line(0.0), model3),    # 1.5 tol away: second cluster
            _finite_sample(line(0.75), model3),   # within tol of both: the first
            _finite_sample(line(2.5), model3),    # exactly tol from the first
            _finite_sample(line(-1.0), model3),   # exactly tol from the second
            _finite_sample(line(-1.5), model3),   # beyond tol of both: a third
            _ideal_sample([0.0, 1.0, 0.0, 1.0, 0.5 + 1.5 * tol]),   # first ideal cluster
            _ideal_sample([0.0, 1.0, 0.0, 1.0, 0.5]),               # second ideal cluster
            _ideal_sample([0.0, 1.0, 0.0, 1.0, 0.5 + 0.75 * tol]),  # both: the first
            _finite_sample([0.0, 1.0, 0.0], model3),                # finite, same leading coords
            _ideal_sample([0.0, 1.0, 0.0, 1.0, 0.5 - tol]),         # exactly tol from the second
        ]
        centers = rng.uniform(-1.0, 1.0, size=(6, 3))
        mixed = []
        for k in rng.integers(0, 6, size=300):
            offset = rng.uniform(-1.5 * tol, 1.5 * tol, size=3)
            if k < 3:
                mixed.append(_finite_sample(centers[k] + offset, model3))
            else:
                mixed.append(_ideal_sample(np.concatenate([[0.0], centers[k] + offset, [1.0]])))
        for samples in (adversarial, mixed, adversarial[::-1] + mixed):
            expected = _nested_loop_merge(samples, tol)
            got = _column_merge(samples, tol)
            assert [[id(s) for s in c] for c in got] == [[id(s) for s in c] for c in expected]
        assert [len(c) for c in _column_merge(adversarial, tol)] == [3, 2, 1, 2, 2, 1]

    @pytest.mark.parametrize("kind", ["finite", "ideal", "empty", "tied"])
    def test_merge_columns_match_the_nested_loop(self, kind, model3, rng):
        # _merge gives the cluster and first columns of the nested loop's
        # clusters, bit for bit, on samples of one kind, on none, and on
        # samples whose coordinates tie across samples
        tol = 2.0 ** -20
        centers = rng.uniform(-1.0, 1.0, size=(5, 3))
        near = lambda k: centers[k] + rng.uniform(-1.5 * tol, 1.5 * tol, size=3)
        picks = rng.integers(0, 5, size=200).tolist()
        if kind == "finite":
            samples = [_finite_sample(near(k), model3) for k in picks]
        elif kind == "ideal":
            samples = [_ideal_sample(np.concatenate([[0.0], near(k), [1.0]])) for k in picks]
        elif kind == "empty":
            samples = []
        else:
            # lattice points of pitch tol (ties in every coordinate, repeated
            # points, neighbours exactly tol apart) and points off the lattice
            # in one coordinate only
            lattice = rng.integers(0, 4, size=(150, 3)) * tol
            lattice[::10, 1] = 0.5 + np.arange(15)
            samples = ([_finite_sample(p, model3) for p in lattice]
                       + [_ideal_sample(np.concatenate([[0.0], p + 0.25, [1.0]]))
                          for p in lattice[::3]])
        ideal = np.array([s.at_infinity for s in samples], dtype=bool)
        points = np.array([np.full(3, np.nan) if s.at_infinity else s.point
                           for s in samples]).reshape(-1, 3)
        cluster, first = _merge(points, np.array([s.projective.coords for s in samples])
                                .reshape(-1, 5), ideal, tol)
        clusters = _nested_loop_merge(samples, tol)
        label = {id(s): c for c, members in enumerate(clusters) for s in members}
        position = {id(s): i for i, s in enumerate(samples)}
        expected = (np.array([label[id(s)] for s in samples], dtype=int),
                    np.array([position[id(c[0])] for c in clusters], dtype=int))
        for got, want in zip((cluster, first), expected):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert len(clusters) < len(samples) or kind == "empty"

    def test_records_copy_the_columns(self):
        # each cluster lists its samples' multiplicities in sample order, from
        # its first sample's point; changing a record changes neither the
        # columns nor another record
        focal = focal_map(catalog.build("circle_wavefront"), [3, 3, 3])
        assert len(focal.clusters) > 1
        assert [(c.count, c.multiplicities, c.representative.tobytes())
                for c in focal.clusters] == [
            ((focal.cluster == c).sum(), tuple(focal.multiplicity[focal.cluster == c].tolist()),
             focal.point[f].tobytes()) for c, f in enumerate(focal.first)]
        before = focal.point.copy()
        for p in [s.point for s in focal.samples] + [c.representative for c in focal.clusters]:
            p += 1.0
        assert focal.point.tobytes() == before.tobytes()
        assert [s.point.tobytes() for s in focal.samples] == [p.tobytes() for p in before + 1.0]
        assert [c.representative.tobytes() for c in focal.clusters] == [
            (before[f] + 1.0).tobytes() for f in focal.first]


def _oracle_cases():
    cases = []
    for name in catalog.lightlike_entries():
        imm = catalog.build(name)
        cases += [(name, imm, [4] * imm.params), (name + "_fd", _fd_variant(imm), [4] * imm.params)]
    cone5 = catalog.build("light_cone", n=5)
    cases += [("light_cone5", cone5, [3] * 4), ("light_cone5_fd", _fd_variant(cone5), [3] * 4)]
    return cases


ORACLE_CASES = _oracle_cases()


class TestFocalOracle:
    """Focal x and focal points of the engine against the numpy.linalg
    reference of tests/_oracles.py, within 1e-9 (1 + |v|)."""

    def test_oracle_shares_no_solver_with_the_engine(self):
        # the reference may use the library's line and screen, but none of
        # its linear algebra and nothing of the lightlike engine
        tree = ast.parse((Path(__file__).resolve().parent / "_oracles.py").read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
        assert any(name.startswith("pseudoconformal.") for name in imported)
        for name in imported:
            assert not (name + ".").startswith("pseudoconformal.linalg."), name
            assert not (name + ".").startswith("pseudoconformal.lightlike."), name

    @pytest.mark.parametrize("label,imm,counts", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_engine_matches_reference(self, label, imm, counts):
        model = AmbientModel.standard(imm.n)
        focal = focal_map(imm, counts)
        failed = {u for u, _ in focal.errors}
        checked = 0
        for u in parameter_grid(imm, counts)[1]:
            key = tuple(u.tolist())
            try:
                reference = focal_reference(imm, u, model)
            except GeometryError:
                assert key in failed
                continue
            assert key not in failed
            samples = [s for s in focal.samples if s.u == key]
            assert len(samples) == len(reference)
            for s, (x, multiplicity, target) in zip(samples, reference):
                assert s.multiplicity == multiplicity
                assert abs(s.x - x) <= 1e-9 * (1.0 + abs(x))
                got = s.projective.coords if s.at_infinity else s.point
                assert s.at_infinity == (len(target) == imm.n + 2)
                assert np.all(np.abs(got - target) <= 1e-9 * (1.0 + np.abs(target)))
            checked += 1
        assert checked >= len(failed)
