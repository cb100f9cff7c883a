import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.cli import _build_object, _resolve_grid, load_scene, main
from pseudoconformal.conformal import lift_point
from pseudoconformal.errors import DegenerateBasisError, GeometryError, NotLightlikeError
from pseudoconformal.hypersurface import (
    _KINDS,
    Immersion,
    _ambient_gram,
    _certified_rank,
    _evaluate_stack,
    _stacked_spectra,
    _transitions,
    causal_type_of_metric,
    classify_point,
    induced_metric,
    parameter_grid,
    survey,
)
from pseudoconformal.lightlike import degeneracy_check, lightlike_affinor
from pseudoconformal.linalg import jacobi_eigh

from _oracles import matmul_stacked_spectra

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def polar_cone_immersion():
    """Light cone in polar parameters (r cos t, r sin t, r), hand jets."""

    def value(u):
        r, t = u
        return np.array([r * math.cos(t), r * math.sin(t), r])

    def jacobian(u):
        r, t = u
        return np.array(
            [
                [math.cos(t), -r * math.sin(t)],
                [math.sin(t), r * math.cos(t)],
                [1.0, 0.0],
            ]
        )

    return Immersion(n=3, domain=((0.2, 2.0), (0.0, 6.0)), value=value,
                     jacobian=jacobian, name="polar_cone")


class TestInducedMetric:
    def test_spacelike_slice_is_identity(self):
        imm = catalog.build("spacelike_slice")
        m = induced_metric(imm, np.array([0.3, -0.4]))
        assert np.abs(m - np.eye(2)).max() < 1e-12

    def test_timelike_hyperplane_is_lorentz(self):
        imm = catalog.build("timelike_hyperplane")
        m = induced_metric(imm, np.array([0.1, 0.2]))
        assert np.abs(m - np.diag([1.0, -1.0])).max() < 1e-12

    def test_polar_light_cone_degenerates_along_ray(self):
        imm = polar_cone_immersion()
        u = np.array([0.8, 1.1])
        m = induced_metric(imm, u)
        assert np.abs(m - np.diag([0.0, 0.8**2])).max() < 1e-12

    def test_finite_difference_jets_agree(self):
        imm = polar_cone_immersion()
        fd = Immersion(n=3, domain=imm.domain, value=imm.value)
        u = np.array([0.9, 0.7])
        assert np.abs(
            induced_metric(imm, u) - induced_metric(fd, u)
        ).max() < 1e-8


class TestClassifyPoint:
    def test_slice_is_spacelike(self):
        imm = catalog.build("spacelike_slice")
        assert classify_point(imm, np.array([0.0, 0.0])).kind == "spacelike"

    def test_hyperplane_is_timelike(self):
        imm = catalog.build("timelike_hyperplane")
        assert classify_point(imm, np.array([0.5, -0.5])).kind == "timelike"

    def test_cone_is_lightlike_away_from_vertex(self):
        imm = polar_cone_immersion()
        assert classify_point(imm, np.array([1.3, 0.4])).kind == "lightlike"

    def test_causal_type_inertia_mapping(self):
        assert causal_type_of_metric(np.eye(3), 1e-7).kind == "spacelike"
        assert causal_type_of_metric(np.diag([1.0, 1.0, -1.0]), 1e-7).kind == "timelike"
        assert causal_type_of_metric(np.diag([1.0, 1.0, 0.0]), 1e-7).kind == "lightlike"
        assert causal_type_of_metric(np.diag([1.0, 0.0, 0.0]), 1e-7).kind == (
            "degenerate_beyond_lightlike"
        )
        assert causal_type_of_metric(np.diag([1.0, -1.0, -1.0]), 1e-7).kind == (
            "degenerate_beyond_lightlike"
        )

    def test_reparametrization_invariance(self, rng):
        imm = catalog.build("tilted_null_family")
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        b = np.array([1.0, 0.9])

        def value(u):
            return imm.value(a @ u + b)

        def jacobian(u):
            return imm.jacobian(a @ u + b) @ a

        reparam = Immersion(n=3, domain=((-0.2, 0.2), (-0.2, 0.2)),
                            value=value, jacobian=jacobian)
        u = np.array([0.05, -0.1])
        assert (
            classify_point(reparam, u).kind
            == classify_point(imm, a @ u + b).kind
        )

    def test_rank_deficient_jacobian_raises(self):
        def value(u):
            return np.array([u[0], u[0], 0.0])

        imm = Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)
        with pytest.raises(DegenerateBasisError):
            classify_point(imm, np.array([0.2, 0.3]))

    def test_finite_jacobian_whose_j_t_j_overflows_raises(self):
        # J^T G J = diag(0, 1) is finite, the large entries cancelling in the
        # Lorentzian product, but J^T J = diag(2.42e308, 1) overflows
        imm = linear_immersion([1.1e154, 0.0, 1.1e154], [0.0, 1.0, 0.0])
        with pytest.raises(DegenerateBasisError, match=r"non-finite jacobian at u=\[0.0, 0.0\]"):
            classify_point(imm, np.zeros(2))
        report = survey(imm, (2, 2))
        assert len(report.errors) == 4 and not len(report.u)
        assert all(msg.startswith("non-finite jacobian at u=") for _, msg in report.errors)

    def test_homogeneous_lift_agrees_with_flat_computation(self, model3):
        flat = catalog.build("tilted_null_family")

        def lifted_value(u):
            return lift_point(flat.value(u), model3)

        lifted = Immersion(n=3, domain=flat.domain, value=lifted_value,
                           homogeneous=True)
        u = np.array([0.8, 1.0])
        m_flat = induced_metric(flat, u)
        m_lift = induced_metric(lifted, u)
        assert np.abs(m_flat - m_lift).max() < 1e-6
        assert classify_point(lifted, u).kind == "lightlike"

    def test_conformal_rescaling_scales_metric_by_square(self, model3):
        flat = catalog.build("spacelike_slice")

        def sigma(u):
            return 1.0 + 0.25 * float(u[0])

        def lifted_value(u):
            return sigma(u) * lift_point(flat.value(u), model3)

        lifted = Immersion(n=3, domain=flat.domain, value=lifted_value,
                           homogeneous=True)
        u = np.array([0.3, -0.2])
        m_flat = induced_metric(flat, u)
        m_lift = induced_metric(lifted, u)
        assert np.abs(m_lift - sigma(u) ** 2 * m_flat).max() < 1e-7


def linear_immersion(*columns):
    """The parameter map u -> J u into the Lorentzian space, with analytic
    jets, given the n-1 columns of J."""
    j = np.array(columns, dtype=float).T
    return Immersion(n=j.shape[0], domain=((-1.0, 1.0),) * j.shape[1],
                     value=lambda u: j @ u, jacobian=lambda u: j,
                     hessian=lambda u: np.zeros(j.shape + (j.shape[1],)))


class TestDegeneracyCheckInputs:
    """``degeneracy_check`` on a scaled cone, on anisotropic metrics and on
    points it must refuse.  The linear immersions' Hessians vanish, so the
    turning of their tangent span is the induced metric's alone."""

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1e2])
    def test_invariant_under_scaling(self, scale):
        # the rate and the rank cut are relative to the fastest turning; a
        # chart grown by s spreads the lift (1, p, |p|^2 / 2) over s^2 and
        # lifts the rate's rounding floor to about 1e-16 s (7.1e-14 at 100,
        # 7.6e-12 at 1e4, measured)
        imm = catalog.build("light_cone", n=4)
        scaled = Immersion(n=4, domain=imm.domain, value=lambda u: scale * imm.value(u),
                           jacobian=lambda u: scale * imm.jacobian(u),
                           hessian=lambda u: scale * imm.hessian(u))
        for u in parameter_grid(imm, [3] * imm.params)[1]:
            report = degeneracy_check(scaled, lightlike_affinor(scaled, u))
            assert report.generator_rate <= 1e-13 and report.tangent_rank == 2

    def test_anisotropic_metric_passes_where_the_centre_did(self):
        # J = (l, e_1, 1e-3 e_2, 1e-3 e_3): the metric diag(0, 1, 1e-6, 1e-6),
        # whose least eigenvalue ratio 1e-6 over the second least lets
        # ``_inertia`` find it lightlike
        j = np.array([[1.0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1e-3, 0, 0], [0, 0, 0, 1e-3, 0]])
        imm, u = linear_immersion(*j), np.zeros(4)
        report = degeneracy_check(imm, lightlike_affinor(imm, u))
        assert report.generator_rate <= 1e-14

    def test_rotated_anisotropic_metric(self, rng):
        # the same metric in rotated parameters, so the kernel column is no
        # coordinate direction
        rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        j = np.array([[1.0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1e-3, 0, 0], [0, 0, 0, 1e-3, 0]])
        imm, u = linear_immersion(*(rotation.T @ j)), np.zeros(4)
        report = degeneracy_check(imm, lightlike_affinor(imm, u))
        assert report.generator_rate <= 1e-12

    def test_two_dimensional_kernel_raises(self, rng):
        # J = (l, 2 l, e_1) with l null: the metric is diag(0, 0, 1) up to a
        # rotation of the parameters, whose kernel of dimension 2 comes from a
        # J that is no immersion
        null, e1 = np.array([1.0, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0, 0.0])
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for j in (np.array([null, 2 * null, e1]), rotation.T @ np.array([null, 2 * null, e1])):
            with pytest.raises(DegenerateBasisError, match="rank deficient"):
                degeneracy_check(linear_immersion(*j), SimpleNamespace(u=np.zeros(3)))

    @pytest.mark.parametrize("columns", [np.eye(4)[:3], np.eye(4)[[0, 1, 3]]],
                             ids=["spacelike", "timelike"])
    def test_nonsingular_metric_raises(self, columns):
        with pytest.raises(NotLightlikeError, match="not lightlike"):
            degeneracy_check(linear_immersion(*columns), SimpleNamespace(u=np.zeros(3)))

    def test_non_finite_jacobian_raises(self):
        imm = linear_immersion([1.0, 0.0, 0.0, 1.0], [0.0, np.nan, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(DegenerateBasisError, match="non-finite"):
            degeneracy_check(imm, SimpleNamespace(u=np.zeros(3)))

    def test_non_finite_hessian_raises(self):
        cone = catalog.build("light_cone")
        imm = replace(cone, hessian=lambda u: np.full((3, 2, 2), np.nan))
        with pytest.raises(DegenerateBasisError, match="non-finite hessian"):
            degeneracy_check(imm, SimpleNamespace(u=np.array([1.0, 0.7])))


class TestSurvey:
    def test_spacelike_hypersphere_pure(self):
        report = survey(catalog.build("spacelike_hypersphere"), (12, 12))
        assert report.pure == "spacelike"
        assert report.fractions()["spacelike"] == 1.0

    def test_timelike_hypersphere_pure(self):
        report = survey(catalog.build("timelike_hypersphere"), (12, 12))
        assert report.pure == "timelike"

    def test_light_cone_pure_lightlike(self):
        report = survey(catalog.build("light_cone"), (10, 10))
        assert report.pure == "lightlike"

    def test_euclidean_sphere_mixed_with_two_transition_circles(self):
        imm = catalog.build("euclidean_sphere")
        report = survey(imm, (60, 12))
        assert report.mixed
        assert report.counts["spacelike"] > 0 and report.counts["timelike"] > 0
        # tangency latitudes of the round sphere against the cones
        crossings = [t for t in report.transitions if t.axis == 0]
        assert crossings
        lows = np.array([t.u_low[0] for t in crossings])
        highs = np.array([t.u_high[0] for t in crossings])
        near_first = np.sum((lows <= math.pi / 4) & (math.pi / 4 <= highs))
        near_second = np.sum((lows <= 3 * math.pi / 4) & (3 * math.pi / 4 <= highs))
        assert near_first > 0 and near_second > 0
        for t in crossings:
            bracket_first = t.u_low[0] <= math.pi / 4 <= t.u_high[0]
            bracket_second = t.u_low[0] <= 3 * math.pi / 4 <= t.u_high[0]
            assert bracket_first or bracket_second

    def test_errors_recorded_not_fatal(self):
        def value(u):
            return np.array([u[0], u[0], 0.0]) if u[1] > 0 else np.array([u[0], u[1], 0.0])

        imm = Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)
        report = survey(imm, (3, 4))
        assert report.errors
        assert report.counts["spacelike"] > 0

    def test_programming_errors_propagate(self):
        def value(u):
            raise RuntimeError("bug in the evaluator")

        imm = Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)
        with pytest.raises(RuntimeError, match="bug in the evaluator"):
            survey(imm, (3, 3))

    def test_non_finite_jacobian_is_an_error(self):
        imm = nan_immersion()
        report = survey(imm, (5, 3))
        # finite differences at u0 = 0.5 already reach into the NaN region
        assert [idx for idx, _ in report.errors] == [(i, j) for i in (2, 3, 4) for j in range(3)]
        assert all(msg.startswith("non-finite jacobian at u=") for _, msg in report.errors)
        assert report.counts["spacelike"] == 6
        assert report.counts["degenerate_beyond_lightlike"] == 0
        with pytest.raises(DegenerateBasisError, match="non-finite jacobian"):
            classify_point(imm, np.array([0.75, 0.5]))

    def test_one_jacobian_evaluation_per_point(self):
        base = catalog.build("euclidean_sphere")
        calls = []

        def jacobian(u):
            calls.append(1)
            return base.jacobian(u)

        imm = Immersion(n=3, domain=base.domain, value=base.value, jacobian=jacobian)
        classify_point(imm, np.array([0.3, 0.2]))
        assert len(calls) == 1
        survey(imm, (4, 5))
        assert len(calls) == 1 + 20

    def test_csv_rows_shape(self, tmp_path, capsys):
        """The classify CSV writer gives one row of 2 + 5 cells per point."""
        scene = tmp_path / "slice.json"
        scene.write_text(json.dumps({"kind": "hypersurface", "builtin": "spacelike_slice",
                                     "n": 3, "grid": [3, 3]}))
        out = tmp_path / "slice.csv"
        assert main(["classify", "--scene", str(scene), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        assert len(rows[0]) == 2 + 5


class TestReportEquality:
    """Reports hold numpy columns and still compare with == and !=."""

    def test_surveys_of_one_grid_are_equal(self):
        imm = catalog.build("euclidean_sphere")
        first, second = survey(imm, (6, 4)), survey(imm, (6, 4))
        assert first == second
        assert not first != second

    def test_one_inertia_apart_is_unequal(self):
        report = survey(catalog.build("euclidean_sphere"), (6, 4))
        plus, zero = report.plus.copy(), report.zero.copy()
        plus[5], zero[5] = plus[5] - 1, zero[5] + 1
        other = replace(report, plus=plus, zero=zero)
        assert report != other
        assert not report == other
        assert report.points[5] != other.points[5]
        assert report.points[:5] == other.points[:5]

    def test_other_shapes_and_types_are_unequal(self):
        imm = catalog.build("euclidean_sphere")
        report = survey(imm, (6, 4))
        assert report != survey(imm, (5, 4))
        assert report != survey(replace(imm, domain=((0.05, 1.0), (0.0, 1.0))), (6, 4))
        assert report != report.points
        assert report is not None and report != "report"


def nan_immersion():
    def value(u):
        return np.array([u[0], u[1], math.nan if u[0] > 0.5 else 0.0])

    return Immersion(n=3, domain=((0, 1), (0, 1)), value=value)


def inf_immersion():
    """A Jacobian with an infinite entry for u0 > 0.5: its induced metric
    would multiply inf by 0."""

    def jacobian(u):
        return np.array([[1.0, 0.0], [0.0, 1.0], [math.inf if u[0] > 0.5 else u[0], 0.0]])

    return Immersion(n=3, domain=((0, 1), (0, 1)), jacobian=jacobian,
                     value=lambda u: np.array([u[0], u[1], 0.0]))


def rank_deficient_immersion():
    def value(u):
        return np.array([u[0], u[0], 0.0]) if u[1] > 0 else np.array([u[0], u[1], 0.0])

    return Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)


def mixed_graph_immersion():
    """Graph of u0^2 / 2: spacelike for |u0| < 1, lightlike at |u0| = 1 and
    timelike beyond; rank deficient for 0.25 < u1 <= 0.75, NaN above."""

    def jacobian(u):
        if u[1] > 0.75:
            return np.array([[1.0, 0.0], [0.0, 1.0], [u[0], math.nan]])
        if u[1] > 0.25:
            return np.array([[1.0, 0.0], [0.0, 0.0], [u[0], 0.0]])
        return np.array([[1.0, 0.0], [0.0, 1.0], [u[0], 0.0]])

    return Immersion(n=3, domain=((-2, 2), (-1, 1)), jacobian=jacobian,
                     value=lambda u: np.array([u[0], u[1], 0.5 * u[0] ** 2]))


def assert_survey_matches_classify_point(imm, counts, tol=None):
    """The batched survey against classify_point at every grid point."""
    report = survey(imm, counts, tol=tol)
    axes, grid = parameter_grid(imm, counts)
    expected, failed = [], []
    for idx, u in zip(np.ndindex(*(len(ax) for ax in axes)), grid):
        try:
            expected.append((idx, tuple(u), classify_point(imm, u, tol=tol)))
        except DegenerateBasisError:
            failed.append(idx)
    assert [idx for idx, _ in report.errors] == failed
    assert len(report.points) == len(expected)
    for point, (idx, u, causal) in zip(report.points, expected):
        assert (point.index, point.u) == (idx, u)
        assert point.causal.kind == causal.kind
        assert point.causal.as_tuple() == causal.as_tuple()
        assert abs(point.causal.min_eig_ratio - causal.min_eig_ratio) <= 1e-14
    kinds = {idx: causal.kind for idx, _, causal in expected}
    assert [
        (t.axis, t.index_low, t.u_low, t.u_high, t.kinds) for t in report.transitions
    ] == scanned_transitions(kinds, axes)


def scanned_transitions(kinds, axes):
    """Reference transition scan: one pass over grid points and axes."""
    found = []
    for idx in np.ndindex(*(len(ax) for ax in axes)):
        for axis in range(len(axes)):
            nxt = tuple(i + (a == axis) for a, i in enumerate(idx))
            k0, k1 = kinds.get(idx), kinds.get(nxt)
            if k0 is None or k1 is None or k0 == k1:
                continue
            if {k0, k1} == {"spacelike", "timelike"} or "lightlike" in (k0, k1):
                u_low = tuple(float(axes[a][i]) for a, i in enumerate(idx))
                u_high = tuple(float(axes[a][i]) for a, i in enumerate(nxt))
                found.append((axis, idx, u_low, u_high, (k0, k1)))
    return found


HYPERSURFACES = sorted(
    name for name, entry in catalog.CATALOG.items() if entry.kind == "hypersurface"
)
CLASSIFY_SCENES = sorted(
    path.name for path in SCENES.glob("*.json") if load_scene(str(path)).kind == "hypersurface"
)


class TestSurveyEquivalence:
    @pytest.mark.parametrize("name", HYPERSURFACES)
    def test_catalog_entry_small_grid(self, name):
        imm = catalog.build(name)
        assert_survey_matches_classify_point(imm, [5] * imm.params)

    @pytest.mark.parametrize("scene_name", CLASSIFY_SCENES)
    def test_shipped_scene(self, scene_name):
        scene = load_scene(str(SCENES / scene_name))
        imm, counts = _resolve_grid(scene, _build_object(scene))
        assert_survey_matches_classify_point(imm, counts, tol=scene.tolerances.get("lightlike"))

    @pytest.mark.parametrize(
        "build", [nan_immersion, inf_immersion, rank_deficient_immersion, mixed_graph_immersion]
    )
    def test_failing_points(self, build):
        assert_survey_matches_classify_point(build(), (9, 5))

    def test_transitions_of_random_codes(self, rng):
        # every kind next to every other and to failed points (-1), on 1 to 4
        # axes; the edges carry Python ints and floats, as the scan's do
        for shape in [(1,), (9,), (2, 2), (5, 6, 7), (3, 1, 4, 2)]:
            codes = rng.integers(-1, len(_KINDS), size=shape)
            axes = [np.linspace(-1.0, 1.7, count) for count in shape]
            kinds = {idx: _KINDS[code] for idx, code in np.ndenumerate(codes) if code >= 0}
            got = [(t.axis, t.index_low, t.u_low, t.u_high, t.kinds)
                   for t in _transitions(codes, axes)]
            expected = scanned_transitions(kinds, axes)
            assert got == expected and repr(got) == repr(expected)


class TestDifferencedJets:
    """Without an analytic Hessian (or Jacobian) a stack's jets are central
    differences of one stacked jet1 (or point) call; each member keeps the
    bits, exception and message of its one-point jet."""

    @staticmethod
    def variants():
        # the light cone, cut off beyond u0 = 1.5 where its evaluators take
        # the square root of a negative number: "math domain error" for one
        # point, NaN in a stack
        cone = catalog.build("light_cone")
        cut = lambda u: catalog._sqrt(1.5 - u[..., 0]) * 0.0 + 1.0
        value = lambda u: cone.value(u) * np.asarray(cut(u))[..., None]
        jacobian = lambda u: cone.jacobian(u) * np.asarray(cut(u))[..., None, None]
        return {"analytic": Immersion(n=3, domain=cone.domain, value=value, jacobian=jacobian,
                                      broadcasts=True),
                "fd": Immersion(n=3, domain=cone.domain, value=value, broadcasts=True),
                "fd_scalar": Immersion(n=3, domain=cone.domain, value=value)}

    @pytest.mark.parametrize("variant", ["analytic", "fd", "fd_scalar"])
    def test_members_keep_their_one_point_jets(self, variant, monkeypatch):
        imm = self.variants()[variant]
        # the second member's u0 + step lies past the cut for either step
        us = np.array([[0.7, 0.4], [1.5 - 0.5e-5, 0.4], [1.1, -0.3], [0.6, 1.2]])
        calls = []
        original = Immersion.jet1

        def counted(self, u):
            calls.append(np.shape(u))
            return original(self, u)

        monkeypatch.setattr(Immersion, "jet1", counted)
        hessians, failed = imm.jet2(us)
        stacked_calls = list(calls)
        for i, u in enumerate(us):
            if i in failed:
                with pytest.raises(ValueError) as exc:
                    imm.jet2(u)
                assert str(failed[i]) == str(exc.value) == "math domain error"
            else:
                assert hessians[i].tobytes() == imm.jet2(u).tobytes()
        assert sorted(failed) == [1]
        assert np.isfinite(hessians).all()
        # one stacked jet1 call for the stack's neighbours, then one for the
        # neighbours of the replayed member alone (one-point jet1 calls replay
        # the neighbours past the cut)
        assert [c for c in stacked_calls if len(c) == 2] == [(4 * 4, 2), (4, 2)]
        # so are the Jacobians, differenced in one stacked point call without
        # an analytic Jacobian (whose step reaches past the cut from member 1)
        jets, failed = imm.jet1(us)
        assert sorted(failed) == ([] if variant == "analytic" else [1])
        for i, u in enumerate(us):
            if i in failed:
                with pytest.raises(ValueError, match="math domain error"):
                    imm.jet1(u)
            else:
                assert jets[i].tobytes() == imm.jet1(u).tobytes()

    def test_scalar_and_stacked_differences_agree_with_the_hessian(self):
        cone = catalog.build("light_cone", n=5)
        imm = Immersion(n=5, domain=cone.domain, value=cone.value, jacobian=cone.jacobian,
                        broadcasts=True)
        us = parameter_grid(imm, [3] * 4)[1]
        hessians, failed = imm.jet2(us)
        assert failed == {}
        assert np.abs(hessians - cone.jet2(us)[0]).max() < 1e-5


class TestBroadcasts:
    def test_every_jet_follows_the_flag(self):
        # with ``broadcasts`` each evaluator, the Hessian included, runs once
        # over a stack; without it each runs point by point, with the same bits
        cone = catalog.build("light_cone")
        us = parameter_grid(cone, [3, 3])[1]
        calls = []

        def counted(evaluate):
            return lambda u: calls.append(np.shape(u)) or evaluate(u)

        for broadcasts, shapes in ((True, [us.shape]), (False, [(2,)] * len(us))):
            imm = Immersion(n=3, domain=cone.domain, value=counted(cone.value),
                            jacobian=counted(cone.jacobian), hessian=counted(cone.hessian),
                            broadcasts=broadcasts)
            for jet, want in ((imm.point, cone.point), (imm.jet1, cone.jet1),
                              (imm.jet2, cone.jet2)):
                calls.clear()
                got, failed = jet(us)
                assert calls == shapes and failed == {}
                assert got.tobytes() == want(us)[0].tobytes()


class TestJetShapes:
    """Every jet order, the point included, checks one point's shape."""

    @staticmethod
    def short_past(cut):
        # the light cone, whose value drops its last coordinate past u0 = cut
        cone = catalog.build("light_cone")
        value = lambda u: cone.value(u)[: 2 if u[0] > cut else 3]
        return Immersion(n=3, domain=cone.domain, value=value, jacobian=cone.jacobian)

    def test_one_point_value_of_the_wrong_shape_raises(self):
        imm = self.short_past(1.0)
        assert imm.point(np.array([0.7, 0.4])).shape == (3,)
        with pytest.raises(ValueError, match=r"^value has shape \(2,\), expected \(3,\)$"):
            imm.point(np.array([1.2, 0.4]))

    def test_stack_member_with_a_value_of_the_wrong_shape_fails_alone(self):
        imm = self.short_past(1.0)
        us = np.array([[0.7, 0.4], [1.2, 0.4], [0.9, -0.3]])
        points, failed = imm.point(us)
        assert list(failed) == [1]
        assert str(failed[1]) == "value has shape (2,), expected (3,)"
        assert not points[1].any()
        for i in (0, 2):
            assert points[i].tobytes() == imm.point(us[i]).tobytes()

    @pytest.mark.parametrize("u", [0.5, [0.5], [0.5, 0.1, 0.2], [[0.5], [0.7]], [[0.5, 0.1, 0.2]]])
    @pytest.mark.parametrize("jet", ["point", "jet1", "jet2"])
    def test_parameter_points_of_the_wrong_length_raise(self, jet, u):
        # analytic and differenced jets alike, one point or a stack; a point
        # too long would otherwise be read by its first entries
        got = np.shape(u)[-1] if np.ndim(u) else "a scalar"
        cone = catalog.build("light_cone")
        for imm in (cone, Immersion(n=3, domain=cone.domain, value=cone.value)):
            with pytest.raises(ValueError, match=rf"^u must have params=2 entries, got {got}$"):
                getattr(imm, jet)(np.array(u))

    @pytest.mark.parametrize("engine,name", [(induced_metric, "spacelike_slice"),
                                             (classify_point, "euclidean_sphere"),
                                             (lightlike_affinor, "tilted_null_family")])
    def test_engines_reject_a_point_of_the_wrong_length(self, engine, name):
        with pytest.raises(ValueError, match=r"^u must have params=2 entries, got 1$"):
            engine(catalog.build(name), [0.5])


class TestParameterGrid:
    @pytest.mark.parametrize("name,counts", [
        ("light_cone", (3, 4)),
        ("circle_wavefront", (2, 3, 4)),
        ("twisted_congruence", (3, 2, 2)),
    ])
    def test_ndindex_order_over_linspace_axes(self, name, counts):
        obj = catalog.build(name)
        axes, grid = parameter_grid(obj, counts)
        for ax, (lo, hi), c in zip(axes, obj.domain, counts):
            assert ax.tobytes() == np.linspace(lo, hi, c).tobytes()
        expected = [np.array([axes[a][i] for a, i in enumerate(idx)])
                    for idx in np.ndindex(*counts)]
        assert grid.shape == (len(expected), len(counts))
        assert [u.tobytes() for u in grid] == [u.tobytes() for u in expected]

    def test_more_axes_than_numpy_broadcasts(self):
        # 33 parameters, one sample each: the grid is the box's lower corner
        obj = catalog.build("light_cone", n=34)
        axes, grid = parameter_grid(obj, [1] * 33)
        assert grid.shape == (1, 33)
        assert grid[0].tolist() == [lo for lo, _ in obj.domain]

    def test_wrong_number_of_counts(self):
        with pytest.raises(ValueError, match="need 2 grid counts"):
            parameter_grid(catalog.build("light_cone"), [3, 3, 3])


def scalar_only(imm):
    """The immersion without its broadcasting twins, as a user would write it."""
    return Immersion(n=imm.n, domain=imm.domain, value=imm.value, jacobian=imm.jacobian,
                     name=imm.name)


class TestStackedSurvey:
    """``survey`` evaluates the grid in one stacked call; members the twin
    cannot evaluate fail as they fail alone, and the others keep the bits of
    a scalar-only immersion evaluated member by member."""

    @pytest.mark.parametrize("values, replayed", [
        ([1e308, 1e308, 1e308], []),  # finite outputs whose sum overflows
        ([1.0, math.inf, -math.inf], [1, 2]),  # a sum that is NaN
        ([math.nan, 1.0, 1e308], [0]),
    ])
    def test_only_non_finite_members_are_replayed(self, values, replayed):
        # the stack's sum screens the per-member scan, which alone decides
        calls = []
        out, failures = _evaluate_stack(lambda u: calls.append(int(u[0])) or np.ones(2),
                                        lambda us: np.array(values)[:, None] * np.ones(2),
                                        np.arange(3.0)[:, None], (2,))
        assert calls == replayed and not failures
        assert out[replayed].tolist() == [[1.0, 1.0]] * len(replayed)
        assert all(out[i].tolist() == [values[i]] * 2 for i in range(3) if i not in replayed)

    @pytest.mark.parametrize("name, domain, counts, errors", [
        ("timelike_hypersphere", ((0.25, 1.75), (0.0, 1.0)), (4, 2),
         {(2, 0): "math domain error", (3, 0): "math domain error",
          (3, 1): "math domain error"}),
        ("light_cone", ((0.0, 1.0), (0.0, 1.0)), (3, 3),
         {(0, 0): "non-finite jacobian at u=[0.0, 0.0]"}),
        # one-point Jacobians that divide by zero, without a RuntimeWarning
        ("timelike_hypersphere", ((0.0, 1.0), (0.0, 1.0)), (2, 2),
         {(1, 0): "non-finite jacobian at u=[1.0, 0.0]"}),
        ("circle_wavefront", ((0.0, 0.9), (0.0, 0.9), (0.3, 0.8)), (2, 2, 2),
         {(0, 0, 0): "non-finite jacobian at u=[0.0, 0.0, 0.3]",
          (0, 0, 1): "non-finite jacobian at u=[0.0, 0.0, 0.8]"}),
    ])
    def test_mixed_failures_keep_messages_and_bits(self, name, domain, counts, errors):
        imm = replace(catalog.build(name), domain=domain)
        got = survey(imm, counts)  # in the standard model of imm.n
        assert dict(got.errors) == errors
        assert got == survey(scalar_only(imm), counts)
        assert len(got.points) == np.prod(counts) - len(errors)


def assert_matmul_spectra(jets, gram, us, failures=None):
    """``_stacked_spectra`` gives the eigenvalue and eigenvector bits and
    the failures, by type and message, of the pass that decomposed every
    J^T J (``_oracles.matmul_stacked_spectra``), with eigenvectors and
    without."""
    for vectors in (False, True):
        got, expected = dict(failures or {}), dict(failures or {})
        w, v = _stacked_spectra(jets, gram, us, got, vectors)
        w_ref, v_ref = matmul_stacked_spectra(jets, gram, us, expected, vectors)
        assert w.tobytes() == w_ref.tobytes()
        assert v is v_ref is None or v.tobytes() == v_ref.tobytes()
        assert [(i, type(e), str(e)) for i, e in got.items()] == [
            (i, type(e), str(e)) for i, e in expected.items()]


class TestRankCertificate:
    """``_certified_rank`` clears only Jacobians that pass the J^T J
    spectrum's rank test, and ``_stacked_spectra``, which decomposes J^T J
    only for the members it does not clear, keeps every bit and failure of
    the pass that decomposed them all."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_certified_members_pass_the_rank_test(self, d):
        rng = np.random.default_rng(40 + d)
        cleared = []
        for t in range(d, d + 3):
            for scale in (1e-100, 1.0, 1e100):
                j = rng.normal(size=(2000, t, d))
                # the last column nearly dependent, to a condition of about 1e9
                j[:, :, -1] = (j[:, :, :-1] @ rng.normal(size=(2000, d - 1, 1)))[:, :, 0] \
                    + 10.0 ** rng.uniform(-9, 0, size=(2000, 1)) * j[:, :, -1]
                j *= scale
                certified = _certified_rank(j)
                w = jacobi_eigh(np.swapaxes(j, 1, 2) @ j, vectors=0)[0]
                passes = w[:, -1] > 1e-12 * np.maximum(w[:, 0], 1e-300)
                assert not (certified & ~passes).any()
                cleared.append(certified.mean())
        # the certificate clears most members it can: it is not vacuous
        assert min(cleared) > (0.99 if d == 1 else 0.1) and (d == 1 or max(cleared) < 0.9)

    @pytest.mark.parametrize("name, n", [(name, n) for name in HYPERSURFACES
                                         for n in catalog.CATALOG[name].dims or (3, 4, 5)])
    def test_catalog_default_grids(self, name, n):
        imm = catalog.build(name, n=n)
        grid = parameter_grid(imm, [8] * imm.params)[1]
        jets, failures = imm.jet1(grid)
        assert_matmul_spectra(jets, _ambient_gram(imm), grid, failures)

    def test_planted_members(self, rng):
        gram = np.diag([1.0, 1.0, -1.0])
        jets, us = rng.normal(size=(12, 3, 2)), rng.normal(size=(12, 2))
        jets[1] = [[1.1e154, 0.0], [0.0, 1.0], [1.1e154, 0.0]]  # J^T J overflows, J^T G J not
        jets[2, :, 1] = 2.0 * jets[2, :, 0]  # rank deficient
        jets[3, 0, 0] = np.nan
        jets[4] *= 1e160  # both products overflow
        jets[5] = [[9e153, 9e153], [9e153, -9e153], [0.0, 1.0]]  # J^T J finite, the metric not
        jets[6] *= 1e-160  # J^T J below the rank test's floor
        jets[7] = [[1.0, 1.0], [0.0, 1e-7], [0.0, 0.0]]  # spectrum ratio 2.5e-15
        jets[8] = [[1.0, 1.0], [0.0, 1e-5], [0.0, 0.0]]  # 2.5e-11: in doubt, yet full rank
        with np.errstate(all="ignore"):  # as in _stacked_spectra
            assert _certified_rank(jets).tolist() == [True] + [False] * 8 + [True] * 3
        for failures in ({}, {0: ValueError("evaluation failed"), 9: GeometryError("off")}):
            assert_matmul_spectra(jets, gram, us, failures)
