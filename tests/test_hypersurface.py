import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.cli import _build_object, _resolve_grid, load_scene, main
from pseudoconformal.conformal import lift_point
from pseudoconformal.errors import DegenerateBasisError
from pseudoconformal.hypersurface import (
    Immersion,
    causal_type_of_metric,
    classify_point,
    induced_metric,
    lightlike_kernel,
    parameter_grid,
    survey,
)
from pseudoconformal.linalg import scalar_product

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
    def test_spacelike_slice_is_identity(self, model3):
        imm = catalog.build("spacelike_slice")
        m = induced_metric(imm, np.array([0.3, -0.4]), model=model3)
        assert np.abs(m - np.eye(2)).max() < 1e-12

    def test_timelike_hyperplane_is_lorentz(self, model3):
        imm = catalog.build("timelike_hyperplane")
        m = induced_metric(imm, np.array([0.1, 0.2]), model=model3)
        assert np.abs(m - np.diag([1.0, -1.0])).max() < 1e-12

    def test_polar_light_cone_degenerates_along_ray(self, model3):
        imm = polar_cone_immersion()
        u = np.array([0.8, 1.1])
        m = induced_metric(imm, u, model=model3)
        assert np.abs(m - np.diag([0.0, 0.8**2])).max() < 1e-12

    def test_finite_difference_jets_agree(self, model3):
        imm = polar_cone_immersion()
        fd = Immersion(n=3, domain=imm.domain, value=imm.value)
        u = np.array([0.9, 0.7])
        assert np.abs(
            induced_metric(imm, u, model=model3) - induced_metric(fd, u, model=model3)
        ).max() < 1e-8


class TestClassifyPoint:
    def test_slice_is_spacelike(self, model3):
        imm = catalog.build("spacelike_slice")
        assert classify_point(imm, np.array([0.0, 0.0]), model=model3).kind == "spacelike"

    def test_hyperplane_is_timelike(self, model3):
        imm = catalog.build("timelike_hyperplane")
        assert classify_point(imm, np.array([0.5, -0.5]), model=model3).kind == "timelike"

    def test_cone_is_lightlike_away_from_vertex(self, model3):
        imm = polar_cone_immersion()
        assert classify_point(imm, np.array([1.3, 0.4]), model=model3).kind == "lightlike"

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

    def test_reparametrization_invariance(self, model3, rng):
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
            classify_point(reparam, u, model=model3).kind
            == classify_point(imm, a @ u + b, model=model3).kind
        )

    def test_rank_deficient_jacobian_raises(self, model3):
        def value(u):
            return np.array([u[0], u[0], 0.0])

        imm = Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)
        with pytest.raises(DegenerateBasisError):
            classify_point(imm, np.array([0.2, 0.3]), model=model3)

    def test_lightlike_kernel_maps_to_null_vector(self, model3):
        imm = catalog.build("light_cone")
        u = np.array([1.1, 0.7])
        k = lightlike_kernel(imm, u, model=model3)
        v = imm.jet1(u) @ k
        assert abs(scalar_product(v, v, model3.metric)) < 1e-8 * float(v @ v)

    def test_homogeneous_lift_agrees_with_flat_computation(self, model3):
        flat = catalog.build("tilted_null_family")

        def lifted_value(u):
            return lift_point(flat.value(u), model3)

        lifted = Immersion(n=3, domain=flat.domain, value=lifted_value,
                           homogeneous=True)
        u = np.array([0.8, 1.0])
        m_flat = induced_metric(flat, u, model=model3)
        m_lift = induced_metric(lifted, u, model=model3)
        assert np.abs(m_flat - m_lift).max() < 1e-6
        assert classify_point(lifted, u, model=model3).kind == "lightlike"

    def test_conformal_rescaling_scales_metric_by_square(self, model3):
        flat = catalog.build("spacelike_slice")

        def sigma(u):
            return 1.0 + 0.25 * float(u[0])

        def lifted_value(u):
            return sigma(u) * lift_point(flat.value(u), model3)

        lifted = Immersion(n=3, domain=flat.domain, value=lifted_value,
                           homogeneous=True)
        u = np.array([0.3, -0.2])
        m_flat = induced_metric(flat, u, model=model3)
        m_lift = induced_metric(lifted, u, model=model3)
        assert np.abs(m_lift - sigma(u) ** 2 * m_flat).max() < 1e-7


class TestSurvey:
    def test_spacelike_hypersphere_pure(self, model3):
        report = survey(catalog.build("spacelike_hypersphere"), (12, 12), model=model3)
        assert report.pure == "spacelike"
        assert report.fractions()["spacelike"] == 1.0

    def test_timelike_hypersphere_pure(self, model3):
        report = survey(catalog.build("timelike_hypersphere"), (12, 12), model=model3)
        assert report.pure == "timelike"

    def test_light_cone_pure_lightlike(self, model3):
        report = survey(catalog.build("light_cone"), (10, 10), model=model3)
        assert report.pure == "lightlike"

    def test_euclidean_sphere_mixed_with_two_transition_circles(self, model3):
        imm = catalog.build("euclidean_sphere")
        report = survey(imm, (60, 12), model=model3)
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

    def test_errors_recorded_not_fatal(self, model3):
        def value(u):
            return np.array([u[0], u[0], 0.0]) if u[1] > 0 else np.array([u[0], u[1], 0.0])

        imm = Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)
        report = survey(imm, (3, 4), model=model3)
        assert report.errors
        assert report.counts["spacelike"] > 0

    def test_programming_errors_propagate(self, model3):
        def value(u):
            raise RuntimeError("bug in the evaluator")

        imm = Immersion(n=3, domain=((-1, 1), (-1, 1)), value=value)
        with pytest.raises(RuntimeError, match="bug in the evaluator"):
            survey(imm, (3, 3), model=model3)

    def test_non_finite_jacobian_is_an_error(self, model3):
        imm = nan_immersion()
        report = survey(imm, (5, 3), model=model3)
        # finite differences at u0 = 0.5 already reach into the NaN region
        assert [idx for idx, _ in report.errors] == [(i, j) for i in (2, 3, 4) for j in range(3)]
        assert all(msg.startswith("non-finite jacobian at u=") for _, msg in report.errors)
        assert report.counts["spacelike"] == 6
        assert report.counts["degenerate_beyond_lightlike"] == 0
        with pytest.raises(DegenerateBasisError, match="non-finite jacobian"):
            classify_point(imm, np.array([0.75, 0.5]), model=model3)

    def test_one_jacobian_evaluation_per_point(self, model3):
        base = catalog.build("euclidean_sphere")
        calls = []

        def jacobian(u):
            calls.append(1)
            return base.jacobian(u)

        imm = Immersion(n=3, domain=base.domain, value=base.value, jacobian=jacobian)
        classify_point(imm, np.array([0.3, 0.2]), model=model3)
        assert len(calls) == 1
        survey(imm, (4, 5), model=model3)
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

    def test_surveys_of_one_grid_are_equal(self, model3):
        imm = catalog.build("euclidean_sphere")
        first, second = survey(imm, (6, 4), model=model3), survey(imm, (6, 4), model=model3)
        assert first == second
        assert not first != second

    def test_one_inertia_apart_is_unequal(self, model3):
        report = survey(catalog.build("euclidean_sphere"), (6, 4), model=model3)
        plus, zero = report.plus.copy(), report.zero.copy()
        plus[5], zero[5] = plus[5] - 1, zero[5] + 1
        other = replace(report, plus=plus, zero=zero)
        assert report != other
        assert not report == other
        assert report.points[5] != other.points[5]
        assert report.points[:5] == other.points[:5]

    def test_other_shapes_and_types_are_unequal(self, model3):
        imm = catalog.build("euclidean_sphere")
        report = survey(imm, (6, 4), model=model3)
        assert report != survey(imm, (5, 4), model=model3)
        assert report != survey(replace(imm, domain=((0.05, 1.0), (0.0, 1.0))), (6, 4),
                                model=model3)
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
