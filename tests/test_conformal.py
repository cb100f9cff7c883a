import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoconformal.conformal import (
    AmbientModel,
    AtInfinity,
    ProjectivePoint,
    _lift_lines,
    _normalized,
    _unembed,
    classify_element,
    darboux_embed,
    darboux_unembed,
    hypersphere_coords,
    hypersphere_element,
    lift_point,
    lift_tangent,
    normalize_coords,
    quadric_residual,
)
from pseudoconformal.errors import NotOnQuadricError
from pseudoconformal.linalg import BilinearForm, scalar_product, signature


class TestModel:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ambient_signature(self, n):
        model = AmbientModel.standard(n)
        assert signature(model.form.gram).as_tuple() == (n, 2, 0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            AmbientModel.standard(2)

    def test_rejects_a_dimension_that_is_not_an_integer(self):
        with pytest.raises(TypeError):
            AmbientModel.standard(3.0)

    def test_one_model_per_dimension(self):
        # the model is immutable, so every call for one n returns the same one
        model = AmbientModel.standard(4)
        assert AmbientModel.standard(np.int64(4)) is model
        assert AmbientModel.standard(3) is not model
        assert not model.form.gram.flags.writeable and not model.metric.gram.flags.writeable


class TestLiftLines:
    @pytest.mark.parametrize("general", [False, True])
    def test_stacked_lines_have_the_lifts_bits(self, general):
        # the stacked line lift of the congruence twins, against the two
        # lifts it fuses, on a general metric too, where the order of
        # summation in p g shows in the last bits
        rng = np.random.default_rng(5)
        model = AmbientModel.standard(4)
        if general:
            metric = rng.normal(size=(4, 4))
            model = AmbientModel(n=4, form=model.form, metric=BilinearForm(metric + metric.T))
        p, l = rng.normal(size=(2, 7, 4))
        for point, direction in ((p, l), (p, l[0]), (p[0], l[0])):
            expected = np.stack([lift_point(point, model), lift_tangent(point, direction, model)],
                                axis=-2)
            assert _lift_lines(point, direction, model).tobytes() == expected.tobytes()


class TestProjectivePoint:
    def test_normalization_largest_coordinate_is_one(self):
        p = ProjectivePoint([2.0, -4.0, 1.0])
        assert p.coords.tolist() == [-0.5, 1.0, -0.25]

    def test_normalization_idempotent(self):
        p = ProjectivePoint([3.0, -6.0, 1.5])
        q = ProjectivePoint(p.coords)
        assert np.array_equal(p.coords, q.coords)

    def test_scale_equivalence(self):
        assert ProjectivePoint([1.0, 2.0, -0.5]) == ProjectivePoint([-2.0, -4.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint([0.0, 0.0, 0.0])

    def test_json_round_trip(self):
        p = ProjectivePoint([1.0, 0.25, -0.125, 0.0, 1.0])
        assert ProjectivePoint.from_json(p.to_json()) == p


class TestEmbed:
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_embedding_lands_on_quadric(self, p):
        model = AmbientModel.standard(3)
        x = darboux_embed(np.array(p), model)
        assert abs(quadric_residual(x, model)) < 1e-12

    def test_origin(self, model3):
        x = darboux_embed(np.zeros(3), model3)
        assert x.coords.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_unit_spacelike_point(self, model3):
        x = darboux_embed(np.array([1.0, 0.0, 0.0]), model3)
        assert x.coords.tolist() == [1.0, 1.0, 0.0, 0.0, 0.5]

    def test_null_point(self, model3):
        x = darboux_embed(np.array([1.0, 0.0, 1.0]), model3)
        assert x.coords.tolist() == [1.0, 1.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_images_lie_on_quadric(self, n, rng):
        model = AmbientModel.standard(n)
        for _ in range(500):
            p = rng.uniform(-2, 2, size=n)
            assert abs(quadric_residual(darboux_embed(p, model), model)) < 1e-14

    def test_round_trip(self, model4, rng):
        for _ in range(1000):
            p = rng.uniform(-3, 3, size=4)
            back = darboux_unembed(darboux_embed(p, model4), model4)
            assert np.abs(back - p).max() < 1e-12


class TestUnembed:
    def test_inverse_of_embed_example(self, model3):
        p = darboux_unembed(ProjectivePoint([1.0, 1.0, 0.0, 0.0, 0.5]), model3)
        assert np.abs(p - np.array([1.0, 0.0, 0.0])).max() < 1e-15

    def test_ideal_points_found_by_search(self, model3):
        # brute-force small-coordinate vectors with x^0 = 0 on the quadric,
        # then confirm each maps to the at-infinity marker
        found = 0
        for coords in itertools.product([-1.0, 0.0, 1.0], repeat=4):
            x = np.array([0.0, *coords])
            if np.all(x == 0.0):
                continue
            if abs(quadric_residual(x, model3)) < 1e-12:
                assert isinstance(darboux_unembed(x, model3), AtInfinity)
                found += 1
        assert found > 0

    def test_off_quadric_rejected(self, model3):
        with pytest.raises(NotOnQuadricError) as exc:
            darboux_unembed(ProjectivePoint([1.0, 0.0, 0.0, 0.0, 1.0]), model3)
        assert str(exc.value) == "vector is not on the quadric (residual -2.000e+00)"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stacked_unembed_keeps_one_point_results(self, n, rng):
        # finite and ideal quadric points at every scale, and vectors off the
        # quadric: each row of one stacked pass has the normalized
        # coordinates of ProjectivePoint and the point, marker or message
        # of darboux_unembed
        model = AmbientModel.standard(n)
        finite = [darboux_embed(p, model).coords * s
                  for p, s in zip(rng.normal(size=(30, n)) * 10.0 ** rng.integers(-6, 6, (30, 1)),
                                  rng.choice([-3.0, 1e-9, 1.0, 1e9], 30))]
        ideal = []
        for v in rng.normal(size=(10, n - 1)):
            w = np.concatenate([v / np.linalg.norm(v), [1.0]])  # a null direction
            ideal.append(np.concatenate([[0.0], w, rng.normal(size=1)]))
        coords = np.array(finite + ideal + list(rng.normal(size=(10, n + 2))))
        normalized = _normalized(coords)
        points, at_infinity, failures = _unembed(normalized, model)
        assert at_infinity.sum() == 10 and len(failures) >= 9
        for i, x in enumerate(coords):
            assert normalized[i].tobytes() == ProjectivePoint(x).coords.tobytes()
            try:
                expected = darboux_unembed(x, model)
            except NotOnQuadricError as exc:
                assert str(failures[i]) == str(exc)
                continue
            assert i not in failures
            if isinstance(expected, AtInfinity):
                assert at_infinity[i] and np.isnan(points[i]).all()
            else:
                assert not at_infinity[i] and points[i].tobytes() == expected.tobytes()


class TestResidual:
    def test_known_off_quadric_value(self, model3):
        assert quadric_residual(np.array([1.0, 0, 0, 0, 1.0]), model3) == -2.0

    def test_scale_invariance(self, model3, rng):
        x = rng.normal(size=5)
        assert quadric_residual(7.0 * x, model3) == pytest.approx(
            quadric_residual(x, model3), rel=1e-12
        )


class TestClassifyElement:
    def test_embedded_points_are_points(self, model3, rng):
        for _ in range(50):
            p = rng.uniform(-2, 2, size=3)
            assert classify_element(darboux_embed(p, model3), model3).kind == "point"

    def test_negative_square_is_spacelike_sphere(self, model3):
        # tangent elements of spacelike hypersurfaces carry square -1
        x = np.zeros(5)
        x[3] = 1.0  # time axis of the Lorentz block
        kind = classify_element(x, model3)
        assert kind.kind == "spacelike_hypersphere"
        assert kind.scalar_square == -1.0

    def test_positive_square_is_timelike_sphere(self, model3):
        x = np.zeros(5)
        x[1] = 1.0
        kind = classify_element(x, model3)
        assert kind.kind == "timelike_hypersphere"
        assert kind.scalar_square == 1.0

    def test_scale_invariance_of_kind(self, model3, rng):
        for _ in range(50):
            c = rng.uniform(-1, 1, size=3)
            r2 = rng.uniform(-2, 2)
            h = hypersphere_element(c, r2, model3)
            k1 = classify_element(h, model3).kind
            k2 = classify_element(ProjectivePoint(h.coords * 1.0), model3).kind
            assert k1 == k2


class TestHypersphere:
    def test_scalar_square_equals_squared_radius(self, model3, rng):
        for _ in range(50):
            c = rng.uniform(-1, 1, size=3)
            r2 = rng.uniform(-3, 3)
            h = hypersphere_coords(c, r2, model3)
            assert model3.quadratic(h) == pytest.approx(r2, abs=1e-12)

    def test_real_radius_is_timelike_imaginary_is_spacelike(self, model3):
        assert classify_element(hypersphere_element(np.zeros(3), 2.0, model3),
                                model3).kind == "timelike_hypersphere"
        assert classify_element(hypersphere_element(np.zeros(3), -2.0, model3),
                                model3).kind == "spacelike_hypersphere"

    def test_incidence_iff_on_hypersphere(self, model3, rng):
        # vanishing pairing with an embedded point reproduces the defining
        # equation g(p - c, p - c) = r^2; spacelike offsets realize r^2 > 0
        g = model3.metric
        tried = 0
        for _ in range(100):
            c = rng.uniform(-1, 1, size=3)
            v = rng.normal(size=3)
            if g.norm2(v) <= 0.3:
                continue
            tried += 1
            v = v / np.sqrt(g.norm2(v))
            r2 = rng.uniform(0.2, 2.0)
            h = hypersphere_coords(c, r2, model3)
            p_on = c + np.sqrt(r2) * v
            assert abs(scalar_product(lift_point(p_on, model3), h, model3.form)) < 1e-10
            p_off = c + np.sqrt(r2) * 1.3 * v
            assert abs(scalar_product(lift_point(p_off, model3), h, model3.form)) > 1e-3
        assert tried > 20

    def test_timelike_incidence(self, model3, rng):
        # timelike offsets realize the r^2 < 0 hyperspheres
        g = model3.metric
        tried = 0
        for _ in range(100):
            c = rng.uniform(-1, 1, size=3)
            v = rng.normal(size=3)
            if g.norm2(v) >= -0.3:
                continue
            tried += 1
            v = v / np.sqrt(-g.norm2(v))
            r2 = -rng.uniform(0.2, 2.0)
            p_on = c + np.sqrt(-r2) * v
            h = hypersphere_coords(c, r2, model3)
            assert abs(scalar_product(lift_point(p_on, model3), h, model3.form)) < 1e-10
        assert tried > 10


class TestNormalizeCoords:
    def test_sign_flip(self):
        assert normalize_coords([-3.0, 1.0]).tolist() == [1.0, -1.0 / 3.0]
