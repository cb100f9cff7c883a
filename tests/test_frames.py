import warnings

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.conformal import AmbientModel, darboux_embed, lift_point, lift_tangent
from pseudoconformal.errors import (DegenerateBasisError, GeometryError, NotLightlikeError,
                                   NotOnQuadricError)
from pseudoconformal.frames import (
    _lightlike_lines,
    _line_screen_candidates,
    adapt_lightlike_frame,
    build_screen,
    complete_isotropic_frame,
    connection_forms,
    lightlike_gram,
    null_frame_coordinates,
    spacelike_gram,
    timelike_gram,
    structure_residual,
)
from pseudoconformal.lightlike import lightlike_frame_field
from pseudoconformal.linalg import signature

from _oracles import expm, quadric_algebra_generator


def cone_jet(u, model):
    """Homogeneous point and tangent rows of the light cone at w = u."""
    r = np.sqrt(float(u @ u))
    p = np.array([*u, r])
    a0 = lift_point(p, model)
    rows = []
    for a in range(len(u)):
        v = np.zeros(len(u) + 1)
        v[a] = 1.0
        v[-1] = u[a] / r
        rows.append(lift_tangent(p, v, model))
    return a0, np.array(rows)


class TestLightlikeGram:
    def test_matches_ambient_signature(self):
        for n in (3, 4, 5):
            assert signature(lightlike_gram(n)).as_tuple() == (n, 2, 0)
            assert signature(spacelike_gram(n)).as_tuple() == (n, 2, 0)
            assert signature(timelike_gram(n)).as_tuple() == (n, 2, 0)

    def test_null_pair_entries(self):
        g = lightlike_gram(4)
        assert g[0, 5] == -1.0 and g[1, 4] == -1.0
        assert g[2, 2] == 1.0 and g[3, 3] == 1.0

    def test_tangent_element_normalizations(self):
        assert spacelike_gram(3)[3, 3] == -1.0
        assert timelike_gram(3)[3, 3] == 1.0


class TestAdaptLightlike:
    @pytest.mark.parametrize("w", [np.array([1.0, 0.0]), np.array([0.7, 0.9]),
                                   np.array([1.3, -0.4])])
    def test_light_cone_adaptation(self, model3, w):
        a0, rows = cone_jet(w, model3)
        frame = adapt_lightlike_frame(a0, rows, model3)
        assert frame.gram_residual() < 1e-10

    def test_spacelike_point_rejected(self, model3):
        # slice x^3 = 0: induced form positive definite
        p = np.array([0.3, -0.2, 0.0])
        a0 = lift_point(p, model3)
        rows = np.array([lift_tangent(p, [1.0, 0.0, 0.0], model3),
                         lift_tangent(p, [0.0, 1.0, 0.0], model3)])
        with pytest.raises(NotLightlikeError):
            adapt_lightlike_frame(a0, rows, model3)

    def test_off_quadric_rejected(self, model3):
        bad = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        rows = np.zeros((2, 5))
        with pytest.raises(NotOnQuadricError):
            adapt_lightlike_frame(bad, rows, model3)

    def test_generator_along_the_point_rejected(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.5]), model3)
        with pytest.raises(DegenerateBasisError, match="line vectors are dependent"):
            adapt_lightlike_frame(a0, rows, model3, generator=a0)

    def test_non_finite_gram_rejected(self, model3):
        from pseudoconformal.frames import _gram_gate

        with pytest.raises(DegenerateBasisError, match="gram residual nan"):
            raise _gram_gate(np.full((1, 3, 5), np.nan), model3, 1.0, "adaptation")[0]

    def test_rank_deficient_basis_rejected(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.0]), model3)
        rows[1] = rows[0]
        with pytest.raises((NotLightlikeError, DegenerateBasisError)):
            adapt_lightlike_frame(a0, rows, model3)

    def test_idempotent_up_to_sign_convention(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.5]), model3)
        frame = adapt_lightlike_frame(a0, rows, model3)
        # feed the adapted tangent span back in
        again = adapt_lightlike_frame(
            frame.vector(0),
            np.vstack([frame.vector(1), frame.vectors[2:3]]),
            model3,
        )
        assert again.gram_residual() < 1e-10
        assert np.abs(np.abs(again.vector(1)) - np.abs(frame.vector(1))).max() < 1e-9

    def test_generator_scale_carries_through(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.2]), model3)
        f1 = adapt_lightlike_frame(a0, rows, model3, generator_scale=1.0)
        f2 = adapt_lightlike_frame(a0, rows, model3, generator_scale=2.5)
        assert np.abs(f2.vector(1) - 2.5 * f1.vector(1)).max() < 1e-12
        assert f2.gram_residual() < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_higher_dimensions(self, n):
        model = AmbientModel.standard(n)
        w = np.full(n - 1, 0.8)
        a0, rows = cone_jet(w, model)
        frame = adapt_lightlike_frame(a0, rows, model)
        assert frame.gram_residual() < 1e-10


class TestCompleteIsotropicFrame:
    def test_lifted_null_line(self, model3):
        p = np.array([0.4, -0.1, 0.0])
        l = np.array([1.0, 0.0, 1.0])
        frame = complete_isotropic_frame(
            lift_point(p, model3), lift_tangent(p, l, model3), model3
        )
        assert frame.gram_residual() < 1e-10
        # chart gauge: screen vectors have no ideal component
        assert np.abs(frame.vectors[2: model3.n, 0]).max() < 1e-12

    def test_ideal_line_uses_generic_completion(self, model3):
        # a line through an ideal point has no chart gauge; the orthogonal
        # complement construction must take over
        a0 = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        a1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert abs(model3.quadratic(a0)) < 1e-14
        assert abs(model3.quadratic(a1)) < 1e-14
        assert abs(model3.product(a0, a1)) < 1e-14
        frame = complete_isotropic_frame(a0, a1, model3)
        assert frame.gram_residual() < 1e-10

    def test_short_candidate_set_is_named(self, model4, monkeypatch):
        # one candidate where the screen needs two
        import pseudoconformal.frames

        full = pseudoconformal.frames._line_screen_candidates
        monkeypatch.setattr(pseudoconformal.frames, "_line_screen_candidates",
                            lambda a0, a1, model: full(a0, a1, model)[:, :1])
        p = np.array([0.4, -0.1, 0.2, 0.0])
        l = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(DegenerateBasisError,
                           match=r"could not extract 2 spacelike screen vectors \(got 1\)"):
            complete_isotropic_frame(lift_point(p, model4), lift_tangent(p, l, model4), model4)

    def test_non_conjugate_pair_rejected(self, model3):
        a = darboux_embed(np.zeros(3), model3).coords
        b = darboux_embed(np.array([1.0, 1.0, 0.0]), model3).coords
        with pytest.raises(DegenerateBasisError):
            complete_isotropic_frame(a, b, model3)

    def test_dependent_line_vectors_rejected(self, model3):
        # both vectors pass the quadric and conjugacy checks, but span no line
        a0 = darboux_embed(np.array([0.2, -0.1, 0.3]), model3).coords
        with pytest.raises(DegenerateBasisError, match="line vectors are dependent"):
            complete_isotropic_frame(a0, 2.0 * a0, model3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_line_vectors_rejected(self, model3, bad, which):
        line = [np.array([0.0, 1.0, 0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0, 0.0])]
        line[which][2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="non-finite coordinates"):
                complete_isotropic_frame(*line, model3)
            with pytest.raises(GeometryError, match="non-finite coordinates"):
                complete_isotropic_frame(np.full(5, bad), line[1 - which], model3)

    def test_components_resolves_frame_basis(self, model3):
        p = np.array([0.0, 0.0, 0.5])
        l = np.array([0.6, 0.8, 1.0])
        frame = complete_isotropic_frame(
            lift_point(p, model3), lift_tangent(p, l, model3), model3
        )
        v = 0.3 * frame.vector(0) - 1.2 * frame.vector(3)
        comp = frame.components(v)
        assert np.abs(comp - np.array([0.3, 0.0, 0.0, -1.2, 0.0])).max() < 1e-12


def outcome(fn, *args, **kwargs):
    """Result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


class TestStackedLineStage:
    """The line builder and the screen are stacked; each member gets what
    its one-point case gives it, bits or failure."""

    def test_mixed_failure_stack(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.5]), model3)
        g = adapt_lightlike_frame(a0, rows, model3).vector(1)
        nan_point = a0.copy()
        nan_point[2] = np.nan
        members = [
            (a0, rows, g),                                   # regular
            (a0 + np.array([0.0, 0.0, 0.0, 0.0, 0.5]), rows, g),  # off the quadric
            (a0, rows, np.array([0.0, 1.0, 0.0, 0.0, 0.0])),  # generator not null
            (a0, rows, a0),                                  # dependent line
            (a0, np.eye(5)[[0, 4]], g),                      # null candidates only
            (nan_point, rows, g),                            # nan gram residual
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, rows_stack, generators = (np.array(x) for x in zip(*members))
            lines = _lightlike_lines(points, rows_stack, model3, generators)
        failures = lines[3]
        assert sorted(failures) == [1, 2, 3, 4, 5]
        expected = [outcome(adapt_lightlike_frame, p, r, model3, generator=q)
                    for p, r, q in members]
        assert expected[1:] == [
            (NotOnQuadricError, "frame origin is not on the quadric"),
            (NotLightlikeError, "supplied generator direction is not null"),
            (DegenerateBasisError, "line vectors are dependent"),
            (DegenerateBasisError, "could not extract 1 spacelike screen vectors (got 0)"),
            (DegenerateBasisError, "frame adaptation failed (gram residual nan)"),
        ]
        assert [(type(failures[i]), str(failures[i])) for i in range(1, 6)] == expected[1:]
        alone = _lightlike_lines(a0[None], rows[None], model3, g[None])
        for stacked, single in zip(lines[:3], alone[:3]):
            assert stacked[0].tobytes() == single[0].tobytes()
        regular = np.vstack([lines[0][0], lines[1][0], lines[2][0]])
        assert regular.tobytes() == expected[0].vectors[:3].tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_build_screen_members_stand_alone(self, n, rng):
        model = AmbientModel.standard(n)
        stack = rng.normal(size=(30, n + 1, n + 2))
        stack[::3, 1] = stack[::3, 0]  # a repeated candidate
        stack[1::10] = 0.0
        stack[1::10, :, 1] = rng.normal(size=(3, n + 1))  # one spacelike direction
        stack[2::10] = 0.0
        stack[2::10, :, 0] = rng.normal(size=(3, n + 1))  # one null direction
        screens, counts = build_screen(stack, model, count=n - 2)
        assert screens.shape == (30, n - 2, n + 2)
        assert set(counts[2::10]) == {0} and set(counts[1::10]) == {1}
        for member, screen, count in zip(stack, screens, counts):
            assert not screen[count:].any()
            alone = build_screen(member[None], model, count=n - 2)
            assert (alone[0][0].tobytes(), alone[1][0]) == (screen.tobytes(), count)
            if count == n - 2:
                gram = screen @ model.form.gram @ screen.T
                assert np.abs(gram - np.eye(n - 2)).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ideal_lines_join_a_chart_stack(self, n, rng):
        # lifted null lines (chart) alternate with the same lines read from
        # their ideal point (x^0 = 0): a chart member keeps the bits of its
        # stack of one, and an ideal one gets n orthonormal candidates
        # orthogonal to G A_0 and G A_1
        model = AmbientModel.standard(n)
        a0, a1 = [], []
        for _ in range(4):
            p, d = rng.normal(size=n), rng.normal(size=n - 1)
            x, y = lift_point(p, model), lift_tangent(p, np.r_[d / np.linalg.norm(d), 1.0], model)
            a0 += [x, y]
            a1 += [y, x]
        a0, a1 = np.array(a0), np.array(a1)
        stacked = _line_screen_candidates(a0, a1, model)
        assert stacked.shape == (8, n, n + 2)
        for i in range(0, 8, 2):
            alone = _line_screen_candidates(a0[i : i + 1], a1[i : i + 1], model)
            assert alone.shape == (1, n - 1, n + 2)
            assert stacked[i, : n - 1].tobytes() == alone[0].tobytes()
            assert not stacked[i, n - 1 :].any()
        for i in range(1, 8, 2):
            c = stacked[i]
            assert np.abs(c @ c.T - np.eye(n)).max() < 1e-12
            line = np.array([a0[i], a1[i]]) @ model.form.gram
            assert np.abs(c @ line.T).max() < 1e-12 * np.abs(line).max()


def adapted_frame(kind, n):
    """A null-adapted frame from the lightlike adaptation or from the
    isotropic line completion, in dimension n."""
    model = AmbientModel.standard(n)
    if kind == "lightlike":
        return adapt_lightlike_frame(*cone_jet(np.linspace(0.5, 0.9, n - 1), model), model)
    p = np.linspace(0.1, 0.4, n)
    l = np.zeros(n)
    l[0], l[1], l[-1] = 0.6, 0.8, 1.0
    return complete_isotropic_frame(lift_point(p, model), lift_tangent(p, l, model), model)


class TestStackedComponents:
    """A (k, n+2) stack is resolved in one elimination, row for row the
    same bits as one call per vector."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["lightlike", "isotropic"])
    def test_stack_matches_rows_bit_for_bit(self, kind, n, rng):
        frame = adapted_frame(kind, n)
        for k in range(1, n):
            stack = rng.normal(size=(k, n + 2))
            got = frame.components(stack)
            assert got.shape == (k, n + 2)
            assert np.array_equal(got, np.array([frame.components(v) for v in stack]))

    @pytest.mark.parametrize("kind", ["lightlike", "isotropic"])
    def test_vector_gives_vector(self, kind, model3):
        frame = adapted_frame(kind, 3)
        v = 0.3 * frame.vector(0) - 1.2 * frame.vector(3)
        comp = frame.components(v)
        assert comp.shape == (5,)
        assert np.abs(comp - np.array([0.3, 0.0, 0.0, -1.2, 0.0])).max() < 1e-12


class TestNullFrameCoordinates:
    """Coordinates read as pairings with the line and the screen are the
    frame coordinates on e_2..e_{n-1}, A_n, A_{n+1}, with no frame needed."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["lightlike", "isotropic"])
    def test_pairings_match_frame_solve(self, kind, n, rng):
        frame = adapted_frame(kind, n)
        stack = rng.normal(size=(n, n + 2))
        got = null_frame_coordinates(stack, (frame.vector(0), frame.vector(1)),
                                     frame.vectors[2:n], frame.model.form.gram)
        expected = np.linalg.solve(frame.vectors.T, stack.T).T[:, 2:]
        assert got.shape == (n, n)
        assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("kind", ["lightlike", "isotropic"])
    def test_frame_vectors_resolve(self, kind):
        frame = adapted_frame(kind, 4)
        v = 0.3 * frame.vector(0) - 1.2 * frame.vector(4) + 0.7 * frame.vector(3)
        got = null_frame_coordinates(v[None], (frame.vector(0), frame.vector(1)),
                                     frame.vectors[2:4], frame.model.form.gram)
        assert np.abs(got[0] - np.array([0.0, 0.7, -1.2, 0.0])).max() < 1e-12


class TestConnectionForms:
    def test_constant_field_gives_zero(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.3]), model3)
        frame = adapt_lightlike_frame(a0, rows, model3)
        forms = connection_forms(lambda u: frame, np.zeros(2), model3)
        assert np.abs(forms.omega).max() == 0.0
        assert structure_residual(lambda u: frame, np.zeros(2), model3) == 0.0

    def test_exp_flow_recovers_generator(self, model3, rng):
        # frame field F(t) = exp(t B) F0 for B in the Gram-preserving algebra
        # has connection matrix exactly B, constant in t
        gram = lightlike_gram(3)
        a0, rows = cone_jet(np.array([1.0, 0.0]), model3)
        f0 = adapt_lightlike_frame(a0, rows, model3).vectors
        b = quadric_algebra_generator(gram, rng)

        def field(u):
            return expm(float(u[0]) * b) @ f0

        for t in (0.0, 0.4, -0.7):
            forms = connection_forms(field, np.array([t]), model3, step=1e-5)
            assert np.abs(forms.omega[0] - b).max() < 1e-7

    def test_exp_flow_gram_relations(self, model3, rng):
        gram = lightlike_gram(3)
        a0, rows = cone_jet(np.array([1.0, 0.0]), model3)
        f0 = adapt_lightlike_frame(a0, rows, model3).vectors
        b1 = quadric_algebra_generator(gram, rng)
        b2 = quadric_algebra_generator(gram, rng)

        def field(u):
            return expm(float(u[0]) * b1) @ expm(float(u[1]) * b2) @ f0

        forms = connection_forms(field, np.array([0.2, -0.3]), model3, step=1e-4)
        assert forms.gram_relation_residual() < 1e-6

    def test_exp_flow_relations_for_hypersurface_normalization(self, rng):
        # exp flows preserving the spacelike-adapted Gram satisfy the same
        # pairing relations, with the Lorentz block in the middle slots
        gram = spacelike_gram(3)
        b1 = quadric_algebra_generator(gram, rng)
        b2 = quadric_algebra_generator(gram, rng)

        def field(u):
            return expm(float(u[0]) * b1) @ expm(float(u[1]) * b2)

        forms = connection_forms(field, np.array([0.1, 0.2]), gram, step=1e-4)
        named = forms.named_relation_residuals()
        assert max(named.values()) < 1e-6

    def test_exp_flow_structure_richardson(self, model3, rng):
        gram = lightlike_gram(3)
        a0, rows = cone_jet(np.array([1.0, 0.0]), model3)
        f0 = adapt_lightlike_frame(a0, rows, model3).vectors
        b1 = quadric_algebra_generator(gram, rng)
        b2 = quadric_algebra_generator(gram, rng)

        def field(u):
            return expm(float(u[0]) * b1) @ expm(float(u[1]) * b2) @ f0

        u = np.array([0.1, 0.2])
        res_h = structure_residual(field, u, model3, step=2e-3)
        res_h2 = structure_residual(field, u, model3, step=1e-3)
        assert res_h2 < res_h
        assert 2.5 < res_h / res_h2 < 6.5

    def test_adapted_field_relations_second_order(self, model3):
        imm = catalog.build("light_cone")
        field = lightlike_frame_field(imm)
        u = np.array([1.0, 0.6])
        res = {}
        for h in (2e-3, 1e-3):
            forms = connection_forms(field, u, model3, step=h)
            named = forms.named_relation_residuals()
            ll = forms.lightlike_relation_residuals()
            res[h] = max(max(named.values()), max(ll.values()))
        assert res[1e-3] < 1e-5
        assert 2.5 < res[2e-3] / res[1e-3] < 6.5

    def test_adapted_field_structure_second_order(self, model3):
        imm = catalog.build("tilted_null_family")
        field = lightlike_frame_field(imm)
        u = np.array([1.1, 0.9])
        res_h = structure_residual(field, u, model3, step=2e-3)
        res_h2 = structure_residual(field, u, model3, step=1e-3)
        assert 2.5 < res_h / res_h2 < 6.5


class TestFrameSerialization:
    def test_json_contains_vectors(self, model3):
        a0, rows = cone_jet(np.array([1.0, 0.1]), model3)
        frame = adapt_lightlike_frame(a0, rows, model3)
        import json

        data = json.loads(frame.to_json())
        assert np.abs(np.array(data["vectors"]) - frame.vectors).max() == 0.0
        assert np.array(data["target_gram"]).shape == (5, 5)
