import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.congruence import (
    IsotropicCongruence,
    _line_differentials,
    _transversal_kernel_basis,
    congruence_affinor,
    congruence_singular_points,
    integrability_defect,
    stratify,
    transversal_form,
)
from pseudoconformal.conformal import AmbientModel, AtInfinity, darboux_unembed
from pseudoconformal.errors import GeometryError, NonIntegrableError
from pseudoconformal.hypersurface import LIGHTLIKE, causal_type_of_metric, parameter_grid
from pseudoconformal.linalg import REAL_ROOT_TOL

from _oracles import SingularBasis, congruence_reference, generator_rank_scan


class TestValidation:
    def test_catalog_congruences_are_isotropic(self, model3, model4):
        for name, n, model in [
            ("parallel_null_congruence", 3, model3),
            ("cone_normal_congruence", 3, model3),
            ("twisted_congruence", 4, model4),
        ]:
            cong = catalog.build(name, n=n)
            u = np.array([0.2] * cong.params)
            checks = cong.validate(u, model=model)
            assert max(checks.values()) < 1e-10

    def test_non_null_direction_rejected(self, model3):
        cong = IsotropicCongruence.from_null_lines(
            3, ((-1, 1), (-1, 1)),
            base_point=lambda u: np.array([u[0], u[1], 0.0]),
            direction=lambda u: np.array([1.0, 0.0, 0.5]),
        )
        with pytest.raises(GeometryError):
            cong.validate(np.zeros(2), model=model3)


    @pytest.mark.parametrize("nan_from,message", [
        (0.5, "not an isotropic line at u=\\[0.6, 0.1\\]: non-finite coordinates"),
        (0.60005, "non-finite line differentials at u=\\[0.6, 0.1\\]"),
    ])
    def test_non_finite_line_rejected(self, model3, nan_from, message):
        # the base point goes non-finite from u0 = nan_from on: at the point
        # itself, or only at its upper stencil neighbour u0 + 1e-4
        cong = IsotropicCongruence.from_null_lines(
            3, ((-1.0, 1.0), (-1.0, 1.0)),
            base_point=lambda u: np.array([u[0], u[1], 0.0 if u[0] < nan_from else np.nan]),
            direction=lambda u: np.array([1.0, 0.0, 1.0]),
        )
        for fn in (transversal_form, congruence_affinor):
            with pytest.raises(GeometryError, match=message):
                fn(cong, np.array([0.6, 0.1]), model=model3)


class TestParallelCongruence:
    def test_operator_and_shift_vanish(self, model3):
        cong = catalog.build("parallel_null_congruence")
        an = congruence_affinor(cong, np.array([0.3, -0.4]), model=model3)
        assert np.abs(an.shape_operator).max() < 1e-10
        assert np.abs(an.transversal_shift).max() < 1e-10
        assert an.symmetry_defect < 1e-12

    def test_zero_root_full_multiplicity(self, model4):
        cong = catalog.build("parallel_null_congruence", n=4)
        an = congruence_affinor(cong, np.array([0.1, 0.3, -0.2]), model=model4)
        assert len(an.roots) == 1
        assert an.roots[0].multiplicity == 2
        assert abs(an.roots[0].value) < 1e-8

    def test_scan_sees_drop_only_at_ideal_point(self, model3):
        # the root sits at the generator point that has no finite preimage
        cong = catalog.build("parallel_null_congruence")
        u = np.array([0.25, 0.1])
        positions = generator_rank_scan(cong, u, model3, kind="congruence")
        assert len(positions) == 1
        assert abs(positions[0]) < 1e-6
        an = congruence_affinor(cong, u, model=model3)
        sp = congruence_singular_points(an)[0]
        assert isinstance(darboux_unembed(sp.point, model3), AtInfinity)


class TestConeNormalCongruence:
    def test_symmetric_and_real(self, model3):
        cong = catalog.build("cone_normal_congruence")
        an = congruence_affinor(cong, np.array([0.2, 0.5]), model=model3)
        assert an.symmetry_defect < 1e-6
        assert all(r.is_real for r in an.roots)

    def test_symmetric_in_higher_dimension(self, model4):
        cong = catalog.build("cone_normal_congruence", n=4)
        for u in (np.array([0.2, -0.1, 0.5]), np.array([-0.3, 0.4, -0.6])):
            an = congruence_affinor(cong, u, model=model4)
            assert an.symmetry_defect < 1e-6
            assert all(r.is_real for r in an.roots)
            assert sum(r.multiplicity for r in an.roots) == 2

    def test_singular_points_are_the_vertices(self, model3):
        cong = catalog.build("cone_normal_congruence")
        for theta, t in [(0.1, 0.4), (-0.3, -0.7)]:
            an = congruence_affinor(cong, np.array([theta, t]), model=model3)
            sp = congruence_singular_points(an)
            assert len(sp) == 1 and sp[0].is_real
            vertex = darboux_unembed(sp[0].point, model3)
            assert np.abs(vertex - np.array([0.0, 0.0, t])).max() < 1e-6

    def test_focal_points_gauge_independent_of_base_point(self, model3):
        # sliding the base point along each line is a frame gauge change;
        # the vertex must not move
        def base_shifted(u):
            d = catalog._cone_direction(u, 3)
            p = np.zeros(3)
            p[2] = u[1]
            return p + 2.5 * d

        cong = IsotropicCongruence.from_null_lines(
            3, catalog.build("cone_normal_congruence").domain,
            base_point=base_shifted, direction=lambda u: catalog._cone_direction(u, 3),
        )
        an = congruence_affinor(cong, np.array([0.2, 0.5]), model=model3)
        sp = congruence_singular_points(an)[0]
        vertex = darboux_unembed(sp.point, model3)
        assert np.abs(vertex - np.array([0.0, 0.0, 0.5])).max() < 1e-6

    def test_roots_match_rank_scan(self, model3):
        cong = catalog.build("cone_normal_congruence")
        u = np.array([0.15, 0.3])
        an = congruence_affinor(cong, u, model=model3)
        roots = sorted(r.value.real for r in an.roots if r.is_real)
        scan = generator_rank_scan(cong, u, model3, kind="congruence")
        assert len(scan) == len(roots)
        for r, s in zip(roots, sorted(scan)):
            assert abs(r - s) < 1e-4

    def test_defect_small_over_grid(self, model3):
        cong = catalog.build("cone_normal_congruence")
        assert integrability_defect(cong, (5, 5), model=model3) < 1e-6


class TestTwistedCongruence:
    def test_large_defect_with_complex_pair(self, model4):
        cong = catalog.build("twisted_congruence")
        an = congruence_affinor(cong, np.array([0.3, 0.2, 0.1]), model=model4)
        assert an.symmetry_defect > 0.1
        assert sum(r.multiplicity for r in an.roots) == 2
        complex_roots = [r for r in an.roots if not r.is_real]
        assert len(complex_roots) == 2
        a, b = sorted(complex_roots, key=lambda r: r.value.imag)
        assert a.value == b.value.conjugate()
        assert abs(a.value.imag) > 0.05

    def test_complex_roots_carry_no_point(self, model4):
        cong = catalog.build("twisted_congruence")
        an = congruence_affinor(cong, np.array([0.3, 0.2, 0.1]), model=model4)
        for sp in congruence_singular_points(an):
            assert not sp.is_real
            assert sp.point is None

    def test_defect_large_over_grid(self, model4):
        cong = catalog.build("twisted_congruence")
        assert integrability_defect(cong, (3, 3, 3), model=model4) > 0.1

    def test_stratify_refuses(self, model4):
        cong = catalog.build("twisted_congruence")
        with pytest.raises(NonIntegrableError):
            stratify(cong, np.array([0.3, 0.2, 0.1]), model=model4)


class TestSymmetryImpliesRealRoots:
    def test_implication_on_normal_congruences(self, model3, model4):
        for name, n, model in [
            ("parallel_null_congruence", 3, model3),
            ("cone_normal_congruence", 3, model3),
            ("cone_normal_congruence", 4, model4),
        ]:
            cong = catalog.build(name, n=n)
            for u in parameter_grid(cong, [3] * cong.params)[1]:
                an = congruence_affinor(cong, u, model=model)
                if an.symmetry_defect < 1e-8:
                    assert all(abs(r.value.imag) < 1e-6 for r in an.roots)


class TestStratify:
    def test_cone_leaf_keeps_vertex_parameter(self, model3):
        cong = catalog.build("cone_normal_congruence")
        leaf = stratify(cong, np.array([0.1, 0.4]), model=model3, step=1e-2,
                        count=40)
        ts = [p[1] for p in leaf.parameters]
        assert max(ts) - min(ts) < 1e-5
        assert abs(ts[0] - 0.4) < 1e-5
        assert len(leaf.parameters) > 40

    def test_cone_leaf_sweeps_lightlike(self, model3):
        cong = catalog.build("cone_normal_congruence")
        leaf = stratify(cong, np.array([0.0, -0.2]), model=model3, step=1e-2,
                        count=30)
        assert leaf.lightlike_fraction >= 0.99

    def test_parallel_leaves_are_null_hyperplanes(self, model3):
        cong = catalog.build("parallel_null_congruence")
        leaf = stratify(cong, np.array([0.2, -0.1]), model=model3, step=1e-2,
                        count=30)
        assert leaf.lightlike_fraction >= 0.99
        # swept points fill a hyperplane: collect points on the lines and
        # check the affine span has a null normal
        pts = []
        for (a0, a1), _ in zip(leaf.lines, leaf.parameters):
            for s in (-1.0, 0.0, 1.0):
                x = a0 + s * a1
                pts.append(x[1:4] / x[0])
        pts = np.array(pts)
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        assert sv[-1] < 1e-6
        # normal of the fitted plane is null for the Lorentz metric
        _, _, vt = np.linalg.svd(centered)
        normal = vt[-1]
        g = model3.metric.gram
        assert abs(normal @ g @ normal) < 1e-8

    def test_leaf_truncates_at_domain_boundary(self, model3):
        cong = catalog.build("cone_normal_congruence")
        near_edge = stratify(cong, np.array([0.5, 0.0]), model=model3,
                             step=1e-2, count=40)
        assert near_edge.truncated
        interior = stratify(cong, np.array([0.0, 0.0]), model=model3,
                            step=1e-2, count=20)
        assert not interior.truncated

    def test_leaf_classification_matches_per_metric_loop(self, model3):
        # s = -1 puts X(s) = A_0 + s A_1 on the cone vertex, where the swept
        # metric degenerates beyond lightlike: a third of the samples fail
        cong = catalog.build("cone_normal_congruence")
        samples = (-1.0, 0.0, 0.5)
        leaf = stratify(cong, np.array([0.0, -0.2]), model=model3, count=10,
                        line_samples=samples)
        kinds = []
        for p, (_, a1) in zip(leaf.parameters, leaf.lines):
            p = np.array(p)
            basis = _transversal_kernel_basis(transversal_form(cong, p, model=model3))
            d0, d1 = _line_differentials(cong, p, basis, leaf.step)
            for s in samples:
                tangent = np.vstack([d0 + s * d1, a1])
                kinds.append(causal_type_of_metric(tangent @ model3.form.gram @ tangent.T,
                                                   tol=1e-4).kind)
        assert len(kinds) == 3 * len(leaf.parameters)
        assert leaf.lightlike_fraction == kinds.count(LIGHTLIKE) / len(kinds)
        assert 0.6 < leaf.lightlike_fraction < 0.7

    def test_higher_dimensional_leaf(self, model4):
        cong = catalog.build("cone_normal_congruence", n=4)
        leaf = stratify(cong, np.array([0.05, -0.1, 0.3]), model=model4,
                        step=2e-2, count=8)
        ts = [p[2] for p in leaf.parameters]
        assert max(ts) - min(ts) < 1e-5
        assert leaf.lightlike_fraction >= 0.99
        assert len(leaf.parameters) > 50


class TestDimensions:
    def test_congruence_differential_has_full_rank(self, model3, model4):
        # the map from parameters to lines is an immersion of dimension n-1
        for name, n, model in [("cone_normal_congruence", 3, model3),
                               ("twisted_congruence", 4, model4)]:
            cong = catalog.build(name, n=n)
            u = np.array([0.2] * cong.params)
            h = 1e-5
            cols = []
            for a in range(cong.params):
                e = np.zeros(cong.params)
                e[a] = h
                p0, p1 = cong.line_at(u + e)
                m0, m1 = cong.line_at(u - e)
                cols.append(np.concatenate([(p0 - m0), (p1 - m1)]) / (2 * h))
            sv = np.linalg.svd(np.array(cols), compute_uv=False)
            assert sv[cong.params - 1] > 1e-6 * sv[0]

    def test_generator_manifold_has_dimension_2n_minus_3(self, model3):
        # enlarge the cone congruence to the full local family of null lines
        # (base point on a slice plus free direction angle) and count the
        # independent basis forms at the line level
        from pseudoconformal.conformal import lift_point, lift_tangent
        from pseudoconformal.frames import complete_isotropic_frame

        def line(v):
            p = np.array([v[0], v[1], 0.0])
            l = np.array([np.cos(v[2]), np.sin(v[2]), 1.0])
            return lift_point(p, model3), lift_tangent(p, l, model3)

        v0 = np.array([0.1, -0.2, 0.4])
        a0, a1 = line(v0)
        frame = complete_isotropic_frame(a0, a1, model3)
        h = 1e-5
        rows = []
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            p0, p1 = line(v0 + e)
            m0, m1 = line(v0 - e)
            c0 = frame.components((p0 - m0) / (2 * h))
            c1 = frame.components((p1 - m1) / (2 * h))
            n = model3.n
            # basis forms at the line: screen and transversal parts of dA_0,
            # screen part of dA_1
            rows.append(np.concatenate([c0[2:n], [c0[n]], c1[2:n]]))
        sv = np.linalg.svd(np.array(rows), compute_uv=False)
        assert len(sv) == 2 * model3.n - 3
        assert sv[-1] > 1e-6 * sv[0]


class TestDegenerateFamily:
    def test_non_congruence_family_rejected(self, model3):
        # all lines through one fixed base point: basis forms collapse
        def base(u):
            return np.zeros(3)

        def direction(u):
            v = np.array([np.cos(u[0]), np.sin(u[0])])
            return np.array([v[0], v[1], 1.0])

        cong = IsotropicCongruence.from_null_lines(
            3, ((-0.5, 0.5), (-0.5, 0.5)), base_point=base, direction=direction
        )
        with pytest.raises(GeometryError):
            congruence_affinor(cong, np.array([0.1, 0.2]), model=model3)


def fold_congruence():
    """Parallel null lines over the fold (u0, u1^2, 0): the base field stops
    being an immersion at u1 = 0, where the basis forms are dependent."""
    return IsotropicCongruence.from_null_lines(
        3, ((-1.0, 1.0), (-1.0, 1.0)),
        base_point=lambda u: np.array([u[0], u[1] ** 2, 0.0]),
        direction=lambda u: np.array([1.0, 0.0, 1.0]),
        name="fold",
    )


def tilting_congruence():
    """Direction (1, 0, u1): null, and so an isotropic line, only at u1 = 1."""
    return IsotropicCongruence.from_null_lines(
        3, ((-1.0, 1.0), (-1.0, 1.0)),
        base_point=lambda u: np.array([u[0], u[1], 0.0]),
        direction=lambda u: np.array([1.0, 0.0, u[1]]),
        name="tilting",
    )


def outcome(fn, *args, **kwargs):
    """Result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


#: every catalog congruence at its default n, two at n = 4, and two
#: families that fail at some grid points
CONGRUENCES = {
    **{name: (lambda name=name: catalog.build(name))
       for name, entry in catalog.CATALOG.items() if entry.kind == "congruence"},
    "parallel_null_congruence4": lambda: catalog.build("parallel_null_congruence", n=4),
    "cone_normal_congruence4": lambda: catalog.build("cone_normal_congruence", n=4),
    "fold": fold_congruence,
    "tilting": tilting_congruence,
}


class TestTransversalFormEquivalence:
    @pytest.mark.parametrize("name", sorted(CONGRUENCES))
    def test_matches_full_analysis_bit_for_bit(self, name):
        cong = CONGRUENCES[name]()
        raised = 0
        for u in parameter_grid(cong, [3] * cong.params)[1]:
            lean = outcome(transversal_form, cong, u)
            full = outcome(congruence_affinor, cong, u)
            if isinstance(full, tuple):
                assert lean == full
                raised += 1
            else:
                assert isinstance(lean, np.ndarray)
                assert lean.tobytes() == full.transversal_form.tobytes()
        if name in ("fold", "tilting"):
            assert 0 < raised < 3 ** cong.params

    def test_dependent_basis_forms_message(self):
        with pytest.raises(GeometryError, match="basis forms are dependent at u=\\[0.5, 0.0\\]"):
            transversal_form(fold_congruence(), np.array([0.5, 0.0]))

    def test_stratify_runs_one_full_analysis(self, model3, monkeypatch):
        import pseudoconformal.congruence as module

        seen = []
        full = module.congruence_affinor

        def counted(*args, **kwargs):
            seen.append(args[1])
            return full(*args, **kwargs)

        monkeypatch.setattr(module, "congruence_affinor", counted)
        seed = np.array([0.1, 0.4])
        leaf = stratify(catalog.build("cone_normal_congruence"), seed, model=model3, count=5)
        assert len(leaf.parameters) > 5
        assert len(seen) == 1 and np.array_equal(seen[0], seed)

    def test_stratify_evaluates_each_point_once(self, model4, monkeypatch):
        import pseudoconformal.congruence as module

        form = module.transversal_form

        def run():
            seen = []

            def counted(cong, u, **kwargs):
                seen.append(u.tobytes())
                return form(cong, u, **kwargs)

            monkeypatch.setattr(module, "transversal_form", counted)
            leaf = stratify(catalog.build("cone_normal_congruence", n=4),
                            np.array([0.1, 0.1, 0.3]), model=model4, count=4)
            return leaf, seen

        leaf, seen = run()
        assert len(seen) == len(set(seen)) == 320
        monkeypatch.setattr(module, "_memoized", lambda fn: fn)
        uncached, seen_uncached = run()
        assert len(seen_uncached) == 410 and set(seen_uncached) == set(seen)
        assert leaf.parameters == uncached.parameters
        assert leaf.lightlike_fraction == uncached.lightlike_fraction
        assert leaf.truncated == uncached.truncated
        assert all(a.tobytes() == b.tobytes() for la, lb in zip(leaf.lines, uncached.lines)
                   for a, b in zip(la, lb))
        assert len(leaf.lines) == len(uncached.lines) == 81


def _close(value, reference, rel=1e-12):
    value, reference = np.asarray(value), np.asarray(reference)
    return value.shape == reference.shape and bool(
        (np.abs(value - reference) <= rel * (1.0 + np.abs(reference))).all())


class TestCongruenceOracle:
    """The pairing formulas of ``congruence_affinor`` against full frame
    coordinates from numpy.linalg (``_oracles.congruence_reference``)."""

    @pytest.mark.parametrize("name", sorted(set(CONGRUENCES) - {"fold", "tilting"}))
    def test_operator_and_roots_match_reference(self, name):
        cong = CONGRUENCES[name]()
        model = AmbientModel.standard(cong.n)
        for u in parameter_grid(cong, [3] * cong.params)[1]:
            an = congruence_affinor(cong, u, model=model)
            ref = congruence_reference(cong, u, model)
            assert _close(an.shape_operator, ref["shape_operator"])
            assert _close(an.transversal_shift, ref["transversal_shift"])
            assert _close(an.transversal_form, ref["transversal_form"])
            assert an.diagnostics.keys() == ref["diagnostics"].keys()
            for key, value in ref["diagnostics"].items():
                assert _close(an.diagnostics[key], value)

            expected = ref["roots"]
            is_real = np.abs(expected.imag) < REAL_ROOT_TOL * (1.0 + np.abs(expected.real))
            assert sum(r.multiplicity for r in an.roots) == len(expected)
            assert sum(r.multiplicity for r in an.roots if r.is_real) == int(is_real.sum())
            for r in an.roots:
                if r.multiplicity == 1:
                    assert np.abs(expected - r.value).min() < 1e-9

    @pytest.mark.parametrize("name", ["fold", "tilting"])
    def test_raises_where_reference_basis_is_singular(self, name):
        cong = CONGRUENCES[name]()
        model = AmbientModel.standard(cong.n)
        raised = []
        for u in parameter_grid(cong, [3] * cong.params)[1]:
            lib = outcome(congruence_affinor, cong, u, model=model)
            ref = outcome(congruence_reference, cong, u, model)
            assert isinstance(lib, tuple) == isinstance(ref, tuple)
            if isinstance(lib, tuple):
                assert issubclass(lib[0], GeometryError)
                raised.append(ref[0])
        assert 0 < len(raised) < 3 ** cong.params
        if name == "fold":
            assert set(raised) == {SingularBasis}
