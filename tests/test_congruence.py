import collections
import cProfile
import contextlib
import io
import json
import math
import pstats
import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from pseudoconformal import catalog, cli
from pseudoconformal import congruence as congruence_module
from pseudoconformal.congruence import (
    CongruenceAnalysis,
    DEFAULT_STEP,
    IsotropicCongruence,
    _congruence_affinors,
    _evaluate_lines,
    _kernel_bases,
    _line_checks,
    _line_failures,
    _rk4_runs,
    _stack_jets,
    congruence_affinor,
    congruence_singular_points,
    integrability_defect,
    stratify,
)
from pseudoconformal.conformal import AmbientModel, AtInfinity, darboux_unembed
from pseudoconformal.frames import complete_isotropic_frame
from pseudoconformal.errors import (ConvergenceError, DegenerateBasisError, GeometryError,
                                   NonIntegrableError)
from pseudoconformal.hypersurface import (LIGHTLIKE, _stencil_offsets, causal_type_of_metric,
                                          parameter_grid)
from pseudoconformal.lightlike import lightlike_affinor, singular_points
from pseudoconformal.linalg import REAL_ROOT_TOL, Root

from _oracles import (SingularBasis, bent_cone_congruence, bent_leaf_invariant,
                      congruence_reference, generator_rank_scan, inline_rk4_runs,
                      translated_congruence)


class TestValidation:
    def test_catalog_congruences_are_isotropic(self):
        for name, n in [
            ("parallel_null_congruence", 3),
            ("cone_normal_congruence", 3),
            ("twisted_congruence", 4),
        ]:
            cong = catalog.build(name, n=n)
            u = np.array([0.2] * cong.params)
            checks = cong.validate(u)
            assert max(checks.values()) < 1e-10

    @pytest.mark.parametrize("u", [0.1, [0.1], [0.1, 0.2, 0.3], [[0.1], [0.2]], [[0.1, 0.2, 0.3]]])
    def test_line_at_rejects_parameter_points_of_the_wrong_length(self, u):
        # broadcasting and not, one point or a stack
        got = np.shape(u)[-1] if np.ndim(u) else "a scalar"
        cone = catalog.build("cone_normal_congruence")
        for cong in (cone, replace(cone, broadcasts=False)):
            with pytest.raises(ValueError, match=rf"^u must have params=2 entries, got {got}$"):
                cong.line_at(np.array(u))

    @pytest.mark.parametrize("engine", [congruence_affinor, stratify,
                                        IsotropicCongruence.validate])
    def test_engines_reject_a_point_of_the_wrong_length(self, engine):
        with pytest.raises(ValueError, match=r"^u must have params=2 entries, got 1$"):
            engine(catalog.build("cone_normal_congruence"), [0.1])

    def test_non_null_direction_rejected(self):
        cong = IsotropicCongruence.from_null_lines(
            3, ((-1, 1), (-1, 1)),
            base_point=lambda u: np.array([u[0], u[1], 0.0]),
            direction=lambda u: np.array([1.0, 0.0, 0.5]),
        )
        with pytest.raises(GeometryError):
            cong.validate(np.zeros(2))


    @pytest.mark.parametrize("nan_from,message", [
        (0.5, "not an isotropic line at u=\\[0.6, 0.1\\]: non-finite coordinates"),
        (0.60005, "non-finite line differentials at u=\\[0.6, 0.1\\]"),
    ])
    def test_non_finite_line_rejected(self, nan_from, message):
        # the base point goes non-finite from u0 = nan_from on: at the point
        # itself, or only at its upper stencil neighbour u0 + 1e-4
        cong = IsotropicCongruence.from_null_lines(
            3, ((-1.0, 1.0), (-1.0, 1.0)),
            base_point=lambda u: np.array([u[0], u[1], 0.0 if u[0] < nan_from else np.nan]),
            direction=lambda u: np.array([1.0, 0.0, 1.0]),
        )
        with pytest.raises(GeometryError, match=message):
            congruence_affinor(cong, np.array([0.6, 0.1]))


class TestParallelCongruence:
    def test_operator_and_shift_vanish(self):
        cong = catalog.build("parallel_null_congruence")
        an = congruence_affinor(cong, np.array([0.3, -0.4]))
        assert np.abs(an.shape_operator).max() < 1e-10
        assert np.abs(an.transversal_shift).max() < 1e-10
        assert an.symmetry_defect < 1e-12

    def test_zero_root_full_multiplicity(self):
        cong = catalog.build("parallel_null_congruence", n=4)
        an = congruence_affinor(cong, np.array([0.1, 0.3, -0.2]))
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
        an = congruence_affinor(cong, u)
        sp = congruence_singular_points(an)[0]
        assert isinstance(darboux_unembed(sp.point, model3), AtInfinity)


class TestConeNormalCongruence:
    def test_symmetric_and_real(self):
        cong = catalog.build("cone_normal_congruence")
        an = congruence_affinor(cong, np.array([0.2, 0.5]))
        assert an.symmetry_defect < 1e-6
        assert all(r.is_real for r in an.roots)

    def test_symmetric_in_higher_dimension(self):
        cong = catalog.build("cone_normal_congruence", n=4)
        for u in (np.array([0.2, -0.1, 0.5]), np.array([-0.3, 0.4, -0.6])):
            an = congruence_affinor(cong, u)
            assert an.symmetry_defect < 1e-6
            assert all(r.is_real for r in an.roots)
            assert sum(r.multiplicity for r in an.roots) == 2

    def test_singular_points_are_the_vertices(self, model3):
        cong = catalog.build("cone_normal_congruence")
        for theta, t in [(0.1, 0.4), (-0.3, -0.7)]:
            an = congruence_affinor(cong, np.array([theta, t]))
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
        an = congruence_affinor(cong, np.array([0.2, 0.5]))
        sp = congruence_singular_points(an)[0]
        vertex = darboux_unembed(sp.point, model3)
        assert np.abs(vertex - np.array([0.0, 0.0, 0.5])).max() < 1e-6

    def test_roots_match_rank_scan(self, model3):
        cong = catalog.build("cone_normal_congruence")
        u = np.array([0.15, 0.3])
        an = congruence_affinor(cong, u)
        roots = sorted(r.value.real for r in an.roots if r.is_real)
        scan = generator_rank_scan(cong, u, model3, kind="congruence")
        assert len(scan) == len(roots)
        for r, s in zip(roots, sorted(scan)):
            assert abs(r - s) < 1e-4

    def test_defect_small_over_grid(self):
        cong = catalog.build("cone_normal_congruence")
        assert integrability_defect(cong, (5, 5)) < 1e-6

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_the_vertex_is_one_real_root_of_multiplicity_n_minus_2(self, n):
        # every line's singular point is the cone's vertex: x = -1 with
        # multiplicity n - 2, real, at every grid point that passes (at n = 6
        # the corners fail with a math domain error).  The root iteration
        # splintered it into complex roots from n = 5 on; the Jacobi spectrum
        # of the symmetric part keeps it, within the stencil's error (worst
        # 7.1e-9 measured)
        cong, model = catalog.build("cone_normal_congruence", n=n), AmbientModel.standard(n)
        grid = parameter_grid(cong, [3] * cong.params)[1]
        results = analyses(cong, grid, model)
        passed = [(u, an) for u, an in zip(grid, results) if not isinstance(an, Exception)]
        assert len(passed) == (195 if n == 6 else 3 ** cong.params)
        for u, an in passed:
            assert [(r.multiplicity, r.is_real) for r in an.roots] == [(n - 2, True)]
            assert abs(an.roots[0].value + 1.0) <= 1e-8
            vertex = darboux_unembed(congruence_singular_points(an)[0].point, model)
            assert np.abs(vertex - np.append(np.zeros(n - 1), u[-1])).max() <= 1e-7


class TestTwistedCongruence:
    def test_large_defect_with_complex_pair(self):
        cong = catalog.build("twisted_congruence")
        an = congruence_affinor(cong, np.array([0.3, 0.2, 0.1]))
        assert an.symmetry_defect > 0.1
        assert sum(r.multiplicity for r in an.roots) == 2
        complex_roots = [r for r in an.roots if not r.is_real]
        assert len(complex_roots) == 2
        a, b = sorted(complex_roots, key=lambda r: r.value.imag)
        assert a.value == b.value.conjugate()
        assert abs(a.value.imag) > 0.05

    def test_complex_roots_carry_no_point(self):
        cong = catalog.build("twisted_congruence")
        an = congruence_affinor(cong, np.array([0.3, 0.2, 0.1]))
        for sp in congruence_singular_points(an):
            assert not sp.is_real
            assert sp.point is None

    def test_defect_large_over_grid(self):
        cong = catalog.build("twisted_congruence")
        assert integrability_defect(cong, (3, 3, 3)) > 0.1

    def test_stratify_refuses(self):
        cong = catalog.build("twisted_congruence")
        with pytest.raises(NonIntegrableError):
            stratify(cong, np.array([0.3, 0.2, 0.1]))


class TestSymmetryImpliesRealRoots:
    def test_implication_on_normal_congruences(self):
        for name, n in [
            ("parallel_null_congruence", 3),
            ("cone_normal_congruence", 3),
            ("cone_normal_congruence", 4),
        ]:
            cong = catalog.build(name, n=n)
            for u in parameter_grid(cong, [3] * cong.params)[1]:
                an = congruence_affinor(cong, u)
                if an.symmetry_defect < 1e-8:
                    assert all(abs(r.value.imag) < 1e-6 for r in an.roots)


class TestStratify:
    def test_count_is_a_non_negative_integer(self):
        # a negative count used to die with a bare IndexError at the spine
        cong, seed = catalog.build("cone_normal_congruence"), np.array([0.1, 0.2])
        for count in (-1, -40, 2.5, "3", True, None):
            with pytest.raises(ValueError, match="count"):
                stratify(cong, seed, count=count)
        leaf = stratify(cong, seed, count=0)
        assert leaf.parameters == ((0.1, 0.2),) and len(leaf.lines) == 1 and not leaf.truncated
        assert len(stratify(cong, seed, count=np.int64(1)).parameters) == 3

    def test_cone_leaf_keeps_vertex_parameter(self):
        cong = catalog.build("cone_normal_congruence")
        leaf = stratify(cong, np.array([0.1, 0.4]), step=1e-2,
                        count=40)
        ts = [p[1] for p in leaf.parameters]
        assert max(ts) - min(ts) < 1e-5
        assert abs(ts[0] - 0.4) < 1e-5
        assert len(leaf.parameters) > 40

    def test_cone_leaf_sweeps_lightlike(self):
        cong = catalog.build("cone_normal_congruence")
        leaf = stratify(cong, np.array([0.0, -0.2]), step=1e-2,
                        count=30)
        assert leaf.lightlike_fraction >= 0.99

    def test_parallel_leaves_are_null_hyperplanes(self, model3):
        cong = catalog.build("parallel_null_congruence")
        leaf = stratify(cong, np.array([0.2, -0.1]), step=1e-2,
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

    def test_leaf_truncates_at_domain_boundary(self):
        cong = catalog.build("cone_normal_congruence")
        near_edge = stratify(cong, np.array([0.5, 0.0]),
                             step=1e-2, count=40)
        assert near_edge.truncated
        interior = stratify(cong, np.array([0.0, 0.0]),
                            step=1e-2, count=20)
        assert not interior.truncated

    def test_leaf_march_ends_when_every_run_has_left_the_domain(self):
        # both spine runs leave u1 in (-0.55, 0.55) at the same step, long
        # before count: the march stops with no run left
        cong = catalog.build("cone_normal_congruence")
        leaf = stratify(cong, np.array([0.0, 0.2]), step=0.1, count=40)
        assert len(leaf.parameters) == 11 and leaf.truncated
        (s0, t0), (s1, t1) = leaf.parameters[0], leaf.parameters[-1]
        assert abs(s0 + 0.5) < 1e-12 and abs(s1 - 0.5) < 1e-12
        assert abs(t0 - 0.2) < 1e-8 and abs(t1 - 0.2) < 1e-8

    def test_leaf_classification_matches_per_metric_loop(self, model3):
        # s = -1 puts X(s) = A_0 + s A_1 on the cone vertex, where the swept
        # metric degenerates beyond lightlike: a third of the samples fail
        cong = catalog.build("cone_normal_congruence")
        samples = (-1.0, 0.0, 0.5)
        leaf = stratify(cong, np.array([0.0, -0.2]), count=10,
                        line_samples=samples)
        kinds = []
        for p, (_, a1) in zip(leaf.parameters, leaf.lines):
            p = np.array(p)
            form = congruence_affinor(cong, p).transversal_form
            basis = _kernel_bases(form[None])[0][0]
            # central differences along the parameter directions, taken
            # along the kernel basis
            plus = [cong.line_at(p + DEFAULT_STEP * e) for e in np.eye(2)]
            minus = [cong.line_at(p - DEFAULT_STEP * e) for e in np.eye(2)]
            d0, d1 = (basis @ np.array([(a[j] - b[j]) / (2 * DEFAULT_STEP)
                                        for a, b in zip(plus, minus)]) for j in (0, 1))
            for s in samples:
                tangent = np.vstack([d0 + s * d1, a1])
                kinds.append(causal_type_of_metric(tangent @ model3.form.gram @ tangent.T,
                                                   tol=1e-4).kind)
        assert len(kinds) == 3 * len(leaf.parameters)
        assert leaf.lightlike_fraction == kinds.count(LIGHTLIKE) / len(kinds)
        assert 0.6 < leaf.lightlike_fraction < 0.7

    def test_higher_dimensional_leaf(self):
        cong = catalog.build("cone_normal_congruence", n=4)
        leaf = stratify(cong, np.array([0.05, -0.1, 0.3]),
                        step=2e-2, count=8)
        ts = [p[2] for p in leaf.parameters]
        assert max(ts) - min(ts) < 1e-5
        assert leaf.lightlike_fraction >= 0.99
        assert len(leaf.parameters) > 50


class TestBentLeaves:
    """Leaves that bend in parameter space: the cone congruence in the
    parameters (s, t) -> (s, t + 1.5 |s|^2) (``_oracles.bent_cone_congruence``),
    whose leaves keep t + 1.5 |s|^2.  The bounds are the drifts measured at
    the engine's 1e-4 line stencil, with some room."""

    @staticmethod
    def drift(leaf):
        return float(np.abs(bent_leaf_invariant(leaf.parameters)
                            - bent_leaf_invariant(leaf.seed)).max())

    @pytest.mark.parametrize("n, seed, step, count, bound", [
        (3, (0.1, 0.2), 1e-2, 40, 4e-10),  # measured 3.0e-10
        (4, (0.1, -0.05, 0.2), 1e-2, 20, 1e-10),  # measured 5.9e-11
    ])
    def test_leaf_keeps_its_invariant_and_sweeps_lightlike(self, n, seed, step, count, bound):
        leaf = stratify(bent_cone_congruence(n), seed, step=step, count=count)
        ts = [p[-1] for p in leaf.parameters]
        assert max(ts) - min(ts) > 0.05  # the leaf bends: t is not constant on it
        assert len(leaf.parameters) == (2 * count + 1) ** (n - 2) and not leaf.truncated
        assert self.drift(leaf) <= bound
        assert leaf.lightlike_fraction == 1.0

    def test_drift_converges_once_the_stencil_is_not_the_floor(self, monkeypatch):
        # at the 1e-4 line stencil its second-order error is the floor, so
        # halving the step from 1e-2 does not help (3.0e-10 -> 4.8e-10); at
        # 1e-5 the drift falls by RK4's order: measured 3.0e-9 -> 1.8e-10 -> 6.9e-12
        monkeypatch.setattr(congruence_module, "DEFAULT_STEP", 1e-5)
        cong = bent_cone_congruence(3)
        drifts = [self.drift(stratify(cong, (0.1, 0.2), step=step, count=count))
                  for step, count in ((2e-2, 20), (1e-2, 40), (5e-3, 80))]
        assert drifts[0] >= 8.0 * drifts[1] and drifts[1] >= 8.0 * drifts[2]


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
            c0 = np.linalg.solve(frame.vectors.T, (p0 - m0) / (2 * h))
            c1 = np.linalg.solve(frame.vectors.T, (p1 - m1) / (2 * h))
            n = model3.n
            # basis forms at the line: screen and transversal parts of dA_0,
            # screen part of dA_1
            rows.append(np.concatenate([c0[2:n], [c0[n]], c1[2:n]]))
        sv = np.linalg.svd(np.array(rows), compute_uv=False)
        assert len(sv) == 2 * model3.n - 3
        assert sv[-1] > 1e-6 * sv[0]


def zero_line_congruence(below=None):
    """Lines whose A_0 and A_1 both vanish: everywhere, or where u0 exceeds
    ``below``, the cone normal congruence elsewhere."""
    cone = catalog.build("cone_normal_congruence")

    def line(u):
        if below is None or u[0] > below:
            return np.zeros(5), np.zeros(5)
        return cone.line(u)

    return IsotropicCongruence(n=3, domain=cone.domain, line=line, name="zero")


class TestZeroLine:
    """A line whose A_0 and A_1 both vanish is a GeometryError naming u, not a
    division by zero, and raises no warning."""

    MESSAGE = "not an isotropic line at u=\\[0.1, 0.2\\]: zero coordinates"

    def test_validate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=self.MESSAGE):
                zero_line_congruence().validate(np.array([0.1, 0.2]))

    def test_congruence_affinor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=self.MESSAGE):
                congruence_affinor(zero_line_congruence(), np.array([0.1, 0.2]))

    def test_other_members_keep_their_bits(self, model3):
        cong, cone = zero_line_congruence(below=0.2), catalog.build("cone_normal_congruence")
        grid = parameter_grid(cong, [3, 3])[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = analyses(cong, grid, model3)
        zero = grid[:, 0] > 0.2
        assert 0 < zero.sum() < len(grid)
        for u, got, failed in zip(grid, results, zero):
            if failed:
                assert isinstance(got, GeometryError)
                assert str(got) == f"not an isotropic line at u={u.tolist()}: zero coordinates"
            else:
                assert _analysis_bits(got) == _analysis_bits(congruence_affinor(cone, u))


class TestDegenerateFamily:
    def test_non_congruence_family_rejected(self):
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
            congruence_affinor(cong, np.array([0.1, 0.2]))


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


def line_jets(cong, us, model):
    """The unchecked line jets of one pass at us, as the grid pass builds them."""
    offsets = _stencil_offsets(cong.params, DEFAULT_STEP)
    return _stack_jets([(us, *_evaluate_lines(cong, us, offsets))], model, DEFAULT_STEP)


class TestStackedLineJets:
    def test_mixed_failures_keep_messages_and_bits(self, model4):
        # one stacked line_at call over the stencil; a scalar-only copy
        # evaluates member by member, and both give the same failures (own
        # evaluation, then a neighbour's) and bits
        cong = catalog.build("cone_normal_congruence", n=4)
        scalar_only = IsotropicCongruence(n=4, domain=cong.domain, line=cong.line)
        edge = math.sqrt(0.75) - 0.5 * DEFAULT_STEP  # its +e_0 and +e_1 neighbours fail
        us = np.array([[0.1, 0.2, 0.3], [0.5, 0.9, 0.0], [0.5, edge, 0.0], [-0.3, 0.1, -0.5]])
        got, ref = (line_jets(obj, us, model4) for obj in (cong, scalar_only))
        failures = _line_failures(got, model4)
        neighbour = (us[2] + DEFAULT_STEP * np.eye(3)[0]).tolist()  # first in stencil order
        assert {i: str(exc) for i, exc in failures.items()} == {
            1: "evaluation failed at u=[0.5, 0.9, 0.0]: math domain error",
            2: f"evaluation failed at u={neighbour}: math domain error"}
        assert ({i: (type(exc), str(exc)) for i, exc in failures.items()}
                == {i: (type(exc), str(exc)) for i, exc in _line_failures(ref, model4).items()})
        assert ({f: str(exc) for f, exc in got.raised.items()}
                == {f: str(exc) for f, exc in ref.raised.items()})
        for a, b in zip(got._replace(raised=None), ref._replace(raised=None)):
            assert a is None or a.tobytes() == b.tobytes()
        results = analyses(cong, us, model4)
        assert [str(r) for r in results[1:3]] == [str(failures[1]), str(failures[2])]
        assert ([_analysis_bits(r) for r in (results[0], results[3])] == [
            _analysis_bits(r) for r in analyses(scalar_only, us[[0, 3]], model4)])


    def test_stencil_points_are_u_plus_and_minus_the_step(self, model4):
        # the stencil adds cached offsets; signed zeros keep their signs
        us = np.array([[-0.0, 0.0, 0.3], [0.1, -0.0, -0.5]])
        jets = line_jets(catalog.build("cone_normal_congruence", n=4), us, model4)
        expected = np.repeat(us[:, None], 7, axis=1)
        expected[:, 1::2] += DEFAULT_STEP * np.eye(3)
        expected[:, 2::2] -= DEFAULT_STEP * np.eye(3)
        assert jets.stencil.tobytes() == expected.tobytes()

    def test_one_cone_direction_pass_per_stacked_line_at(self):
        # the cone's evaluator gives the base point p + l and the direction l
        # from one evaluation of l; counted by the profiler, which sees calls
        # through bound references as well
        cong = catalog.build("cone_normal_congruence", n=4)
        profile = cProfile.Profile()
        lines, failures = profile.runcall(cong.line_at,
                                          np.array([[0.1, 0.2, 0.3], [0.0, -0.3, 0.5]]))
        assert not failures and [v[1] for k, v in pstats.Stats(profile).stats.items()
                                 if k[2] == "_cone_direction"] == [1]
        assert lines[1].tobytes() == np.array(cong.line_at([0.0, -0.3, 0.5])).tobytes()

    def test_one_line_check_over_every_pass(self, model3):
        # three passes of a leaf gathered into one stack, as a march gathers
        # them: a line of pass 2 off the quadric by a relative residual within
        # (0.5e-10, 1e-10], which passes, and one of pass 3 beyond 1e-10,
        # which fails; the judge of the stack gives what the line checks of
        # each pass alone give
        cong = catalog.build("cone_normal_congruence")
        offsets = _stencil_offsets(cong.params, DEFAULT_STEP)
        records = [(us, *_evaluate_lines(cong, us, offsets)) for us in (
            np.array([[0.1, 0.4], [-0.2, 0.3]]), np.array([[0.0, 0.1], [0.3, -0.2], [0.2, 0.5]]),
            np.array([[-0.1, 0.2], [0.25, 0.0]]))]
        for (_, lines, _), i, residual in ((records[1], 2, 0.75e-10), (records[2], 1, 3e-10)):
            a0, a1 = lines[i, 0]
            lines[i, 0, 0, -1] += 0.5 * residual * max(a0 @ a0, a1 @ a1)  # <A_0, A_0> = -2 dx
        passes = [_stack_jets([record], model3, DEFAULT_STEP) for record in records]
        alone = {starts + i: str(exc) for starts, p in zip((0, 2, 5), passes)
                 for i, exc in _line_checks(p.us, p.a0, p.a1, model3)[1].items()}
        screened = _line_checks(passes[1].us, passes[1].a0, passes[1].a1, model3, tol=0.5e-10)[1]
        assert list(screened) == [2] and list(alone) == [6]
        failures = _line_failures(_stack_jets(records, model3, DEFAULT_STEP), model3)
        assert {i: str(exc) for i, exc in failures.items()} == alone
        assert "base_on_quadric" in alone[6] and "u=[0.25, 0.0]" in alone[6]


def analyses(cong, us, model):
    """Each member of the ``_congruence_affinors`` columns of us as the
    exception it failed with, or as the CongruenceAnalysis of its columns,
    read as ``congruence_affinor`` reads member 0 of a stack of one."""
    c = _congruence_affinors(cong, us, model)
    results = dict(c.failures)
    for j, i in enumerate(c.members.tolist()):
        results[i] = CongruenceAnalysis(
            u=c.us[i].copy(), shape_operator=c.operators[j], transversal_shift=c.shifts[j],
            symmetry_defect=float(c.defects[j]),
            roots=tuple(Root(complex(v), int(m), bool(r)) for v, m, r in zip(
                c.roots[j, : c.counts[j]], c.multiplicities[j], c.real[j])),
            line=(c.a0[j], c.a1[j]), screen=c.screens[j], transversal_form=c.forms[j],
            diagnostics={key: float(value[j]) for key, value in c.diagnostics.items()})
    return [results[i] for i in range(len(us))]


def _analysis_bits(an):
    """Every field of a CongruenceAnalysis, arrays as bytes."""
    return (an.u.tobytes(), an.shape_operator.tobytes(), an.transversal_shift.tobytes(),
            an.symmetry_defect, an.roots, an.line[0].tobytes(), an.line[1].tobytes(),
            an.screen.tobytes(), an.transversal_form.tobytes(), an.diagnostics)


def _each_alone(line_at):
    """``line_at`` evaluating the stencil of each member of a stacked pass
    as a stack of its own."""

    def alone(cong, u):
        width = 2 * cong.params + 1
        parts = [line_at(cong, stencil) for stencil in u.reshape(-1, width, cong.params)]
        return (np.concatenate([lines for lines, _ in parts]),
                {i * width + f: exc for i, (_, raised) in enumerate(parts)
                 for f, exc in raised.items()})

    return alone


def _one_run_at_a_time(cong, seed, step, count):
    """Leaf parameters and truncation flag of a per-run RK4 integrator on the
    transversal forms congruence_affinor reads: the spine runs and then the
    cross runs from each spine point, one after another."""
    lo, hi = np.array(cong.domain, dtype=float).T

    def direction(u, ref):
        e = congruence_affinor(cong, u).transversal_form
        e_hat = e / math.sqrt(float(e @ e))
        d = ref - float(e_hat @ ref) * e_hat
        return d / math.sqrt(float(d @ d))

    truncated = False

    def run(u, ref):
        nonlocal truncated
        out = []
        for _ in range(count):
            k1 = direction(u, ref)
            k2 = direction(u + 0.5 * step * k1, k1)
            k3 = direction(u + 0.5 * step * k2, k2)
            k4 = direction(u + step * k3, k3)
            u = u + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.any(u < lo - 1e-9) or np.any(u > hi + 1e-9):
                truncated = True
                break
            ref = k1
            out.append(u)
        return out

    basis = _kernel_bases(congruence_affinor(cong, seed).transversal_form[None])[0][0]
    spine = run(seed, -basis[0])[::-1] + [seed] + run(seed, basis[0])
    cross = []
    for point in spine:
        for b in basis[1:]:
            ref = direction(point, b)
            cross += run(point, -ref) + run(point, ref)
    return tuple(tuple(float(x) for x in p) for p in spine + cross), truncated


class TestCongruenceEngine:
    """run_congruence and integrability_defect analyse the whole grid in one
    engine pass; each point keeps the bits congruence_affinor gives it alone."""

    @pytest.mark.parametrize("name", sorted(CONGRUENCES))
    def test_grid_matches_congruence_affinor_bit_for_bit(self, name):
        cong = CONGRUENCES[name]()
        model = AmbientModel.standard(cong.n)
        grid = parameter_grid(cong, [3] * cong.params)[1]
        raised = 0
        for u, got in zip(grid, analyses(cong, grid, model)):
            alone = outcome(congruence_affinor, cong, u)
            if isinstance(alone, tuple):
                assert isinstance(got, Exception) and (type(got), str(got)) == alone
                raised += 1
            else:
                assert _analysis_bits(got) == _analysis_bits(alone)
        if name in ("fold", "tilting"):
            assert 0 < raised < 3 ** cong.params

    @pytest.mark.parametrize("name", sorted(n for n, e in catalog.CATALOG.items()
                                            if e.kind == "congruence"))
    def test_completed_frame_gives_the_affinor_screen(self, name):
        # the congruence twin of the lightlike frame-field test: the one-point
        # screen of complete_isotropic_frame is the engine's, bit for bit
        cong = catalog.build(name)
        model = AmbientModel.standard(cong.n)
        grid = parameter_grid(cong, [3] * cong.params)[1]
        for u, an in zip(grid, analyses(cong, grid, model)):
            frame = complete_isotropic_frame(*an.line, model)
            assert frame.vectors[2 : cong.n].tobytes() == an.screen.tobytes()
            assert frame.gram_residual() < 1e-10

    @pytest.mark.parametrize("name", ["fold", "tilting"])
    def test_line_jets_fail_where_the_analysis_does(self, name):
        # the leaf integrator reads only the line jets, so they must reject
        # every point congruence_affinor rejects on these families
        cong = CONGRUENCES[name]()
        model = AmbientModel.standard(cong.n)
        grid = parameter_grid(cong, [3] * cong.params)[1]
        failures = _line_failures(line_jets(cong, grid, model), model)
        for i, u in enumerate(grid):
            alone = outcome(congruence_affinor, cong, u)
            got = failures.get(i)
            assert (got and (type(got), str(got))) == (alone if isinstance(alone, tuple) else None)
        assert failures

    def test_dependent_basis_forms_message(self):
        with pytest.raises(GeometryError, match="basis forms are dependent at u=\\[0.5, 0.0\\]"):
            congruence_affinor(fold_congruence(), np.array([0.5, 0.0]))

    def test_a_leaf_scene_makes_one_engine_pass(self, tmp_path, monkeypatch):
        # the seed is the last member of the grid's pass, and the leaf starts
        # from that member's analysis, with the bits the seed has alone
        import pseudoconformal.congruence as module

        passes, seeds, alone = [], [], []
        engine, leaf, one_point = cli._congruence_affinors, cli.stratify, congruence_affinor
        monkeypatch.setattr(cli, "_congruence_affinors",
                            lambda cong, us, model: passes.append(us) or engine(cong, us, model))
        monkeypatch.setattr(cli, "stratify",
                            lambda cong, seed, **kw: seeds.append(seed) or leaf(cong, seed, **kw))
        monkeypatch.setattr(module, "congruence_affinor",
                            lambda *args, **kw: alone.append(args) or one_point(*args, **kw))
        code, _ = _congruence_run(tmp_path, {"kind": "congruence", "n": 3, "grid": [4, 3],
                                             "builtin": "cone_normal_congruence",
                                             "stratify": {"seed": [0.1, 0.4], "count": 3}})
        assert code == 0 and len(passes) == len(seeds) == 1 and not alone
        cone = catalog.build("cone_normal_congruence")
        grid = parameter_grid(cone, [4, 3])[1]
        assert passes[0].tobytes() == np.vstack([grid, [0.1, 0.4]]).tobytes()
        assert _analysis_bits(seeds[0]) == _analysis_bits(one_point(cone, np.array([0.1, 0.4])))

    @pytest.mark.parametrize("builtin,axes,seed", [
        # the grid's u1 = 1 row fails (its stencil leaves the cone's domain),
        # and so does the seed, further out
        ("cone_normal_congruence", [(0.5, 1.5), (-1.0, 1.0)], [1.2, 0.0]),
        # the grid's u1 = 1 row fails, and the seed is not integrable
        ("twisted_congruence", [(-1.0, 1.0)] * 3, [0.1, 0.2, -0.3]),
    ], ids=["failing-seed", "non-integrable-seed"])
    def test_a_failing_grid_point_wins_over_the_seed(self, tmp_path, monkeypatch, builtin, axes,
                                                     seed):
        cong = catalog.build(builtin)

        def line(u):
            if builtin == "twisted_congruence" and u[0] > 0.99:
                raise ValueError("math domain error")
            return cong.line(u)

        monkeypatch.setattr(cli, "_build_object",
                            lambda scene: replace(cong, line=line, broadcasts=False))
        doc = {"kind": "congruence", "builtin": builtin, "n": cong.n,
               "grid": {"axes": [{"start": a, "stop": b, "count": 3} for a, b in axes]}}
        without = _congruence_run(tmp_path, doc)
        assert without[0] == 3 and "evaluation failed at u=[1.0" in without[1]
        assert _congruence_run(tmp_path, dict(doc, stratify={"seed": seed, "count": 3})) == without

    def test_a_passing_grid_with_a_non_integrable_seed(self, tmp_path):
        # the message is the one the seed's own one-point analysis gave
        code, err = _congruence_run(tmp_path, {
            "kind": "congruence", "builtin": "twisted_congruence", "n": 4, "grid": [3, 3, 3],
            "stratify": {"seed": [0.1, 0.2, -0.3], "count": 3}})
        assert (code, err) == (3, "numerical failure (congruence): congruence is not integrable "
                                  "near the seed (symmetry defect 1.770e+00)\n")

    def test_normal_congruences_skip_the_root_iteration(self, model4, monkeypatch):
        import pseudoconformal.congruence as module

        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in ("_faddeev_leverrier", "_durand_kerner"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for builtin in ("cone_normal_congruence", "twisted_congruence"):
            cong = catalog.build(builtin, n=4)
            assert not _congruence_affinors(cong, parameter_grid(cong, [2, 2, 2])[1],
                                            model4).failures
            assert calls == ({} if builtin.startswith("cone") else
                             {"_faddeev_leverrier": 1, "_durand_kerner": 1})

    def test_stratify_runs_one_full_analysis(self, monkeypatch):
        import pseudoconformal.congruence as module

        seen = []
        full = module.congruence_affinor

        def counted(*args, **kwargs):
            seen.append(args[1])
            return full(*args, **kwargs)

        monkeypatch.setattr(module, "congruence_affinor", counted)
        seed = np.array([0.1, 0.4])
        leaf = stratify(catalog.build("cone_normal_congruence"), seed, count=5)
        assert len(leaf.parameters) > 5
        assert len(seen) == 1 and np.array_equal(seen[0], seed)

    @pytest.mark.parametrize("n,seed,count", [(4, (0.1, 0.1, 0.3), 4), (3, (0.5, 0.0), 40)])
    def test_lockstep_leaf_equals_one_run_at_a_time(self, n, seed, count):
        # the second leaf leaves the domain
        cong = catalog.build("cone_normal_congruence", n=n)
        leaf = stratify(cong, np.array(seed), count=count)
        parameters, truncated = _one_run_at_a_time(cong, np.array(seed), 1e-2, count)
        assert leaf.parameters == parameters
        assert leaf.truncated == truncated == (n == 3)

    def test_stratify_evaluation_bound(self, monkeypatch):
        # the runs advance in lockstep, one stacked line_at call per RK4
        # stage: the points evaluated, the centres of its stencils, are the
        # 320 a per-point integrator with a cache visits, fewer times than the
        # 410 it visits without one
        line_at = IsotropicCongruence.line_at
        count = 4

        def run(evaluate):
            passes = []

            def counted(cong, u):
                u = np.asarray(u, dtype=float)
                if u.ndim == 1:
                    return line_at(cong, u)
                passes.append([p.tobytes() for p in u[:: 2 * cong.params + 1]])
                return evaluate(cong, u)

            monkeypatch.setattr(IsotropicCongruence, "line_at", counted)
            leaf = stratify(catalog.build("cone_normal_congruence", n=4),
                            np.array([0.1, 0.1, 0.3]), count=count)
            return leaf, passes

        leaf, passes = run(line_at)
        seen = [u for points in passes for u in points]
        assert len(set(seen)) == 320
        assert len(seen) < 410
        assert len(passes) <= 2 * (4 * count + 1) + 1
        alone, _ = run(_each_alone(line_at))
        assert leaf.parameters == alone.parameters
        assert leaf.lightlike_fraction == alone.lightlike_fraction
        assert leaf.truncated == alone.truncated
        assert all(a.tobytes() == b.tobytes() for la, lb in zip(leaf.lines, alone.lines)
                   for a, b in zip(la, lb))
        assert len(leaf.lines) == len(alone.lines) == 81


def _congruence_run(tmp_path, doc):
    """Exit code and standard error of the congruence command on doc, its
    output written beside the scene."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["congruence", "--scene", str(scene), "--out", str(tmp_path / "o.csv")])
    return code, err.getvalue()


def run_outcome(runs, *args):
    """What an RK4 runs function gives on args: per run the bits of each
    point reached and of its line jets, and the truncation flag; or the type
    and message of what it raised."""
    result = outcome(runs, *args)
    if isinstance(result[0], type):
        return result
    visits, truncated = result
    return [[(p.tobytes(),) + tuple(getattr(jets, f)[j].tobytes()
                                    for f in ("a0", "a1", "da0", "da1", "forms"))
             for p, jets, j in run] for run in visits], truncated


def bent_fold_congruence():
    """The fold, with a direction that is not null from u0 = 0.5 on."""
    return IsotropicCongruence.from_null_lines(
        3, ((-1.0, 1.0), (-1.0, 1.0)),
        base_point=lambda u: np.array([u[0], u[1] ** 2, 0.0]),
        direction=lambda u: np.array([1.0, 0.0, 1.0 if u[0] < 0.5 else 2.0]),
    )


def kinked_plane_congruence(frozen_from=math.inf):
    """Null lines along (1, 0, 1) through the plane t = 0, whose leaves run
    along u1.  From u1 = 0.5 on the direction is (1, 0, 2), which is not
    null, and from u1 = frozen_from on the base point stands still, so the
    transversal form vanishes."""
    return IsotropicCongruence.from_null_lines(
        3, ((-1.0, 1.0), (-1.0, 1.0)),
        base_point=lambda u: np.array([0.1, frozen_from, 0.0] if u[1] >= frozen_from
                                      else [u[0], u[1], 0.0]),
        direction=lambda u: np.array([1.0, 0.0, 1.0 if u[1] < 0.5 else 2.0]),
    )


class TestDeferredRankChecks:
    """The leaf integrator checks its passes in one judge at the end and
    raises what checking each pass at once raised (``inline_rk4_runs``): the
    failure of the earliest failing pass, at its lowest failing member."""

    @pytest.mark.parametrize("seed", [(0.1, 0.05), (0.2, 0.1), (0.1, 0.02)])
    def test_a_leaf_that_turns_degenerate_between_lattice_points(self, monkeypatch,
                                                                 seed):
        # the leaf runs along u1 into the fold at u1 = 0, which it reaches
        # at an intermediate stage of a step
        import pseudoconformal.congruence as module

        deferred = outcome(stratify, fold_congruence(), np.array(seed), count=10)
        monkeypatch.setattr(module, "_rk4_runs", inline_rk4_runs)
        inline = outcome(stratify, fold_congruence(), np.array(seed), count=10)
        assert deferred == inline
        assert deferred[0] is DegenerateBasisError
        assert deferred[1].startswith(f"basis forms are dependent at u=[{seed[0]}, ")

    @pytest.mark.parametrize("cong,starts,ref,count,first", [
        # one pass with a line-check failure beside a rank failure
        (bent_fold_congruence, [(0.7, 0.3), (0.0, 0.0)], (1.0, 0.0), 3,
         "not an isotropic line at u=\\[0.7, 0.3\\]"),
        (bent_fold_congruence, [(0.0, 0.0), (0.7, 0.3)], (1.0, 0.0), 3,
         "basis forms are dependent at u=\\[0.0, 0.0\\]"),
        # the fourth stage of the first step fails its line check, and the
        # march goes on to the end
        (kinked_plane_congruence, [(0.1, 0.493)], (0.0, 1.0), 3,
         "not an isotropic line at u=\\[0.1, 0.503\\]: \\{'direction_on_quadric'"),
        # the same, and then a later pass's form vanishes, which raises at once
        (partial(kinked_plane_congruence, 0.505), [(0.1, 0.493)], (0.0, 1.0), 3,
         "not an isotropic line at u=\\[0.1, 0.503\\]: \\{'direction_on_quadric'"),
        # a run crosses v = 1, where the cone's direction has no square root
        (lambda: replace(catalog.build("cone_normal_congruence"), domain=((-1.2, 1.2),) * 2),
         [(0.95, 0.2), (0.5, -0.2)], (1.0, 0.0), 10,
         "evaluation failed at u=\\[1\\.0000999\\d*, 0\\.1999\\d*\\]: math domain error"),
    ])
    def test_the_failure_is_the_inline_one(self, model3, cong, starts, ref, count, first):
        args = (cong(), np.array(starts, dtype=float), np.array([ref] * len(starts)),
                model3, 1e-2, count)
        deferred = run_outcome(_rk4_runs, *args)
        assert deferred == run_outcome(inline_rk4_runs, *args)
        assert re.fullmatch(first + ".*", deferred[1])

    @pytest.mark.parametrize("count,first", [
        (8, None),
        (12, "evaluation failed at u=\\[1\\.0000999\\d*, 0\\.0999\\d*\\]: math domain error")])
    def test_runs_that_leave_the_domain_are_compacted(self, model3, count, first):
        # two runs leave the domain, at steps 4 and 6; the third crosses v = 1
        # on a cone widened beyond it, and its stencil fails in a pass after
        # both compactions, at a stack index offset past every earlier pass
        cong = replace(catalog.build("cone_normal_congruence"),
                       domain=((-0.6, 1.2), (-1.0, 1.0)))
        args = (cong, np.array([[-0.57, 0.3], [-0.55, -0.2], [0.9, 0.1]]),
                np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]), model3, 1e-2, count)
        deferred = run_outcome(_rk4_runs, *args)
        assert deferred == run_outcome(inline_rk4_runs, *args)
        if first is None:
            visits, truncated = deferred
            assert truncated and [len(run) for run in visits] == [4, 6, 9]
        else:
            assert deferred[0] is GeometryError and re.fullmatch(first, deferred[1])

    @pytest.mark.parametrize("n,starts", [(3, [(0.1, 0.4), (-0.2, 0.3)]),
                                          (4, [(0.1, 0.1, 0.3), (0.0, -0.1, 0.2)])])
    def test_runs_that_pass_keep_the_inline_bits(self, n, starts):
        cong = catalog.build("cone_normal_congruence", n=n)
        refs = np.eye(n - 1)[[0] * len(starts)]
        args = (cong, np.array(starts), refs, AmbientModel.standard(n), 1e-2, 6)
        assert run_outcome(_rk4_runs, *args) == run_outcome(inline_rk4_runs, *args)

    def test_a_stage_evaluates_once_and_checks_nothing(self, model3, monkeypatch):
        # two runs of 5 steps: 21 stages, each one line_at call; the line
        # and rank checks are one call each, the judge's
        import pseudoconformal.congruence as module

        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(IsotropicCongruence, "line_at",
                            counted("line_at", IsotropicCongruence.line_at))
        cong = catalog.build("cone_normal_congruence")
        for name in ("_line_checks", "orthonormal_rows"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        _rk4_runs(cong, np.array([[0.1, 0.4], [-0.2, 0.3]]), np.array([[1.0, 0.0]] * 2),
                  model3, 1e-2, 5)
        assert calls == {"line_at": 21, "_line_checks": 1, "orthonormal_rows": 1}

    @pytest.mark.parametrize("why", ["transversal form vanishes at u=\\[0.2, 0.3\\]; "
                                     "distribution undefined",
                                     "transport direction left the distribution kernel at "
                                     "u=\\[0.2, 0.3\\]"])
    def test_transport_messages_name_the_point(self, model3, monkeypatch, why):
        # the second run's form vanishes, or its projected direction does
        import pseudoconformal.congruence as module

        projections = module._kernel_projections

        def failing(forms, refs):
            d, norms, vanishing = projections(forms, refs)
            second = np.arange(len(forms)) == 1
            if why.startswith("transversal"):
                return d, norms, vanishing | second
            return d, np.where(second, 0.0, norms), vanishing

        monkeypatch.setattr(module, "_kernel_projections", failing)
        starts = np.array([[0.1, 0.4], [0.2, 0.3]])
        with pytest.raises(DegenerateBasisError, match=why):
            _rk4_runs(catalog.build("cone_normal_congruence"), starts,
                      np.array([[1.0, 0.0], [1.0, 0.0]]), model3, 1e-2, 2)


class TestStackedRoots:
    def test_a_member_that_does_not_converge_fails_alone(self, model4, monkeypatch):
        # one member's root iteration is made to fail: it alone raises a
        # ConvergenceError naming u, the others keep their bits
        import pseudoconformal.congruence as module

        cong = catalog.build("twisted_congruence", n=4)
        grid = parameter_grid(cong, [2, 2, 2])[1]
        want = analyses(cong, grid, model4)
        roots = module._durand_kerner

        def failing(c):
            z, residual, converged = roots(c)
            third = np.arange(len(c)) == 3
            return z, np.where(third, 0.5, residual), converged & ~third

        monkeypatch.setattr(module, "_durand_kerner", failing)
        got = analyses(cong, grid, model4)
        for i, (a, b) in enumerate(zip(got, want)):
            if i == 3:
                assert isinstance(a, ConvergenceError) and a.residual == 0.5
                assert str(a) == (f"root iteration did not converge at u={grid[3].tolist()} "
                                  "(residual 5.000e-01)")
            else:
                assert _analysis_bits(a) == _analysis_bits(b)

    def test_symmetric_and_general_members_keep_their_bits_in_one_stack(self, model4):
        # a family that is the normal cone congruence below u_2 = 0 and the
        # twisted one above: one stack holds Jacobi and Durand-Kerner members,
        # and each has the bits of its stack of one
        cone, twisted = (catalog.build(name, n=4)
                         for name in ("cone_normal_congruence", "twisted_congruence"))

        def line(u):
            return (cone if u[2] < 0.0 else twisted).line_at(u)

        spliced = IsotropicCongruence(n=4, domain=cone.domain, line=line)
        grid = parameter_grid(spliced, [3, 3, 4])[1]
        results = analyses(spliced, grid, model4)
        kinds = set()
        for u, got in zip(grid, results):
            assert _analysis_bits(got) == _analysis_bits(congruence_affinor(spliced, u))
            kinds.add(tuple(r.is_real for r in got.roots))
        assert kinds == {(True,), (False, False)}


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
            an = congruence_affinor(cong, u)
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
            lib = outcome(congruence_affinor, cong, u)
            ref = outcome(congruence_reference, cong, u, model)
            assert isinstance(lib, tuple) == isinstance(ref, tuple)
            if isinstance(lib, tuple):
                assert issubclass(lib[0], GeometryError)
                raised.append(ref[0])
        assert 0 < len(raised) < 3 ** cong.params
        if name == "fold":
            assert set(raised) == {SingularBasis}


#: (lightlike entry, n, the last parameter's value on the slice).  Two cases
#: fail on the congruence engine's 1e-4 line stencil: the cone's triple root
#: at n = 5 splinters under Durand-Kerner (simple roots up to 1.8e-5 apart,
#: most of them complex; defect 1.02e-9), and the wavefront's operator has a
#: symmetry defect of 7.3e-8, its points within 4.7e-9.
CROSS_CASES = [
    pytest.param("light_cone", 3, 1.0, id="light_cone3"),
    pytest.param("light_cone", 4, 1.0, id="light_cone4"),
    pytest.param("light_cone", 5, 1.0, id="light_cone5", marks=pytest.mark.xfail(
        strict=True, reason="stencil symmetry defect 1.02e-9 exceeds 1e-9")),
    pytest.param("tilted_null_family", 3, 1.1, id="tilted"),
    pytest.param("circle_wavefront", 4, 0.55, id="wavefront", marks=pytest.mark.xfail(
        strict=True, reason="stencil symmetry defect 7.3e-8 exceeds 1e-9")),
]


class TestCrossEngineLaw:
    """A normal congruence's singular points are its leaves' focal points: the
    congruence of time-translated generators of a lightlike entry
    (``_oracles.translated_congruence``) has, at (v, t), the singular points
    of ``lightlike_affinor`` at (v, slice) translated by t e_n, with their
    multiplicities, within 1e-8, and a symmetry defect of at most 1e-9.  The
    congruence differences its lines at step 1e-4; the worst distance
    measured on the passing cases is 5.5e-9, on the cone slice at n = 4.
    The leaf of ``stratify`` through (v, t0) stays on the slice t = t0."""

    @pytest.mark.parametrize("name,n,last", CROSS_CASES)
    def test_singular_points_are_translated_focal_points(self, name, n, last):
        imm, model = catalog.build(name, n=n), AmbientModel.standard(n)
        cong = translated_congruence(imm, last, model)
        checked = 0
        for w in parameter_grid(cong, [3] * cong.params)[1]:
            an = congruence_affinor(cong, w)
            assert an.symmetry_defect <= 1e-9
            got = congruence_singular_points(an)
            want = singular_points(lightlike_affinor(imm, np.append(w[:-1], last)))
            assert [sp.multiplicity for sp in got] == [sp.multiplicity for sp in want]
            for g, f in zip(got, want):
                assert g.is_real
                focal = darboux_unembed(f.point, model)
                focal[n - 1] += w[-1]
                assert np.abs(darboux_unembed(g.point, model) - focal).max() <= 1e-8
                checked += 1
        assert checked >= 3 ** cong.params

    @pytest.mark.parametrize("name,n,last", [pytest.param(*case.values, id=case.id)
                                             for case in CROSS_CASES])
    def test_leaf_stays_on_its_slice(self, name, n, last):
        # the leaves are the slices t = const; the worst |t - t0| measured is
        # 2.5e-10, on the wavefront
        imm, model = catalog.build(name, n=n), AmbientModel.standard(n)
        cong = translated_congruence(imm, last, model)
        seed = np.array([0.5 * (lo + hi) for lo, hi in cong.domain[:-1]] + [0.1])
        leaf = stratify(cong, seed, count=5)
        assert len(leaf.parameters) >= 11
        assert max(abs(p[-1] - 0.1) for p in leaf.parameters) <= 1e-5
