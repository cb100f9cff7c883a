import itertools
import warnings

import numpy as np
import pytest

from pseudoconformal import catalog
from pseudoconformal.conformal import AmbientModel
from pseudoconformal.hypersurface import Immersion, classify_point

from _oracles import fd_jacobian

EXPECTED_KIND = {
    "spacelike_slice": "spacelike",
    "timelike_hyperplane": "timelike",
    "spacelike_hypersphere": "spacelike",
    "timelike_hypersphere": "timelike",
    "light_cone": "lightlike",
    "null_hyperplane": "lightlike",
    "tilted_null_family": "lightlike",
    "circle_wavefront": "lightlike",
}


def domain_center(obj, frac=0.5):
    return np.array([lo + frac * (hi - lo) for lo, hi in obj.domain])


class TestRegistry:
    def test_every_entry_builds_at_default(self):
        for name, entry in catalog.CATALOG.items():
            obj = catalog.build(name)
            assert obj.name == name
            assert obj.params == entry.default_n - 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.build("klein_bottle")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            catalog.build("light_cone", radius=2.0)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            catalog.build("euclidean_sphere", n=4)

    def test_sphere_parameter_sign_checks(self):
        with pytest.raises(ValueError):
            catalog.build("spacelike_hypersphere", a=1.0)
        with pytest.raises(ValueError):
            catalog.build("timelike_hypersphere", a=-1.0)


class TestAnalyticJets:
    @pytest.mark.parametrize("name", sorted(EXPECTED_KIND))
    def test_jacobian_matches_finite_differences(self, name):
        imm = catalog.build(name)
        for frac in (0.35, 0.6):
            u = domain_center(imm, frac)
            j = imm.jet1(u)
            j_fd = fd_jacobian(imm.value, u, imm.target_dim)
            assert np.abs(j - j_fd).max() < 1e-7

    @pytest.mark.parametrize(
        "name", ["light_cone", "tilted_null_family", "circle_wavefront",
                 "spacelike_slice"]
    )
    def test_hessian_matches_finite_differences(self, name):
        imm = catalog.build(name)
        fd = Immersion(n=imm.n, domain=imm.domain, value=imm.value)
        u = domain_center(imm, 0.45)
        assert np.abs(imm.jet2(u) - fd.jet2(u)).max() < 1e-5

    @pytest.mark.parametrize("name", sorted(EXPECTED_KIND))
    def test_expected_causal_kind(self, name):
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        for frac in (0.25, 0.5, 0.75):
            u = domain_center(imm, frac)
            assert classify_point(imm, u, model=model).kind == EXPECTED_KIND[name]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dimension_generic_entries(self, n):
        for name in ("spacelike_slice", "light_cone", "null_hyperplane",
                     "spacelike_hypersphere", "timelike_hypersphere"):
            imm = catalog.build(name, n=n)
            model = AmbientModel.standard(n)
            u = domain_center(imm)
            assert classify_point(imm, u, model=model).kind == EXPECTED_KIND[name]

    def test_congruence_direction_fields_are_null(self):
        for name, n in [("parallel_null_congruence", 3),
                        ("cone_normal_congruence", 4),
                        ("twisted_congruence", 4)]:
            cong = catalog.build(name, n=n)
            model = AmbientModel.standard(n)
            u = domain_center(cong, 0.4)
            cong.validate(u, model=model)


class TestTiltedFamilyOracle:
    def test_ruling_is_null_and_orthogonal_to_focal_speed(self, model3):
        # the analytic focal curve stays on every ruling at fixed offset
        imm = catalog.build("tilted_null_family", pitch=0.5)
        for tau in (0.3, 1.7):
            surface_pt = imm.value(np.array([tau, 0.6]))
            ruling = imm.value(np.array([tau, 1.6])) - imm.value(np.array([tau, 0.6]))
            ruling = ruling / np.sqrt(float(ruling @ ruling))
            focal = catalog.tilted_family_focal_curve(tau, 0.5)
            g = model3.metric.gram
            assert abs(ruling @ g @ ruling) < 1e-12
            # focal point lies on the ruling through (tau, .)
            diff = focal - surface_pt
            cross = diff - (diff @ ruling) * ruling
            assert np.abs(cross).max() < 1e-10


def _scalar_outcome(fn, u):
    """What a one-point evaluator gives at u: its array, or the type and
    message of what it raised."""
    try:
        return np.array(fn(u))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _stencil_sample(obj, rng, count=30, step=1e-4):
    """Random points of the domain, their +-step stencil offsets and the
    domain corners."""
    lo, hi = np.array(obj.domain).T
    us = lo + (hi - lo) * rng.random((count, obj.params))
    corners = np.array(list(itertools.product(*obj.domain)), dtype=float)
    offsets = [s * step * e for e in np.eye(obj.params) for s in (1.0, -1.0)]
    return np.concatenate([us] + [us + o for o in offsets] + [corners])


#: catalog entries (name, n) and edge points: the light-cone vertex, and
#: points where a one-point evaluator raises (outside the default domain,
#: and the corners of the n=6 cone congruence)
TWIN_CASES = [(name, None, []) for name in sorted(catalog.CATALOG)] + [
    ("light_cone", 3, [[0.0, 0.0], [0.0, 1e-4], [-0.0, 0.0]]),
    ("light_cone", 5, [[0.0, 0.0, 0.0, 0.0]]),
    ("timelike_hypersphere", 3, [[1.75, 0.0], [-1.5, 1.0]]),
    ("timelike_hypersphere", 5, [[1.75, 0.0, 0.0, 0.0]]),
    ("cone_normal_congruence", 4, [[0.5, 0.9, 0.0], [0.6, 0.8, 0.3]]),
    ("cone_normal_congruence", 6, []),
    ("spacelike_hypersphere", 4, []),
    ("parallel_null_congruence", 5, []),
]


class TestBroadcastingTwins:
    """Every catalog entry evaluates a stack in one call, member for member
    with the bits, exceptions and non-finite values of its one-point
    evaluators, and the raw twins agree wherever those give finite values."""

    @pytest.mark.parametrize("name, n, edges", TWIN_CASES)
    def test_stack_equals_one_point_evaluators(self, name, n, edges, rng):
        obj = catalog.build(name, n=n)
        us = _stencil_sample(obj, rng)
        if edges:
            us = np.concatenate([us, np.array(edges, dtype=float)])
        if isinstance(obj, Immersion):
            pairs = [(obj.point, obj.values), (obj.jet1, obj.jacobians)]
        else:
            pairs = [(obj.line_at, obj.lines)]
        for scalar, twin in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, failures = scalar(us)
            with np.errstate(all="ignore"):
                raw = np.asarray(twin(us))
            for i, u in enumerate(us):
                want = _scalar_outcome(scalar, u)
                if isinstance(want, tuple):
                    assert (type(failures[i]), str(failures[i])) == want
                    assert not got[i].any()
                    continue
                assert i not in failures
                assert got[i].tobytes() == want.tobytes()
                if np.isfinite(want).all():
                    assert raw[i].tobytes() == want.tobytes()
        if isinstance(obj, Immersion) and obj.hessian is not None:
            # analytic Hessians broadcast too, member for member
            with np.errstate(all="ignore"):
                stacked = np.asarray(obj.hessian(us))
                assert [h.tobytes() for h in stacked] == \
                    [np.asarray(obj.hessian(u)).tobytes() for u in us]
