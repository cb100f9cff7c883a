import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoconformal import catalog
from pseudoconformal.congruence import _congruence_affinors, stratify
from pseudoconformal.errors import ConvergenceError, DegenerateBasisError
from pseudoconformal.frames import lightlike_gram
from pseudoconformal.hypersurface import classify_point, parameter_grid, survey
from pseudoconformal.lightlike import _affinors, _degeneracy_report
from pseudoconformal.linalg import (
    CLUSTER_RADIUS,
    JACOBI_TOL,
    MAX_ROOT_ORDER,
    REAL_ROOT_TOL,
    BilinearForm,
    _cluster,
    _dots,
    _inertia,
    _root_records,
    _roots,
    _durand_kerner,
    _faddeev_leverrier,
    _solve,
    char_poly,
    char_roots,
    cluster_roots,
    det,
    durand_kerner,
    inverse,
    jacobi_eigh,
    orthonormal_rows,
    scalar_product,
    signature,
    solve,
    solve_particular,
)

import _oracles
from _oracles import (member_first_jacobi, nested_cluster_roots, nested_clusters, root_bits,
                      single_matrix_det, single_matrix_faddeev_leverrier, single_matrix_jacobi,
                      single_matrix_solve, single_polynomial_durand_kerner)

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


def vec_strategy(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


class TestScalarProduct:
    def test_identity_block(self):
        form = BilinearForm(np.diag([1.0, 1.0, -1.0]))
        assert scalar_product([1, 0, 0], [1, 0, 0], form) == 1.0

    def test_null_vector(self):
        form = BilinearForm(np.diag([1.0, 1.0, -1.0]))
        assert scalar_product([1, 0, 1], [1, 0, 1], form) == 0.0

    def test_null_pair_entry_of_adapted_gram(self):
        form = BilinearForm(lightlike_gram(3))
        u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        assert scalar_product(u, v, form) == -1.0

    def test_dimension_mismatch(self):
        form = BilinearForm(np.eye(3))
        with pytest.raises(ValueError):
            scalar_product([1.0, 0.0], [0.0, 1.0, 0.0], form)

    @given(vec_strategy(4), vec_strategy(4))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_exact(self, u, v):
        form = BilinearForm(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert scalar_product(u, v, form) == scalar_product(v, u, form)

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError):
            BilinearForm(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_degenerate_gram(self):
        with pytest.raises(DegenerateBasisError):
            BilinearForm(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestSignature:
    def test_lorentz_block(self):
        assert signature(np.diag([1.0, 1.0, -1.0])).as_tuple() == (2, 1, 0)

    def test_adapted_gram_matches_ambient(self):
        assert signature(lightlike_gram(3)).as_tuple() == (3, 2, 0)

    def test_zero_matrix(self):
        assert signature(np.zeros((4, 4))).as_tuple() == (0, 0, 4)

    def test_congruence_invariance(self, rng):
        m = np.diag([2.0, -1.0, 0.5, -3.0, 0.0])
        base = signature(m, tol=1e-8).as_tuple()
        for _ in range(100):
            s = rng.normal(size=(5, 5))
            while abs(np.linalg.det(s)) < 0.1:
                s = rng.normal(size=(5, 5))
            assert signature(s.T @ m @ s, tol=1e-8).as_tuple() == base


class TestJacobi:
    def test_matches_numpy_eigh(self, rng):
        for k in (2, 3, 5, 8):
            a = rng.normal(size=(k, k))
            a = a + a.T
            w, v = jacobi_eigh(a)
            w_np = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.abs(w - w_np).max() < 1e-10
            assert np.abs(a @ v - v @ np.diag(w)).max() < 1e-9
            assert np.abs(v.T @ v - np.eye(k)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.array([[1.0, bad], [bad, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(a)
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(np.array([np.eye(2), a]))

    def test_running_out_of_sweeps_raises(self, rng):
        a = rng.normal(size=(6, 6))
        with pytest.raises(ConvergenceError):
            jacobi_eigh(a + a.T, max_sweeps=1)

    def test_stack_reports_the_one_member_that_fails(self, rng):
        full = rng.normal(size=(6, 6))
        one_pair = np.diag(rng.normal(size=6))
        one_pair[1, 4] = one_pair[4, 1] = 0.7  # one rotation diagonalizes it
        stack = np.array([np.diag(rng.normal(size=6)), one_pair, full + full.T])
        with pytest.raises(ConvergenceError, match="1 of 3"):
            jacobi_eigh(stack, max_sweeps=1)
        w, _ = jacobi_eigh(stack[:2], max_sweeps=1)
        for member, wm in zip(stack[:2], w):
            assert np.abs(wm - single_matrix_jacobi(member, max_sweeps=1)[0]).max() <= 1e-15

    def test_residual_names_only_the_failing_members(self):
        # the second member converges at once (1e150 is below 1e-12 of its
        # scale) but has the larger off-diagonal norm: the error and its
        # residual name the first member's, as when it fails alone
        a = np.random.default_rng(0).standard_normal((3, 3))
        converged = np.diag([1e163, 2e163, 3e163])
        converged[0, 1] = converged[1, 0] = 1e150
        stack = np.array([a + a.T, converged])
        alone = _raised(lambda: jacobi_eigh(a + a.T, max_sweeps=1))
        raised = _raised(lambda: jacobi_eigh(stack, max_sweeps=1))
        assert raised[0] is ConvergenceError and raised[1].endswith(
            "for 1 of 2 matrices (largest off-diagonal norm 1.047e+00)")
        assert raised[1:] == (alone[1].replace("1 of 1", "1 of 2"), alone[2])
        assert raised == _raised(lambda: member_first_jacobi(stack, max_sweeps=1))

    def test_overflow_is_a_convergence_error(self):
        # finite and symmetric, but its symmetrization already overflows; the
        # true inertia is 1+/1-, and inf/-inf eigenvalues would read 0+/0-/2
        a = np.array([[1e308, 1e308], [1e308, -1e308]])
        for call in (lambda: jacobi_eigh(a), lambda: jacobi_eigh(a, vectors=0),
                     lambda: signature(a)):
            with pytest.raises(ConvergenceError, match="overflowed for 1 of 1 matrices"):
                call()
        with pytest.raises(ConvergenceError, match="overflowed for 2 of 3 matrices"):
            jacobi_eigh(np.array([np.eye(2), a, -a]), vectors=1)

    def test_large_entries_that_stay_finite_keep_their_bits(self):
        # the squares in the off-diagonal norm overflow, the pass does not: it
        # gives the exact power-of-two multiple of the unscaled one, silently
        small = np.array([[1.0, 1.0], [1.0, 0.0]])
        w, v = jacobi_eigh(2.0**600 * small)
        ws, vs = single_matrix_jacobi(small)
        assert np.array_equal(w, 2.0**600 * ws) and np.array_equal(v, vs)
        assert signature(2.0**600 * small).as_tuple() == (1, 1, 0)


def mixed_stack(rng, k):
    """Zero, diagonal, already converged and repeated-eigenvalue members mixed
    with full ones."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    noise = rng.normal(size=(k, k))
    members = [
        np.zeros((k, k)),
        np.diag(rng.normal(size=k)),
        np.diag(rng.normal(size=k)) + 1e-14 * (noise + noise.T),
        2.0 * np.eye(k),
        q @ np.diag([3.0] * (k - 1) + [-1.0]) @ q.T,
    ]
    for _ in range(4):
        a = rng.normal(size=(k, k))
        members.append(a + a.T)
    return np.array(members)


class TestStackedJacobi:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_numpy_and_the_single_matrix_loop(self, rng, k):
        stack = mixed_stack(rng, k)
        w, v = jacobi_eigh(stack)
        assert w.shape == (len(stack), k) and v.shape == (len(stack), k, k)
        for a, wm, vm in zip(stack, w, v):
            scale = max(np.abs(a).max(), 1.0)
            ws, vs = single_matrix_jacobi(a)
            if np.linalg.norm(a - np.diag(np.diag(a))) <= JACOBI_TOL * np.abs(a).max():
                # converged before the first sweep: the stacked pass must leave
                # the member exactly as the single-matrix loop does
                assert np.array_equal(wm, ws) and np.array_equal(vm, vs)
            assert np.abs(wm - ws).max() <= 1e-13 * scale
            assert np.abs(wm - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-12 * scale
            assert np.abs(a @ vm - vm * wm).max() <= 1e-12 * scale
            assert np.abs(vm.T @ vm - np.eye(k)).max() <= 1e-13
            if k == 1 or np.diff(ws).max() < -1e-3 * scale:
                assert np.abs(vm - vs).max() <= 1e-9

    @pytest.mark.parametrize("k", range(1, 7))
    def test_single_matrix_is_a_stack_of_one(self, rng, k):
        # a member's bits do not depend on the rest of its stack
        stack = mixed_stack(rng, k)
        w, v = jacobi_eigh(stack)
        for a, wm, vm in zip(stack, w, v):
            ws, vs = jacobi_eigh(a)
            assert ws.shape == (k,) and vs.shape == (k, k)
            assert np.array_equal(ws, wm) and np.array_equal(vs, vm)

    def test_empty_stack(self):
        w, v = jacobi_eigh(np.zeros((0, 3, 3)))
        assert w.shape == (0, 3) and v.shape == (0, 3, 3)

    def test_rejects_what_is_not_a_square_matrix_or_stack(self):
        for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros((1, 1, 2, 2))):
            with pytest.raises(ValueError):
                jacobi_eigh(bad)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_eigenvectors_for_none_some_or_all_members(self, rng, k):
        # the eigenvalues do not depend on how many leading members carry
        # eigenvectors, and those carried are the full pass's, bit for bit
        stack = mixed_stack(rng, k)
        w, v = jacobi_eigh(stack)
        for carried in (0, 1, 4, len(stack), len(stack) + 3):
            wc, vc = jacobi_eigh(stack, vectors=carried)
            assert wc.shape == w.shape and wc.tobytes() == w.tobytes()
            assert vc.shape == (min(carried, len(stack)), k, k)
            assert vc.tobytes() == v[:carried].tobytes()
        for a, wm in zip(stack, w):
            scale = max(np.abs(a).max(), 1.0)
            assert np.abs(wm - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-12 * scale
            ws, vs = jacobi_eigh(a, vectors=0)
            assert vs is None and ws.shape == (k,) and ws.tobytes() == wm.tobytes()
            w1, v1 = jacobi_eigh(a[None], vectors=0)
            assert v1.shape == (0, k, k) and w1.shape == (1, k) and w1.tobytes() == wm.tobytes()

    def test_empty_stack_without_eigenvectors(self):
        w, v = jacobi_eigh(np.zeros((0, 3, 3)), vectors=0)
        assert w.shape == (0, 3) and v.shape == (0, 3, 3)

    def test_errors_do_not_depend_on_the_eigenvectors_carried(self, rng):
        full = rng.normal(size=(6, 6))
        one_pair = np.diag(rng.normal(size=6))
        one_pair[1, 4] = one_pair[4, 1] = 0.7
        unconverged = np.array([np.diag(rng.normal(size=6)), one_pair, full + full.T])
        cases = [(np.array([[1.0, np.nan], [np.nan, 2.0]]), {}),
                 (np.array([np.eye(2), [[1.0, np.inf], [np.inf, 2.0]]]), {}),
                 (np.array([[0.0, 1.0], [0.0, 0.0]]), {}),
                 (np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), {}),
                 (np.zeros((2, 2, 3)), {}),
                 (unconverged, {"max_sweeps": 1})]
        for a, options in cases:
            expected = _outcome(lambda: jacobi_eigh(a, **options))
            assert isinstance(expected, tuple) and issubclass(expected[0], Exception)
            for carried in (0, 1, 2):
                assert _outcome(lambda: jacobi_eigh(a, vectors=carried, **options)) == expected
        assert _outcome(lambda: jacobi_eigh(unconverged, max_sweeps=1, vectors=0))[1].startswith(
            "Jacobi sweeps did not converge in 1 sweeps for 1 of 3 matrices")


def _bits(x):
    return None if x is None else (x.shape, x.tobytes())


def _raised(fn):
    """Type, message and residual of what a call raised, or None."""
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)
    return None


def assert_member_first_bits(stack, carried=(0, 1, 4, None)):
    """jacobi_eigh gives the member-first pass's eigenvalues and eigenvectors
    bit for bit, with each count of carried eigenvectors."""
    for vectors in carried:
        w, v = jacobi_eigh(stack, vectors=vectors)
        expected_w, expected_v = member_first_jacobi(stack, vectors=vectors)
        assert _bits(w) == _bits(expected_w) and _bits(v) == _bits(expected_v)


class TestMemberLastJacobi:
    """The member-last pass keeps the bits and the errors of the member-first
    pass it replaced (``_oracles.member_first_jacobi``)."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_mixed_stacks(self, rng, k):
        stack = mixed_stack(rng, k)
        assert_member_first_bits(stack, carried=(0, 1, 4, len(stack), None))
        for member in stack[[0, 4, -1]]:
            assert_member_first_bits(member)

    def test_scaled_converged_and_zero_members(self, rng):
        # 2^600-scaled members overflow the off-diagonal norm, not the pass
        for k in (2, 3, 5):
            a = rng.normal(size=(k, k))
            full, diagonal = a + a.T, np.diag(rng.normal(size=k))
            stack = np.array([2.0**600 * full, diagonal, np.zeros((k, k)), 2.0**600 * diagonal,
                              full, 2.0**-600 * full, np.zeros((k, k)), 2.0**600 * full.T])
            assert_member_first_bits(stack)

    def test_classify_slot_stacks(self, monkeypatch):
        import pseudoconformal.hypersurface as hypersurface

        stacks = []

        def recorded(m, **options):
            stacks.append(np.array(m))
            return jacobi_eigh(m, **options)

        monkeypatch.setattr(hypersurface, "jacobi_eigh", recorded)
        survey(catalog.build("euclidean_sphere"), [64, 64])
        survey(catalog.build("timelike_hypersphere", n=5), [6] * 4)
        survey(catalog.build("spacelike_hypersphere", n=4), [12] * 3)
        # the metrics alone: every Jacobian's J^T J is certified full rank
        assert [stack.shape for stack in stacks] == [(4096, 2, 2), (1296, 4, 4), (1728, 3, 3)]
        for stack in stacks:
            assert_member_first_bits(stack, carried=(0, None))

    def test_errors_and_their_messages(self, rng):
        full = rng.normal(size=(6, 6))
        one_pair = np.diag(rng.normal(size=6))
        one_pair[1, 4] = one_pair[4, 1] = 0.7
        overflowing = np.array([[1e308, 1e308], [1e308, -1e308]])
        cases = [(np.array([np.diag(rng.normal(size=6)), one_pair, full + full.T]),
                  {"max_sweeps": 1}, "for 1 of 3 matrices"),
                 (np.array([np.eye(2), overflowing, -overflowing]), {}, "overflowed for 2 of 3"),
                 (overflowing, {}, "overflowed for 1 of 1"),
                 (np.array([np.eye(2), [[1.0, np.nan], [np.nan, 2.0]]]), {}, "finite"),
                 (np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), {}, "symmetric"),
                 (np.zeros((0, 2, 3)), {}, "square")]
        for stack, options, message in cases:
            for vectors in (0, 1, None):
                raised = _raised(lambda: jacobi_eigh(stack, vectors=vectors, **options))
                assert raised is not None and message in raised[1]
                assert raised == _raised(lambda: member_first_jacobi(stack, vectors=vectors,
                                                                     **options))

    def test_empty_stack_returns_at_once(self):
        for vectors in (None, 0, 2):
            w, v = jacobi_eigh(np.zeros((0, 3, 3)), vectors=vectors)
            assert w.shape == (0, 3) and v.shape == (0, 3, 3)
            assert _bits(w) == _bits(member_first_jacobi(np.zeros((0, 3, 3)), vectors=vectors)[0])

    def test_inertia_of_a_permuted_spectrum(self, rng):
        # counts and ratio do not depend on the order of a spectrum: a
        # descending Jacobi spectrum and any permutation of it read alike
        w = rng.normal(size=(60, 5)) * 10.0 ** rng.integers(-3, 3, size=(60, 5))
        w[::3, 1] = 0.0
        w[::4, 2] = 1e-12 * w[::4, 0]
        w[-1] = 0.0
        tol = 1e-8
        radius = np.maximum(np.abs(w).max(axis=1), 1e-300)
        plus = (w > tol * radius[:, None]).sum(axis=1)
        minus = (w < -tol * radius[:, None]).sum(axis=1)
        expected = (plus, minus, 5 - plus - minus, np.abs(w).min(axis=1) / radius)
        spectra = [w, -np.sort(-w, axis=1), np.sort(w, axis=1), rng.permuted(w, axis=1)]
        for spectrum in spectra:
            got = _inertia(spectrum, tol)
            assert [_bits(x) for x in got] == [_bits(x) for x in expected]
            for row in (0, 3, 4, 59):
                single = _inertia(spectrum[row], tol)
                assert [float(x) for x in single] == [float(x[row]) for x in expected]


class TestCharRoots:
    def test_diagonal(self):
        roots = char_roots(np.diag([2.0, 3.0]))
        values = sorted(r.value.real for r in roots)
        assert values == pytest.approx([-3.0, -2.0], abs=1e-12)
        assert all(r.is_real for r in roots)

    def test_rotation_block_is_complex_pair(self):
        roots = char_roots(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert sorted(r.value.imag for r in roots) == pytest.approx([-1.0, 1.0], abs=1e-10)
        assert not any(r.is_real for r in roots)
        pair = sorted(roots, key=lambda r: r.value.imag)
        assert pair[0].value == pair[1].value.conjugate()

    def test_zero_matrix_multiplicity(self):
        for k in (1, 2, 4):
            roots = char_roots(np.zeros((k, k)))
            assert len(roots) == 1
            assert roots[0].multiplicity == k
            assert abs(roots[0].value) < 1e-10
            assert roots[0].is_real

    def test_negated_eigenvalues_of_symmetric(self, rng):
        for k in (2, 3, 6):
            a = rng.normal(size=(k, k))
            a = a + a.T
            roots = char_roots(a)
            got = sorted(
                np.repeat([r.value.real for r in roots],
                          [r.multiplicity for r in roots])
            )
            expect = sorted(-np.linalg.eigvalsh(a))
            assert np.abs(np.array(got) - np.array(expect)).max() < 1e-10

    def test_root_sum_is_negated_trace(self, rng):
        for k in (2, 4, 7):
            a = rng.normal(size=(k, k))
            roots = char_roots(a)
            total = sum(r.value * r.multiplicity for r in roots)
            assert abs(total + np.trace(a)) < 1e-10

    def test_double_root_clusters_and_flags_real(self):
        roots = char_roots(np.diag([2.0, 2.0, 5.0]))
        mults = {round(r.value.real, 6): r.multiplicity for r in roots}
        assert mults == {-2.0: 2, -5.0: 1}
        assert all(r.is_real for r in roots)

    def test_multiplicity_count_always_matches_size(self, rng):
        for k in (1, 3, 5, 9):
            a = rng.normal(size=(k, k))
            roots = char_roots(a)
            assert sum(r.multiplicity for r in roots) == k

    def test_size_limit(self):
        assert MAX_ROOT_ORDER == 12
        char_roots(np.zeros((MAX_ROOT_ORDER, MAX_ROOT_ORDER)))
        with pytest.raises(ValueError, match="order <= 12"):
            char_roots(np.zeros((13, 13)))

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_against_numpy_eigvals(self, k, seed):
        a = np.random.default_rng(seed).normal(size=(k, k))
        roots = char_roots(a)
        got = sorted(
            np.repeat([r.value for r in roots], [r.multiplicity for r in roots]),
            key=lambda z: (z.real, z.imag),
        )
        expect = sorted(-np.linalg.eigvals(a), key=lambda z: (z.real, z.imag))
        assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-6


class TestCharPoly:
    def test_matches_numpy_poly(self, rng):
        for k in (2, 4, 6):
            a = rng.normal(size=(k, k))
            mine = char_poly(a)
            ref = np.poly(a)
            assert np.abs(mine - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())


class TestClusterRoots:
    def test_conjugate_cleanup(self):
        vals = [1 + 1e-9j, 2.0 + 0.5j, 2.0 - 0.5j + 1e-10j]
        roots = cluster_roots(vals)
        real = [r for r in roots if r.is_real]
        cplx = [r for r in roots if not r.is_real]
        assert len(real) == 1 and len(cplx) == 2
        assert cplx[0].value == cplx[1].value.conjugate()

    def test_oracle_uses_the_library_constants(self):
        assert (_oracles.CLUSTER_RADIUS, _oracles.REAL_ROOT_TOL) == (CLUSTER_RADIUS, REAL_ROOT_TOL)

    def test_stacked_and_one_row_match_the_nested_rule(self, rng):
        count, k = 3000, 6
        v = (rng.normal(size=(count, k)) * rng.choice([1e-3, 1.0, 1e3], size=(count, 1))
             + 1j * rng.normal(size=(count, k)) * rng.choice([0.0, 1e-9, 1.0], size=(count, 1)))
        v[::3, 1] = v[::3, 0] * (1 + 4e-7)                  # within the cluster radius
        v[::4, 3] = np.conj(v[::4, 2])                      # a conjugate pair
        v[::5, 2] = v[::5, 1] + 1.5e-6                      # near the edge of it
        v[::7, :3] = -1.0 + 0.3j                            # a triple complex root
        v[::11, :4] = [2 + 1j, 2 - 1j, 2 + 1j, 2 - 1j]      # a double conjugate pair
        v[::13, :2] = [-0.0, 0.0]
        v[::17, :4] = [1.0, 1.0 + 9e-7, 1.0 + 1.9e-6 + 1e-7j, 1.0 + 2.8e-6]  # a chain of near roots
        v[::19, :2] = [0.0, 1e-6]                           # exactly the cluster radius apart
        v[::23, :2] = [1j, 1j + 2e-6]                       # so are these, about |1j| = 1
        v[::29, :2] = [-1.0, -1.0 - 7.1e-9]                 # the cone n=4 vertex, double
        v[::31, :4] = [3 + 2e-9j, 3 - 1e-9j, 5e-9j, -4e-9j]  # near-real clusters
        v[::37, :2] = [2 + 0.5j, 2 - 0.5j + 3e-7 + 2e-7j]   # a pair within the radius of conjugate
        v = rng.permuted(v, axis=1)
        means, mults, counts = _cluster(v)
        # the stacked root rule, one pass over all rows, has the bits of the
        # nested rule row by row
        values, root_mults, real = _roots(means, mults, counts)
        for row, mean, mult, c, roots in zip(v, means, mults, counts,
                                             zip(values, root_mults, real)):
            expected = nested_clusters(list(row))
            assert ([(m.real.hex(), m.imag.hex(), int(j)) for m, j in zip(mean[:c], mult[:c])]
                    == [(m.real.hex(), m.imag.hex(), j) for m, j in expected])
            nested = root_bits(nested_cluster_roots(list(row)))
            assert root_bits(_root_records(*roots)) == root_bits(cluster_roots(list(row))) == nested
            assert (roots[1][c:] == 0).all() and not roots[2][c:].any()
        assert mults.max() >= 3 and counts.min() < k
        assert real.any() and (~real & (root_mults > 0)).any()

    @pytest.mark.parametrize("stack", ["real", "complex_zero_imaginary", "mixed"])
    def test_roots_match_the_per_root_rule(self, stack, rng):
        # the stacked root rule, which visits no column where no mean has a
        # positive imaginary part, has the bits of the nested per-root rule on
        # real spectra, on the same values as complex numbers and on values
        # with conjugate pairs
        count, k = 2000, 5
        v = rng.normal(size=(count, k)) * rng.choice([1e-3, 1.0, 1e3], size=(count, 1))
        v[::3, 1] = v[::3, 0] * (1 + 4e-7)          # within the cluster radius
        v[::7, :3] = -1.0                           # a triple root
        v[::11, :2] = [0.0, 1e-6]                   # exactly the cluster radius apart
        v[::13, 0] = -0.0
        if stack == "complex_zero_imaginary":
            v = v.astype(complex)
        elif stack == "mixed":
            v = v + 1j * rng.normal(size=(count, k)) * rng.choice([0.0, 1e-9, 1.0], size=(count, 1))
            v[::4, 3] = np.conj(v[::4, 2])              # a conjugate pair
            v[::17, :4] = [2 + 1j, 2 - 1j, 2 + 1j, 2 - 1j]  # a double conjugate pair
            v[::19, :2] = [2 + 0.5j, 2 - 0.5j + 3e-7 + 2e-7j]  # within the radius of conjugate
        v = rng.permuted(v, axis=1)
        values, mults, real = _roots(*_cluster(v))
        for row, roots in zip(v, zip(values, mults, real)):
            assert root_bits(_root_records(*roots)) == root_bits(nested_cluster_roots(list(row)))
        assert real[mults > 0].all() == (stack != "mixed")


class TestSolve:
    def test_matches_numpy(self, rng):
        for k in (2, 5, 8):
            a = rng.normal(size=(k, k)) + k * np.eye(k)
            b = rng.normal(size=k)
            assert np.abs(solve(a, b) - np.linalg.solve(a, b)).max() < 1e-10

    def test_matrix_rhs(self, rng):
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=(4, 3))
        assert np.abs(solve(a, b) - np.linalg.solve(a, b)).max() < 1e-10

    def test_columns_match_vector_solves_bit_for_bit(self, rng):
        for k in (2, 5, 7):
            a = rng.normal(size=(k, k)) + k * np.eye(k)
            for r in (1, 2, 4):
                b = rng.normal(size=(k, r))
                x = solve(a, b)
                assert x.shape == (k, r) and x.flags.c_contiguous
                assert np.array_equal(x, np.stack([solve(a, c) for c in b.T], axis=1))

    def test_singular_raises(self):
        with pytest.raises(DegenerateBasisError):
            solve(np.ones((3, 3)), np.ones(3))

    def test_inverse(self, rng):
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        assert np.abs(inverse(a) @ a - np.eye(5)).max() < 1e-10

    def test_det_matches_numpy(self, rng):
        for k in (2, 3, 6):
            a = rng.normal(size=(k, k))
            assert det(a) == pytest.approx(np.linalg.det(a), rel=1e-9, abs=1e-12)

    def test_det_is_the_signed_product_of_the_pivots(self, rng):
        # each row swap of the pivoting flips the sign; an exactly zero
        # pivot gives 0.0
        assert det(np.diag([2.0, 3.0])) == 6.0
        assert det(2.0 * np.eye(3)[[1, 0, 2]]) == -8.0
        assert det(np.eye(4)[[1, 0, 3, 2]]) == 1.0
        a = rng.normal(size=(4, 4))
        a[:, 1] = 0.0
        assert det(a) == 0.0

    def test_particular_solution(self, rng):
        a = rng.normal(size=(3, 6))
        x_true = rng.normal(size=6)
        b = a @ x_true
        x = solve_particular(a, b)
        assert np.abs(a @ x - b).max() < 1e-9


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_and_det_reject(self, bad):
        a = np.array([[1.0, bad], [0.0, 1.0]])
        for call in (lambda: solve(a, np.ones(2)), lambda: inverse(a), lambda: det(a)):
            with pytest.raises(ValueError, match="finite"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bilinear_form_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BilinearForm(np.full((2, 2), bad))

    @pytest.mark.parametrize("coeffs", [[1.0, np.nan, 1.0], [1.0, 1.0, -np.inf], [0.0, 1.0, 2.0]])
    def test_durand_kerner_rejects(self, coeffs):
        with pytest.raises(ValueError, match="finite coefficients and a nonzero leading"):
            durand_kerner(coeffs)

    def test_durand_kerner_non_finite_residual_does_not_converge(self):
        # the iteration overflows: the residual is not finite
        with pytest.raises(ConvergenceError) as exc:
            durand_kerner([1.0, 0.0, 1e200])
        assert not np.isfinite(exc.value.residual)

    def test_char_roots_rejects_a_nan_matrix(self):
        with pytest.raises(ValueError, match="finite"):
            char_roots(np.full((2, 2), np.nan))


def _outcome(fn, *args):
    """Result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return isinstance(a, tuple) and isinstance(b, tuple) and a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _square_stack(rng, count, k):
    """Seeded square matrices at scales 1e-3 .. 1e3: random, with a zero
    row, with dependent columns and with small integer entries."""
    a = rng.standard_normal((count, k, k)) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    a[1::4, rng.integers(k)] = 0.0
    if k > 1:
        a[2::4, :, 1] = 2.0 * a[2::4, :, 0]
    a[3::4] = np.round(3.0 * a[3::4] / np.abs(a[3::4]).max(axis=(1, 2), keepdims=True))
    return a


class TestStackedKernels:
    """``_solve`` (with ``_eliminate``), ``_faddeev_leverrier`` and
    ``_durand_kerner`` run whole stacks; ``solve``, ``det``, ``char_poly``
    and ``durand_kerner`` are their stacks of one."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_single_calls_keep_the_bits_of_the_single_matrix_loops(self, k):
        rng = np.random.default_rng(100 + k)
        for a in _square_stack(rng, 200, k):
            b = rng.standard_normal((k, 3))
            assert _same(_outcome(det, a), _outcome(single_matrix_det, a))
            assert _same(_outcome(solve, a, b), _outcome(single_matrix_solve, a, b))
            assert _same(_outcome(solve, a, b[:, 0]), _outcome(single_matrix_solve, a, b[:, 0]))
            assert _same(_faddeev_leverrier(a), single_matrix_faddeev_leverrier(a))
            if k <= 5:
                c = char_poly(a) * (1.0 if k % 2 else 1.5)  # also a leading 1.5
                assert _same(_outcome(durand_kerner, c),
                             _outcome(single_polynomial_durand_kerner, c))

    @pytest.mark.parametrize("roots", [[0.3, 0.3], [0.0, 0.0, 0.0], [1.0, 1.0 + 1e-9, -2.0],
                                       [0.5, 0.5, 0.5, 0.5], [1e3, -1e-3]])
    def test_durand_kerner_keeps_the_bits_on_multiple_roots(self, roots):
        c = np.poly(roots)
        assert _same(_outcome(durand_kerner, c), _outcome(single_polynomial_durand_kerner, c))

    def test_durand_kerner_keeps_the_error_of_a_non_finite_residual(self):
        c = [1.0, 0.0, 1e200]
        assert _same(_outcome(durand_kerner, c), _outcome(single_polynomial_durand_kerner, c))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 12])
    def test_members_have_the_bits_of_their_stack_of_one(self, k):
        rng = np.random.default_rng(200 + k)
        a, b = _square_stack(rng, 40, k), rng.standard_normal((40, k, 2))
        x, regular = _solve(a, b)
        coeffs = _faddeev_leverrier(a)
        for i in range(40):
            x1, regular1 = _solve(a[i][None], b[i][None])
            assert _same(x[i], x1[0]) and regular[i] == regular1[0]
            assert _same(coeffs[i], _faddeev_leverrier(a[i]))
        assert not regular.all() and regular.any()
        if k <= 5:
            # and, from degree 2, a polynomial whose iteration overflows
            overflow = [[1.0, 0.0, 1e200] + [0.0] * (k - 2)] if k > 1 else np.empty((0, 2))
            polys = np.concatenate([coeffs, overflow])
            roots, residual, converged = _durand_kerner(polys.astype(complex))
            for i, poly in enumerate(polys):
                r1, res1, conv1 = _durand_kerner(poly.astype(complex)[None])
                assert _same(roots[i], r1[0]) and _same(residual[i], res1[0])
                assert converged[i] == conv1[0]
            assert converged[:40].all() and not converged[40:].any()

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_against_numpy(self, k):
        rng = np.random.default_rng(300 + k)
        a, b = _square_stack(rng, 40, k), rng.standard_normal((40, k, 2))
        x, regular = _solve(a, b)
        for i in range(40):
            if regular[i]:
                want = np.linalg.solve(a[i], b[i])
                assert np.abs(x[i].T - want).max() <= 1e-9 * (1.0 + np.abs(want).max())
            else:
                assert np.linalg.matrix_rank(a[i]) < k and not x[i].any()
        assert regular.sum() >= 10
        coeffs = _faddeev_leverrier(a)
        for member, c in zip(a, coeffs):
            want = np.poly(member)
            scale = np.abs(member).max() ** np.arange(k + 1)
            assert np.abs(c - want).max() <= 1e-12 * (1.0 + np.abs(want) + scale).max()
        polys = coeffs[regular]
        roots, _, converged = _durand_kerner(polys.astype(complex))
        assert converged.all()
        for poly, got in zip(polys, roots):
            want = np.roots(poly)
            radius = 1.0 + np.abs(want).max()
            # match each numpy root to the nearest root of the iteration
            assert max(np.abs(got - w).min() for w in want) <= 1e-6 * radius


def _mixed_stack(seed, count=60, rows=5, cols=7):
    """Seeded stack of row matrices: full rank, rank deficient (products of
    random factors of lower rank) and all zero, at scales 1e-3 .. 1e3."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((count, rows, cols))
    for i in range(count):
        kind = i % 3
        if kind == 0:
            stack[i] = rng.standard_normal((rows, cols))
        elif kind == 1:
            k = int(rng.integers(1, rows))
            stack[i] = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        stack[i] *= 10.0 ** rng.uniform(-3, 3)
    return stack


def _ranked_stack(seed, rows=4, cols=6):
    """Members of ranks 0, 1, ..., rows (products of random factors of that
    rank), so that one member drops out at each pivot."""
    rng = np.random.default_rng(seed)
    return np.array([rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
                     for k in range(rows + 1)])


class TestDots:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 8, 17])
    def test_each_product_has_the_bits_of_the_1d_product(self, d):
        # contiguous rows, transposed (strided) rows and a broadcast stack
        # (N, 4, d) . (N, 1, d): each value is that of the 1-d a @ b on the
        # same vectors
        rng = np.random.default_rng(d)
        a, b = rng.standard_normal((2, 300, d))
        strided = rng.standard_normal((d, 300)).T
        for x, y in ((a, b), (strided, b), (a, strided)):
            want = np.array([u @ v for u, v in zip(x, y)])
            assert _dots(x, y).view(np.int64).tolist() == want.view(np.int64).tolist()
        rows, pivots = rng.standard_normal((50, 4, d)), rng.standard_normal((50, 1, d))
        want = np.array([[u @ p[0] for u in m] for m, p in zip(rows, pivots)])
        got = _dots(rows, pivots)
        assert got.shape == (50, 4)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_empty_stacks(self):
        assert _dots(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)
        assert _dots(np.zeros((0, 4, 5)), np.zeros((0, 1, 5))).shape == (0, 4)
        assert _dots(np.zeros((2, 0)), np.zeros((2, 0))).tolist() == [0.0, 0.0]

    def test_one_pair_gives_a_scalar(self):
        # catalog._sqrt takes its one-point math.sqrt path for it, which
        # raises for a negative number where a stack gets NaN
        v = np.array([0.6, 0.8, 0.5])
        assert np.ndim(_dots(v, v)) == 0
        with pytest.raises(ValueError):
            catalog._sqrt(1.0 - _dots(v, v))
        with np.errstate(invalid="ignore"):
            assert np.isnan(catalog._sqrt(1.0 - _dots(v[None], v[None]))).all()


class TestOrthonormalRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_numpy(self, seed):
        stack = _mixed_stack(seed)
        bases, ranks = orthonormal_rows(stack)
        assert bases.shape == stack.shape
        for member, basis, rank in zip(stack, bases, ranks):
            assert rank == np.linalg.matrix_rank(member)
            q = basis[:rank]
            assert np.abs(q @ q.T - np.eye(rank)).max(initial=0.0) <= 1e-14
            assert not basis[rank:].any()
            scale = max(np.abs(member).max(), 1e-300)
            assert np.abs(member - member @ q.T @ q).max() <= 1e-12 * scale

    def test_members_do_not_depend_on_the_stack(self):
        # the last two members: one at scale 1e6, and one whose third row is
        # independent by only 1e-8, of full rank against its own scale
        rng = np.random.default_rng(4)
        faint = rng.standard_normal((5, 7))
        faint[2:] = faint[:1] + faint[1:2] + 1e-8 * rng.standard_normal((3, 7))
        stack = np.concatenate([_mixed_stack(3), [1e6 * rng.standard_normal((5, 7)), faint]])
        bases, ranks = orthonormal_rows(stack)
        for member, basis, rank in zip(stack, bases, ranks):
            alone, rank_alone = orthonormal_rows(member[None])
            assert rank_alone[0] == rank and alone[0].tobytes() == basis.tobytes()

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match="stack"):
            orthonormal_rows(np.eye(3))

    @pytest.mark.parametrize("stack", [
        _mixed_stack(5),
        _mixed_stack(6, count=30, rows=4, cols=4),
        np.array([[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1e-13]], np.zeros((3, 3)),
                  [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]]),
        np.zeros((0, 3, 4)), np.zeros((2, 0, 3)), np.zeros((2, 3, 0)),
        np.random.default_rng(7).standard_normal((40, 4, 6)), _ranked_stack(8),
    ], ids=["random", "square", "rank-deficient", "no-members", "no-rows", "no-columns",
            "all-active", "one-drop-per-pivot"])
    def test_bits_of_the_deflating_routine(self, stack):
        # one flattened scale reduction, no deflation after the last pivot
        # and no masking at a pivot where every member is active keep every
        # bit of the routine that had none of them
        got, want = orthonormal_rows(stack), _oracles.deflating_orthonormal_rows(stack)
        assert got[0].shape == want[0].shape == stack.shape
        assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])

    def test_stack_kinds_of_the_mask_skip(self):
        # the two stacks above: every member active to the last pivot, and
        # one member leaving at each pivot
        assert orthonormal_rows(np.random.default_rng(7).standard_normal((40, 4, 6)))[1].tolist() \
            == [4] * 40
        assert orthonormal_rows(_ranked_stack(8))[1].tolist() == [0, 1, 2, 3, 4]


@pytest.fixture
def jacobi_passes(monkeypatch):
    """The Jacobi passes made while a test runs, as [caller, stack shape,
    rotations of its matrices, member counts of its other rotations].  Each
    (p, q) pair of each sweep rotates the columns and the rows of the
    matrices, views of one member-last working array; every further rotation
    is of an eigenvector accumulator, whose last axis counts its members."""
    import pseudoconformal.congruence
    import pseudoconformal.frames
    import pseudoconformal.hypersurface
    import pseudoconformal.lightlike
    import pseudoconformal.linalg as linalg

    passes, matrices = [], []
    original, rotate = linalg.jacobi_eigh, linalg._rotate_pair

    def counted(m, *args, **kwargs):
        passes.append([inspect.stack(0)[1].function, np.shape(m), 0, []])
        matrices.clear()
        return original(m, *args, **kwargs)

    def counted_rotate(x, p, q, c, s):
        if not matrices:  # a pair's first rotation is of the matrices' columns
            matrices.append(x.base)
        if np.shares_memory(x, matrices[0]):
            passes[-1][2] += 1
        else:
            passes[-1][3].append(x.shape[-1])
        rotate(x, p, q, c, s)

    for module in (pseudoconformal.congruence, pseudoconformal.frames,
                   pseudoconformal.hypersurface, pseudoconformal.lightlike, linalg):
        monkeypatch.setattr(module, "jacobi_eigh", counted)
    monkeypatch.setattr(linalg, "_rotate_pair", counted_rotate)
    return passes


class TestSpectraWithoutEigenvectors:
    """Passes whose callers read eigenvalues alone rotate no eigenvector
    accumulator, and lightlike's jet stack carries eigenvectors for its
    induced metrics only, not for their J^T J.  Every pass here rotates."""

    def test_classification(self, jacobi_passes):
        imm = catalog.build("timelike_hypersphere")
        survey(imm, [3, 3])
        classify_point(imm, [0.3, 0.7])
        signature(np.array([[1.0, 2.0], [2.0, -1.0]]))
        assert [(caller, shape) for caller, shape, _, _ in jacobi_passes] == [
            ("_stacked_spectra", (9, 2, 2)), ("_stacked_spectra", (1, 2, 2)),
            ("signature", (2, 2))]
        assert all(rotated and not others for _, _, rotated, others in jacobi_passes)

    def test_lightlike_passes(self, jacobi_passes, model4):
        imm = catalog.build("circle_wavefront")
        columns = _affinors(imm, parameter_grid(imm, [3, 3, 3])[1], model4, 1.0, None)
        assert not columns.failures
        _degeneracy_report(columns, 13)  # the grid's centre
        spectra, *operator_passes = jacobi_passes
        assert [(caller, shape) for caller, shape, _, _ in jacobi_passes] == [
            ("_stacked_spectra", (27, 3, 3)), ("_affinors", (27, 2, 2)),
            ("_degeneracy", (1, 3, 3))]
        # one accumulator rotation per pair and sweep, over the 27 metrics
        assert spectra[2] and spectra[3] == [27] * (spectra[2] // 2)
        assert all(rotated and not others for _, _, rotated, others in operator_passes)

    def test_congruence_passes(self, jacobi_passes, model4):
        cong = catalog.build("cone_normal_congruence", n=4)
        columns = _congruence_affinors(cong, parameter_grid(cong, [3, 3, 3])[1], model4)
        assert not columns.failures
        stratify(catalog.build("cone_normal_congruence"), np.array([0.1, 0.4]),
                 count=4)
        assert [(caller, shape) for caller, shape, _, _ in jacobi_passes] == [
            ("_congruence_affinors", (27, 2, 2)), ("_congruence_affinors", (1, 1, 1)),
            ("stratify", (36, 2, 2))]
        assert all(not others for _, _, _, others in jacobi_passes)
        assert jacobi_passes[0][2] and jacobi_passes[2][2]
