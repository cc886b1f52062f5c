import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import families, nomizu
from bergerconn.algebra import (
    Metric,
    MVec,
    adjoint_matrices,
    h_basis,
    standard_basis,
)
from bergerconn.config import TOL_EXACT, TOL_NUM
from bergerconn import spaces
from bergerconn.spaces import (
    Bilin,
    LinearSpace,
    RankGapError,
    _action_bound,
    _equivariance_residual,
    _first_row_actions,
    _invariant_basis_raw,
    _nullspace,
    _rowspace,
    _zero_weight_triples,
    check_fits_memory,
    invariant_bilinear_space,
    levi_civita_generic,
    metric_connection_space,
    skew_torsion_space,
)
from conftest import random_mvec

TOL = 1e-9

EXPECTED_INVARIANT = {1: 27, 2: 13, 3: 9, 4: 7}
EXPECTED_METRIC = {1: 9, 2: 7, 3: 5, 4: 3}
EXPECTED_SKEW = {1: 1, 2: 3, 3: 3, 4: 1}


class TestBilin:
    def test_zero_apply(self, rng):
        X, Y = random_mvec(rng, 2), random_mvec(rng, 2)
        out = Bilin.zero(2).apply(X, Y)
        assert np.abs(out.coords()).max() == 0

    def test_indicator_tensor(self):
        c = np.zeros((5, 5, 5))
        c[0, 1, 2] = 1.0
        alpha = Bilin(2, c)
        basis = standard_basis(2)
        out = alpha.apply(basis[0], basis[1])
        assert np.abs(out.coords() - np.eye(5)[2]).max() == 0

    def test_levi_civita_closed_value(self):
        # alpha_lc((0,i), (e1,0)) = (-(eps + 3/2) i e1, 0) at n = 2
        eps = -1.0
        alpha = families.alpha_lc(2, eps)
        X = MVec(2, np.zeros(2, dtype=complex), 1j)
        Y = MVec(2, np.array([1.0 + 0j, 0.0]), 0.0)
        out = alpha.apply(X, Y)
        assert np.allclose(out.z, -(eps + 1.5) * 1j * np.array([1.0, 0.0]))
        assert abs(out.a) < 1e-14

    def test_shape_check(self):
        with pytest.raises(ValueError):
            Bilin(2, np.zeros((3, 3, 3)))

    def test_cached_maps_are_read_only(self):
        # the named skew space holds the cached alpha_lc(2, -1) as its offset
        before = families.skew_direction_basis(2, -1.0).offset.coeffs.copy()
        with pytest.raises(ValueError):
            families.alpha_lc(2, -1.0).coeffs[0, 0, 0] += 1
        assert np.array_equal(families.skew_direction_basis(2, -1.0).offset.coeffs, before)


class TestLinearSpace:
    def test_rejects_dependent_basis(self):
        b = Bilin.zero(1)
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            LinearSpace(27, (Bilin(1, c), Bilin(1, c)))
        with pytest.raises(ValueError):
            LinearSpace(27, (b,))

    def test_projection_residual(self):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        sp = LinearSpace(27, (Bilin(1, c),))
        assert sp.projection_residual(Bilin(1, 2.0 * c)) < 1e-14
        c2 = np.zeros((3, 3, 3))
        c2[1, 1, 1] = 3.0
        assert abs(sp.projection_residual(Bilin(1, c2)) - 3.0) < 1e-12

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (3, 0.5), (5, -2.0)])
    def test_element_is_offset_plus_combination(self, n, eps, rng):
        for sp in (metric_connection_space(n, eps), skew_torsion_space(n, eps)):
            x = rng.uniform(-2, 2, size=sp.dim)
            expected = sum(c * b.coeffs for c, b in zip(x, sp.basis))
            if sp.offset is not None:
                expected = expected + sp.offset.coeffs
            assert np.abs(sp.element(x).coeffs - expected).max() < 1e-13

    def test_element_refuses_wrong_coefficient_count(self):
        sp = metric_connection_space(4, -1.0)
        with pytest.raises(ValueError):
            sp.element(np.ones(sp.dim + 1))


class TestStackedBasis:
    """matrix() is the basis stacked once at construction, read-only."""

    def test_writing_into_the_stack_raises(self):
        M = skew_torsion_space(3, -2.0).matrix()
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        with pytest.raises(ValueError):
            M += 1.0

    def test_built_once(self):
        sp = skew_torsion_space(3, -2.0)
        assert sp.matrix() is sp.matrix()
        assert np.array_equal(sp.matrix(), np.array([b.coeffs.ravel() for b in sp.basis]))

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, -1.5), (3, -2.0), (4, 1.0), (6, -3.0)])
    def test_element_coefficients_unchanged(self, n, eps, rng):
        # bit for bit the coefficients of a stack rebuilt at every call
        for sp in (metric_connection_space(n, eps), skew_torsion_space(n, eps)):
            x = rng.uniform(-3, 3, size=sp.dim)
            d = 2 * n + 1
            rebuilt = (x @ np.array([b.coeffs.ravel() for b in sp.basis])).reshape(d, d, d)
            if sp.offset is not None:
                rebuilt = rebuilt + sp.offset.coeffs
            assert np.array_equal(sp.element(x).coeffs, rebuilt)


class TestStackedViolations:
    """The violation maps act on a stack of maps as on each map alone."""

    @pytest.mark.parametrize("n,eps", [(1, 2.0), (3, -0.5)])
    def test_match_per_map_formulas(self, n, eps, rng):
        d = 2 * n + 1
        G = Metric(n, eps).gram()
        stack = rng.standard_normal((4, d, d, d))
        metric = spaces._metric_violation(stack, G)
        skew = spaces._skew_violation(stack, G)
        for c, m, k in zip(stack, metric, skew):
            assert np.abs(m - (np.einsum("ijk,kz->ijz", c, G)
                               + np.einsum("izk,kj->ijz", c, G))).max() < 1e-12
            om = np.einsum("ijk,kl->ijl", c - c.transpose(1, 0, 2), G)
            assert np.abs(k - (om + om.transpose(0, 2, 1))).max() < 1e-12


class TestInvariantSpace:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dimension(self, n):
        assert invariant_bilinear_space(n).dim == EXPECTED_INVARIANT[n]

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_dims_beyond_six(self, n):
        dims = (invariant_bilinear_space(n).dim, metric_connection_space(n, -1.0).dim,
                skew_torsion_space(n, -1.0).dim)
        assert dims == (7, 3, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equivariance_residual(self, n):
        A = adjoint_matrices(n)
        for b in invariant_bilinear_space(n).basis:
            c = b.coeffs
            for Ar in A:
                resid = (
                    np.einsum("mk,ijk->ijm", Ar, c)
                    - np.einsum("pi,pjm->ijm", Ar, c)
                    - np.einsum("pj,ipm->ijm", Ar, c)
                )
                assert np.abs(resid).max() < TOL

    @pytest.mark.parametrize("n,count", [(2, 25), (3, 31), (4, 25), (5, 31), (8, 49)])
    def test_zero_weight_columns(self, n, count):
        U, (i, j, k) = _zero_weight_triples(n)
        assert len(i) == len(j) == len(k) == count
        assert np.abs(U.conj().T @ U - np.eye(2 * n + 1)).max() < 1e-12

    def test_refuses_n_beyond_memory(self):
        # about 1250 d^3 bytes: some 10 TB at n = 1000
        with pytest.raises(ValueError, match="physical memory"):
            invariant_bilinear_space(1000)

    def test_memory_check_skipped_without_sysconf(self, monkeypatch):
        # platforms without os.sysconf (Windows) build spaces unchecked
        monkeypatch.delattr(os, "sysconf")
        check_fits_memory(1000)
        assert _invariant_basis_raw(1).shape == (27, 27)

    def test_memory_check_skipped_for_unknown_name(self, monkeypatch):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        check_fits_memory(1000)

    @pytest.mark.parametrize("span", [_nullspace, _rowspace])
    def test_rank_without_a_gap_is_refused(self, span):
        # 1e-6 is kept and 1e-9 discarded, a gap of 1e3 below TOL_GAP
        with pytest.raises(RankGapError):
            span(np.diag([1.0, 1e-6, 1e-9]))

    def test_nullspace_of_wide_matrix_is_complete(self):
        null = _nullspace(np.array([[1.0, 1.0, 0.0]]))
        assert null.shape == (2, 3)
        assert np.abs(null @ [1.0, 1.0, 0.0]).max() < 1e-15
        assert np.abs(null @ null.T - np.eye(2)).max() < 1e-15


def _full_residual(maps, A):
    """Largest entry of the equivariance residual of every map under every
    action, by plain einsums over all slots (no support restriction)."""
    return float(np.abs(
        np.einsum("amk,rijk->raijm", A, maps)
        - np.einsum("api,rpjm->raijm", A, maps)
        - np.einsum("apj,ripm->raijm", A, maps)
    ).max())


def _stated_combinations(n):
    """For each h-basis element, its combination of brackets of the
    first-row generators as the _invariant_basis_raw docstring states it:
    a list of (c, a, b) for sum c [a, b], or (1, g, None) for g itself.
    X[j] = E_1j - E_j1 and Y[j] = i(E_1j + E_j1), indices from 0."""
    A = adjoint_matrices(n)
    X, Y = {}, {}
    for r, h in enumerate(h_basis(n)):
        if h.B[0, 1:].any():
            j = int(np.flatnonzero(h.B[0])[0])
            (X if h.B[0, j].real else Y)[j] = A[r]
    combos = []
    for h in h_basis(n):
        B = h.B
        off = [(i, j) for i, j in zip(*np.nonzero(B)) if i < j]
        if not off:  # Cartan i(E_kk - E_(k+1)(k+1))
            k = int(np.flatnonzero(np.diag(B))[0])
            terms = [(0.5, X[k + 1], Y[k + 1])] + ([(-0.5, X[k], Y[k])] if k else [])
        else:
            (i, j), = off
            Z = X if B[i, j].real else Y
            terms = [(1.0, Z[j], None)] if i == 0 else [(-1.0, X[i], Z[j])]
        combos.append(terms)
    return combos, X, Y


class TestCertifiedCheck:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_generators_are_the_first_row(self, n):
        gamma = _first_row_actions(n)
        _, X, Y = _stated_combinations(n)
        assert gamma.shape == (2 * (n - 1), 2 * n + 1, 2 * n + 1)
        assert np.array_equal(gamma, np.array([g for j in range(1, n) for g in (X[j], Y[j])]))
        for A in gamma:
            assert np.count_nonzero(A.any(axis=0) | A.any(axis=1)) == 4

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_basis_element_is_a_stated_bracket(self, n):
        combos, _, _ = _stated_combinations(n)
        A = adjoint_matrices(n)
        assert len(combos) == len(A) == n * n - 1
        for Ar, terms in zip(A, combos):
            assert sum(abs(c) for c, _, _ in terms) <= 1
            built = sum(c * (a if b is None else a @ b - b @ a) for c, a, b in terms)
            assert np.abs(built - Ar).max() <= TOL_EXACT
        assert _action_bound(_first_row_actions(n)) == 3.0

    def test_action_bound_of_no_actions(self):
        assert _first_row_actions(1).shape == (0, 3, 3)
        assert _action_bound(_first_row_actions(1)) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_kappa_bounds_the_operator_norm(self, n, rng):
        # the max-entry operator norm of rho(A) on d^3 tensors, from its full
        # matrix, is at most kappa_A, for Gamma and for random actions
        d = 2 * n + 1
        unit = np.eye(d**3).reshape(-1, d, d, d)
        for A in list(_first_row_actions(n)) + list(rng.standard_normal((3, d, d))):
            R = (np.einsum("mk,rijk->rijm", A, unit)
                 - np.einsum("pi,rpjm->rijm", A, unit)
                 - np.einsum("pj,ripm->rijm", A, unit)).reshape(d**3, -1)
            assert np.abs(R).sum(axis=0).max() <= _action_bound(A[None]) * (1 + 1e-15)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(2, 8),
        perturbed=st.booleans(),
        log_scale=st.floats(-12, -6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_full_residual_within_certified_bound(self, n, perturbed, log_scale, seed):
        rng = np.random.default_rng(seed)
        d = 2 * n + 1
        if perturbed:
            base = invariant_bilinear_space(n).matrix().reshape(-1, d, d, d)
            maps = base + 10**log_scale * rng.standard_normal(base.shape)
        else:
            maps = rng.standard_normal((2, d, d, d))
        gamma = _first_row_actions(n)
        bound = 2 * _action_bound(gamma) * _equivariance_residual(maps, gamma)
        assert _full_residual(maps, adjoint_matrices(n)) <= bound

    @pytest.mark.parametrize("n", range(2, 9))
    def test_perturbation_trips_the_check(self, n):
        d = 2 * n + 1
        base = invariant_bilinear_space(n).matrix().reshape(-1, d, d, d)
        maps = base + 1e-6 * np.random.default_rng(n).standard_normal(base.shape)
        gamma = _first_row_actions(n)
        assert 2 * _action_bound(gamma) * _equivariance_residual(base, gamma) <= TOL_NUM
        assert 2 * _action_bound(gamma) * _equivariance_residual(maps, gamma) > TOL_NUM

    def test_one_debug_record_per_build(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bergerconn.spaces")
        for n, columns in [(1, 27), (2, 25), (3, 31), (8, 49), (4, 25)]:
            caplog.clear()
            _invariant_basis_raw(n)
            (rec,) = [r for r in caplog.records if r.name == "bergerconn.spaces"]
            assert rec.equivariance["columns"] == columns
            assert f"{columns} columns" in rec.getMessage()
        assert rec.levelno == logging.DEBUG
        info = rec.equivariance
        assert (info["n"], info["generators"], info["kappa"]) == (4, 6, 3.0)
        assert info["bound"] == 6 * info["residual"] <= TOL_NUM == info["tol_num"]
        assert "margin" in rec.getMessage()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_failed_check_is_refused(self, n, caplog, monkeypatch):
        # solutions moved 1e-6 off the kernel of Gamma fail 2 kappa delta <= TOL_NUM
        root = spaces._root_nullspace

        def perturbed(U, cols, actions):
            null = root(U, cols, actions)
            return null + 1e-6 * np.random.default_rng(n).standard_normal(null.shape)

        monkeypatch.setattr(spaces, "_root_nullspace", perturbed)
        caplog.set_level(logging.DEBUG, logger="bergerconn.spaces")
        with pytest.raises(RankGapError, match="certified check"):
            _invariant_basis_raw(n)
        (rec,) = [r for r in caplog.records if r.name == "bergerconn.spaces"]
        assert rec.equivariance["bound"] > TOL_NUM


class TestMetricSpace:
    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, 2.0), (3, -0.5), (4, -1.0)])
    def test_dimension(self, n, eps):
        assert metric_connection_space(n, eps).dim == EXPECTED_METRIC[n]

    def test_contained_in_invariant(self):
        inv = invariant_bilinear_space(2)
        for b in metric_connection_space(2, -2.0).basis:
            assert inv.projection_residual(b) < TOL

    @pytest.mark.parametrize("eps", [-3.0, -1.0, -0.1, 0.5, 2.0])
    def test_dims_stable_under_eps(self, eps):
        assert metric_connection_space(2, eps).dim == 7
        assert skew_torsion_space(2, eps).dim == 3

    def test_compatibility(self):
        g = Metric(3, 1.5)
        for b in metric_connection_space(3, 1.5).basis:
            assert nomizu.is_metric(b, g)


class TestSkewSpace:
    @pytest.mark.parametrize("n,eps", [(1, -2.0), (2, 0.7), (3, -1.0), (4, 1.0)])
    def test_direction_dimension(self, n, eps):
        assert skew_torsion_space(n, eps).dim == EXPECTED_SKEW[n]

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (3, 2.0)])
    def test_members_have_skew_torsion(self, n, eps, rng):
        sp = skew_torsion_space(n, eps)
        g = Metric(n, eps)
        for _ in range(5):
            alpha = sp.element(rng.uniform(-2, 2, size=sp.dim))
            om = nomizu.torsion_form(alpha, g)
            assert nomizu.is_skew(om)

    def test_offset_is_levi_civita(self):
        sp = skew_torsion_space(2, -1.0)
        assert np.array_equal(sp.offset.coeffs, levi_civita_generic(2, -1.0).coeffs)


class TestLeviCivitaGeneric:
    @pytest.mark.parametrize("n,eps", [(1, 3.0), (2, -1.0), (3, 0.5), (4, -2.5)])
    def test_matches_closed_form(self, n, eps):
        lc = levi_civita_generic(n, eps)
        assert np.abs(lc.coeffs - families.alpha_lc(n, eps).coeffs).max() < 1e-10

    def test_torsion_free(self):
        lc = levi_civita_generic(2, 1.3)
        assert np.abs(nomizu.torsion(lc).coeffs).max() < TOL

    def test_n1_aw_coefficient(self):
        # the a*w coefficient is -(eps + 2) = -5 at n = 1, eps = 3
        lc = levi_civita_generic(1, 3.0)
        X = MVec(1, np.zeros(1, dtype=complex), 1j)
        Y = MVec(1, np.array([1.0 + 0j]), 0.0)
        out = lc.apply(X, Y)
        assert np.allclose(out.z, -5.0 * 1j * np.array([1.0]))
