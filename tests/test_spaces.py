import logging
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import cli, families, nomizu
from bergerconn.algebra import (
    Metric,
    adjoint_matrices,
    h_basis,
)
from bergerconn.config import TOL_EXACT, TOL_GAP, TOL_NUM
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
from conftest import assert_verify_passes, gapless_torsion_space, random_vector
from reference import apply, coords
from test_space_pins import levi_civita_ref

TOL = 1e-9

EXPECTED_INVARIANT = {1: 27, 2: 13, 3: 9, 4: 7}
EXPECTED_METRIC = {1: 9, 2: 7, 3: 5, 4: 3}
EXPECTED_SKEW = {1: 1, 2: 3, 3: 3, 4: 1}


class TestBilin:
    def test_zero_apply(self, rng):
        x, y = random_vector(rng, 2), random_vector(rng, 2)
        out = apply(Bilin(2, np.zeros((5, 5, 5))).coeffs, x, y)
        assert np.abs(out).max() == 0

    def test_indicator_tensor(self):
        c = np.zeros((5, 5, 5))
        c[0, 1, 2] = 1.0
        alpha = Bilin(2, c)
        basis = np.eye(5)
        out = apply(alpha.coeffs, basis[0], basis[1])
        assert np.abs(out - basis[2]).max() == 0

    def test_levi_civita_closed_value(self):
        # alpha_lc((0,i), (e1,0)) = (-(eps + 3/2) i e1, 0) at n = 2
        eps = -1.0
        alpha = families.alpha_lc(2, eps)
        x, y = np.eye(5)[-1], coords([1.0, 0.0])
        out = apply(alpha.coeffs, x, y)
        assert np.allclose(out, coords(-(eps + 1.5) * 1j * np.array([1.0, 0.0])))

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
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            LinearSpace(np.stack([c, c]))
        with pytest.raises(ValueError):
            LinearSpace(np.zeros((1, 3, 3, 3)))

    def test_independence_is_decided_at_any_scale(self, rng):
        # the named family at n = 3 has a direction of size |eps| beside two
        # of size 1: independent maps, however far apart their sizes
        for eps in (1e9, -1e9, 1e10, -1e10):
            assert families.skew_direction_basis(3, eps).dim == 3
        a, b = rng.standard_normal((2, 5, 5, 5))
        assert LinearSpace(np.stack([1e-6 * a, 1e12 * b])).dim == 2
        for scale in (1e-6, 1e12):
            with pytest.raises(ValueError, match="not linearly independent"):
                LinearSpace(scale * np.stack([a, b, a - 2 * b]))
            with pytest.raises(ValueError, match="not linearly independent"):
                LinearSpace(np.stack([scale * a, np.zeros_like(a)]))

    @pytest.mark.parametrize("shape", [(3, 3, 3), (1, 4, 4, 4), (1, 3, 3, 5), (2, 27), (1, 1, 3, 3, 3)])
    def test_rejects_maps_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(dim, d, d, d) with d odd, got {shape}")):
            LinearSpace(np.ones(shape))

    def test_rejects_mixed_n(self):
        one, two = np.ones((1, 3, 3, 3)), Bilin(2, np.ones((5, 5, 5)))
        with pytest.raises(ValueError, match="offset of n = 2 on maps of n = 1"):
            LinearSpace(one, offset=two)
        with pytest.raises(ValueError, match="offset of n = 2 on maps of n = 1"):
            LinearSpace(np.zeros((0, 3, 3, 3)), offset=two)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_maps(self, bad):
        maps = np.eye(27).reshape(27, 3, 3, 3)[:2].copy()
        maps[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match="maps must be finite"):
            LinearSpace(maps)

    def test_empty_basis_matrix_has_ambient_width(self):
        sp = LinearSpace(np.zeros((0, 3, 3, 3)), offset=Bilin(1, np.ones((3, 3, 3))))
        assert sp.matrix().shape == (0, 27)
        assert sp.elements(np.zeros((2, 0))).shape == (2, 3, 3, 3)

    def test_projection_residual(self):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        sp = LinearSpace(c[None])
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

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, -1.5), (3, 0.5), (5, -2.0)])
    def test_elements_are_stacked_elements(self, n, eps, rng):
        for sp in (metric_connection_space(n, eps), skew_torsion_space(n, eps)):
            X = rng.uniform(-2, 2, size=(4, sp.dim))
            stack = sp.elements(X)
            assert stack.shape == (4,) + (2 * n + 1,) * 3
            for x, c in zip(X, stack):
                assert c.tobytes() == sp.element(x).coeffs.tobytes()
            assert sp.elements(X[:0]).shape == (0,) + (2 * n + 1,) * 3

    def test_elements_refuse_a_non_finite_member(self):
        # one non-finite row refuses the whole stack, as Bilin refuses one map
        sp = skew_torsion_space(2, -1.5)
        X = np.ones((3, sp.dim))
        X[1, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            sp.elements(X)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            sp.element(X[1])


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

    def test_one_read_only_stack(self):
        given = np.eye(27).reshape(27, 3, 3, 3)[:4].copy()
        sp = LinearSpace(given)
        given[0, 0, 0, 0] = 5.0  # the space keeps its own copy
        assert sp.maps[0, 0, 0, 0] == 1.0
        assert np.shares_memory(sp.matrix(), sp.maps)
        with pytest.raises(ValueError):
            sp.maps[0, 0, 0, 0] = 2.0

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (4, 1.0)])
    def test_basis_reads_the_stack(self, n, eps):
        sp = skew_torsion_space(n, eps)
        assert sp.basis is sp.basis
        assert len(sp.basis) == sp.dim
        for b, c in zip(sp.basis, sp.maps):
            assert b.n == n
            assert np.array_equal(b.coeffs, c)
            with pytest.raises(ValueError):
                b.coeffs[0, 0, 0] = 1.0

    def test_stack_held_once(self):
        # the space copies the r maps once; the independence SVD works in
        # LAPACK's own buffers, which tracemalloc does not see
        n = 10
        d = 2 * n + 1
        maps = np.array(invariant_bilinear_space(n).maps)
        size = maps.nbytes
        assert size == len(maps) * d**3 * 8
        tracemalloc.start()
        try:
            LinearSpace(maps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * size

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


#: eps = +-10^k, k = -10..10: the extreme-eps grid of ROADMAP item 4
EXTREME_EPS = [s * 10.0**k for k in range(-10, 11) for s in (1, -1)]


def _exact_product(x, g):
    """p, e with p + e = x * g exactly, p = fl(x * g) (Dekker's product,
    exact where nothing overflows or underflows)."""
    def halves(a):
        c = 134217729.0 * a  # 2^27 + 1 splits a into two 26-bit halves
        hi = c - (c - a)
        return hi, a - hi

    p = x * g
    (xh, xl), (gh, gl) = halves(x), halves(g)
    return p, ((xh * gh - p) + xh * gl + xl * gh) + xl * gl


class TestSolvedSpacesHeld:
    """The three spaces spaces solves are held by LinearSpace._holding: their
    solves decide the rank once, and no rescale decides one again."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rescaled_spaces_decide_no_rank(self, n, monkeypatch, cold_spaces):
        base = skew_torsion_space(n, -1.0)  # and the eps = -1 metric space

        def refused(*args, **kwargs):
            raise AssertionError("a rescaled space ran a QR or an SVD")

        monkeypatch.setattr(np.linalg, "qr", refused)
        monkeypatch.setattr(np.linalg, "svd", refused)
        _, met, skw = cli.expected_dims(n)
        for eps in cli.EPS_SWEEP:
            assert metric_connection_space(n, eps).dim == met
            assert skew_torsion_space(n, eps).dim == skw
        assert skew_torsion_space(n, -1.0) is base

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_rank_decision_per_solve(self, n, monkeypatch, cold_spaces):
        counts = {"decisions": 0, "solves": 0}

        def counted(key, f):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spaces, "_guarded_rank", counted("decisions", spaces._guarded_rank))
        for solve in ("_zero_weight_triples", "_nullspace", "_rowspace"):
            monkeypatch.setattr(spaces, solve, counted("solves", getattr(spaces, solve)))
        seen = []
        for build, args in ((invariant_bilinear_space, (n,)), (metric_connection_space, (n, -1.0)),
                            (skew_torsion_space, (n, -1.0))):
            counts.update(decisions=0, solves=0)
            build(*args)
            assert counts["decisions"] == counts["solves"]
            seen.append(counts["solves"])
        # the weights, the root nullspace and the real span; one nullspace each
        assert seen == [0 if n == 1 else 3, 1, 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rescale_within_one_rounding(self, n):
        # maps_eps * diag(G_eps) is B' of _holding's docstring: within one
        # rounding of the eps = -1 maps B in every entry, |B' - B| <= u |B|,
        # the product formed exactly
        u = np.finfo(float).eps / 2
        dims = cli.expected_dims(n)
        for eps in EXTREME_EPS:
            g = Metric(n, eps).gram().diagonal()
            for build, dim in ((metric_connection_space, dims[1]),
                               (skew_torsion_space, dims[2])):
                space, base = build(n, eps), build(n, -1.0).maps
                assert space.dim == dim, f"{build.__name__}({n}, {eps})"
                p, e = _exact_product(space.maps, g)
                # p is within a factor 2 of base, so p - base is exact; the
                # sum with e rounds once more, hence the 1 + 2u
                off = (p - base) + e
                assert (np.abs(off) <= u * (1 + 2 * u) * np.abs(base)).all(), (
                    f"{build.__name__}({n}, {eps})")

    def test_holding_keeps_the_stack_and_its_checks(self):
        fresh = np.eye(27).reshape(27, 3, 3, 3)[:4].copy()
        held = LinearSpace._holding(fresh)
        assert held.maps is fresh and not fresh.flags.writeable
        assert np.shares_memory(held.matrix(), fresh) and held.n == 1 and held.dim == 4
        with pytest.raises(ValueError, match="maps must have shape"):
            LinearSpace._holding(np.ones((1, 4, 4, 4)))
        with pytest.raises(ValueError, match="offset of n = 2 on maps of n = 1"):
            LinearSpace._holding(np.ones((1, 3, 3, 3)), Bilin(2, np.ones((5, 5, 5))))
        bad = np.ones((1, 3, 3, 3))
        bad[0, 1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="maps must be finite"):
            LinearSpace._holding(bad)


class TestStackedViolations:
    """The violation maps act on a stack of maps as on each map alone; the
    skew violation lowers by the identity Gram of eps = -1, where it is
    solved."""

    @pytest.mark.parametrize("n,eps", [(1, 2.0), (3, -0.5)])
    def test_match_per_map_formulas(self, n, eps, rng):
        d = 2 * n + 1
        G = Metric(n, eps).gram()
        stack = rng.standard_normal((4, d, d, d))
        metric = spaces._metric_violation(stack, G)
        skew = spaces._skew_violation(stack)
        for c, m, k in zip(stack, metric, skew):
            assert np.abs(m - (np.einsum("ijk,kz->ijz", c, G)
                               + np.einsum("izk,kj->ijz", c, G))).max() < 1e-12
            om = c - c.transpose(1, 0, 2)
            assert np.abs(k - (om + om.transpose(0, 2, 1))).max() < 1e-12


class TestInvariantSpace:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dimension(self, n):
        assert invariant_bilinear_space(n).dim == EXPECTED_INVARIANT[n]

    @pytest.mark.parametrize("build", [
        invariant_bilinear_space,
        lambda n: metric_connection_space(n, -1.0),
        lambda n: skew_torsion_space(n, -1.0),
    ])
    def test_n_below_one_refused(self, build):
        # the eps = -1 solves build no Metric, so the invariant space checks n
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            build(0)

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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exactly_zero_off_the_support(self, n):
        # each weight-zero column has at most 8 standard entries, and the
        # basis is built on their union alone: 49, 85, then 12n + 1 entries
        on = _invariant_basis_raw(n).any(axis=0)
        assert np.count_nonzero(on) == {2: 49, 3: 85}.get(n, 12 * n + 1)
        for eps in (-1.0, 2.0):
            for sp in (metric_connection_space(n, eps), skew_torsion_space(n, eps)):
                assert not sp.matrix()[:, ~on].any()

    @pytest.mark.parametrize("n,count", [(2, 25), (3, 31), (4, 25), (5, 31), (8, 49)])
    def test_zero_weight_columns(self, n, count):
        U, (i, j, k) = _zero_weight_triples(n)
        assert len(i) == len(j) == len(k) == count
        assert np.abs(U.conj().T @ U - np.eye(2 * n + 1)).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_zero_weight_triples_match_a_sorted_split(self, n):
        # the weights sorted in descending order and split as singular values
        U, cols = _zero_weight_triples(n)
        diagonal = [r for r, B in enumerate(h_basis(n)) if np.array_equal(B, np.diag(np.diag(B)))]
        cartan = adjoint_matrices(n)[diagonal]
        H = np.tensordot(np.random.default_rng(2718).standard_normal(len(cartan)), cartan, 1)
        lam, ref_U = np.linalg.eigh(1j * H)
        W = np.abs(lam[None, None, :] - lam[:, None, None] - lam[None, :, None])
        w = np.sort(W, axis=None)[::-1]
        ref = np.nonzero(W <= w[spaces._guarded_rank(w)[0]])
        assert np.array_equal(U, ref_U)
        assert len(cols) == 3 and all(np.array_equal(c, r) for c, r in zip(cols, ref))

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

    @pytest.mark.parametrize("s", [[3.0, 2.0, 1e-12, 0.0], [1.0, 1e-3], [1.0, 1e-6, 1e-9],
                                   [0.0, 0.0], [], [5.0]])
    def test_rank_read_in_any_order(self, s, rng):
        # the masked read of shuffled values decides as the descending read
        s = np.array(s)
        shuffled = rng.permutation(s)
        try:
            expected = spaces._guarded_rank(s)
        except RankGapError:
            with pytest.raises(RankGapError):
                spaces._guarded_rank(shuffled, descending=False)
        else:
            assert spaces._guarded_rank(shuffled, descending=False) == expected

    def test_nullspace_of_wide_matrix_is_complete(self):
        null = _nullspace(np.array([[1.0, 1.0, 0.0]]))
        assert null.shape == (2, 3)
        assert np.abs(null @ [1.0, 1.0, 0.0]).max() < 1e-15
        assert np.abs(null @ null.T - np.eye(2)).max() < 1e-15

    def test_nullspace_of_tall_matrix_is_the_svds(self, monkeypatch, cold_spaces):
        # a tall M goes through its R first; every solve of n = 1..10 returns
        # byte for byte the rows of the thin SVD of M itself
        solves = []

        def recorded(M):
            null = _nullspace(M)
            solves.append((M, null))
            return null

        monkeypatch.setattr(spaces, "_nullspace", recorded)
        for n in range(1, 11):
            skew_torsion_space(n, -1.0)
        assert len(solves) == 2 + 3 * 9
        for M, null in solves:
            assert M.shape[0] >= M.shape[1]
            _, s, vt = np.linalg.svd(M, full_matrices=False)
            expected = vt[spaces._guarded_rank(s)[0]:].conj()
            assert null.shape == expected.shape and null.dtype == expected.dtype
            assert null.tobytes() == expected.tobytes(), M.shape


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
    for r, B in enumerate(h_basis(n)):
        if B[0, 1:].any():
            j = int(np.flatnonzero(B[0])[0])
            (X if B[0, j].real else Y)[j] = A[r]
    combos = []
    for B in h_basis(n):
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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sparse_residual_matches_full(self, n):
        # the terms are summed in another order, so the residual of the
        # basis, which is at rounding level, is compared on the terms' scale
        rng = np.random.default_rng(n)
        d = 2 * n + 1
        gamma = _first_row_actions(n)
        base = _invariant_basis_raw(n).reshape(-1, d, d, d)
        off = ~base.any(axis=0)
        for maps in (base, rng.standard_normal((2, d, d, d)),
                     base + 1e-7 * off * rng.standard_normal(base.shape)):
            full = _full_residual(maps, gamma)
            scale = max(full, _action_bound(gamma) * np.abs(maps).max())
            assert abs(_equivariance_residual(maps, gamma) - full) <= 1e-12 * scale
        assert _full_residual(maps, gamma) > 1e-8

    def test_residual_without_actions_is_zero(self, rng):
        gamma = _first_row_actions(1)
        assert _equivariance_residual(_invariant_basis_raw(1).reshape(-1, 3, 3, 3), gamma) == 0.0
        assert _equivariance_residual(rng.standard_normal((2, 3, 3, 3)), gamma) == 0.0

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
        for n, columns, support in [(1, 27, 27), (2, 25, 49), (3, 31, 85), (8, 49, 97),
                                    (4, 25, 49)]:
            caplog.clear()
            _invariant_basis_raw(n)
            (rec,) = [r for r in caplog.records if r.name == "bergerconn.spaces"]
            assert rec.equivariance["columns"] == columns
            assert rec.equivariance["support"] == support
            assert f"{columns} columns, support {support}," in rec.getMessage()
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

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("eps", EXTREME_EPS)
    def test_right_dimension_or_refused(self, n, eps):
        # the spaces at extreme eps have the paper's dimension or are refused;
        # a clean gap must never hand back a wrong one
        _, met, skw = cli.expected_dims(n)
        for build, dim in ((metric_connection_space, met), (skew_torsion_space, skw)):
            try:
                got = build(n, eps).dim
            except (ValueError, RankGapError):
                continue
            assert got == dim, f"{build.__name__}({n}, {eps})"


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
            assert nomizu.skew_residual(om) <= TOL_NUM

    def test_offset_is_levi_civita(self):
        sp = skew_torsion_space(2, -1.0)
        assert np.array_equal(sp.offset.coeffs, levi_civita_generic(2, -1.0).coeffs)


class TestLeviCivitaGeneric:
    @pytest.mark.parametrize("n,eps", [(1, 3.0), (2, -1.0), (3, 0.5), (4, -2.5)])
    def test_matches_closed_form(self, n, eps):
        assert_verify_passes(n, eps, [])

    def test_closed_form_at_every_scale(self):
        # the Koszul sum cancels exactly where the closed form has zeros, so
        # it stays within rounding of it from |eps| = 1e-10 to 1e10
        for n in range(1, 7):
            for eps in (s * 10.0**k for k in range(-10, 11) for s in (1, -1)):
                closed = families.alpha_lc(n, eps).coeffs
                got = levi_civita_generic(n, eps).coeffs
                assert np.abs(got - closed).max() <= 1e-15 * np.abs(closed).max(), (n, eps)

    def test_torsion_free(self):
        lc = levi_civita_generic(2, 1.3)
        assert np.abs(nomizu.torsion(lc).coeffs).max() < TOL

    def test_torsion_rank_without_a_gap_is_refused(self):
        # the reference least-squares solve decides the rank on its own
        # singular values: 1.6e-7 is kept and 1.4e-10 discarded, a gap of
        # about 1e3 below TOL_GAP, which the solve's default cutoff alone
        # would take as full rank
        space = gapless_torsion_space(4)
        d = 9
        torsion = (space.matrix().reshape(-1, d, d, d)
                   - space.matrix().reshape(-1, d, d, d).swapaxes(1, 2)).reshape(3, -1)
        s = np.linalg.svd(torsion, compute_uv=False)
        assert s[2] > np.finfo(float).eps * d**3 * s[0]
        with pytest.raises(RankGapError, match="gap") as exc:
            levi_civita_ref(4, -1.0, space)
        gap = float(re.search(r"gap (\S+)", str(exc.value)).group(1))
        assert gap == pytest.approx(s[1] / s[2], rel=1e-2)
        assert gap < TOL_GAP

    def test_n1_aw_coefficient(self):
        # the a*w coefficient is -(eps + 2) = -5 at n = 1, eps = 3
        lc = levi_civita_generic(1, 3.0)
        out = apply(lc.coeffs, np.eye(3)[-1], coords([1.0]))
        assert np.allclose(out, coords(-5.0 * 1j * np.array([1.0])))
