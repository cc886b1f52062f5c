import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import families, nomizu
from bergerconn.config import TOL_NUM
from bergerconn.algebra import (
    Metric,
    standard_basis,
    structure_tensors,
)
from bergerconn.nomizu import (
    Rank2Tensor,
    curvature,
    einstein_defect,
    ricci,
    s_tensor,
    sym,
    torsion,
    torsion_form,
)
from bergerconn.spaces import BYTES_PER_CUBE, Bilin
from conftest import assert_verify_passes, members, random_vector
from reference import (alpha_metric, apply, curvature_terms, is_metric, metric,
                       orthonormal_scales, scalar)

TOL = 1e-9


class TestTorsion:
    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, 0.5), (4, -2.0)])
    def test_levi_civita_torsion_free(self, n, eps):
        assert_verify_passes(n, eps, [])

    def test_symmetric_map_leaves_bracket_term(self, rng):
        n = 2
        c = rng.standard_normal((5, 5, 5))
        sym_map = Bilin(n, 0.5 * (c + c.transpose(1, 0, 2)))
        Cm, _ = structure_tensors(n)
        assert np.abs(torsion(sym_map).coeffs + Cm).max() < 1e-12

    def test_matches_closed_form(self):
        n, eps = 4, -1.0
        params = families.FamilyParams("general_n", q=2.0, t=0.0)
        alpha = alpha_metric(n, eps, 2.0, 0.0)
        assert (
            np.abs(
                torsion(alpha).coeffs - families.closed_torsion(n, eps, params).coeffs
            ).max()
            < TOL
        )


class TestCurvature:
    def test_round_sphere_constant_curvature(self):
        n, eps = 4, -1.0
        g = Metric(n, eps)
        R = curvature(families.skew_family(n, eps, (0.0,)))
        G = g.gram()
        d = 2 * n + 1
        expected = np.einsum("jk,il->ijkl", G, np.eye(d)) - np.einsum(
            "ik,jl->ijkl", G, np.eye(d)
        )
        assert np.abs(R.coeffs - expected).max() < TOL

    def test_matches_closed_form_random_q(self, rng):
        for eps in (-2.0, 1.0):
            q = float(rng.uniform(-2, 2))
            assert_verify_passes(4, eps, [(1.0 - q,)])

    def test_flat_s7_connection(self):
        R = curvature(families.skew_family(3, -1.0, (1.0, 1.0, 0.0)))
        assert np.abs(R.coeffs).max() < TOL

    def test_antisymmetric_first_slots(self, rng):
        c = rng.standard_normal((5, 5, 5))
        R = curvature(Bilin(2, c)).coeffs
        assert np.abs(R + R.transpose(1, 0, 2, 3)).max() < 1e-10


class TestRicci:
    def test_round_is_2n_g(self):
        assert_verify_passes(2, -1.0, [])

    def test_closed_form_blocks(self, rng):
        n, eps = 4, float(rng.uniform(-3, -0.5))
        q = float(rng.uniform(-1.5, 1.5))
        alpha = families.skew_family(n, eps, (1.0 - q,))
        Ric = ricci(curvature(alpha), Metric(n, eps)).coeffs
        cz = 2 * (eps * (q * q - 2 * q + 2) + n + 1)
        ca = 2 * n * eps * eps * (q * q - 2 * q)
        assert abs(Ric[0, 0] - cz) < TOL
        assert abs(Ric[-1, -1] + ca) < TOL

    def test_zero_curvature_zero_ricci(self):
        R = curvature(families.skew_family(3, -1.0, (1.0, 0.0, 1.0)))
        Ric = ricci(R, Metric(3, -1.0))
        assert np.abs(Ric.coeffs).max() < TOL

    def test_symmetric_except_n2(self, rng):
        for n in (1, 3, 4):
            eps = float(rng.choice([-2.0, -1.0, 1.0]))
            x = rng.uniform(-2, 2, size=3 if n == 3 else 1)
            Ric = ricci(
                curvature(families.skew_family(n, eps, x)), Metric(n, eps)
            ).coeffs
            assert np.abs(Ric - Ric.T).max() < TOL


class TestScalar:
    def test_round_s5(self):
        g = Metric(2, -1.0)
        Ric = ricci(curvature(families.alpha_lc(2, -1.0)), g)
        assert abs(scalar(Ric, g) - 20.0) < TOL

    def test_zero(self):
        g = Metric(2, -1.0)
        assert scalar(Rank2Tensor(2, np.zeros((5, 5))), g) == 0

    def test_s7_on_shell_zero(self):
        # eps = -2, s = 1, s1 = s2 = 0: scalar = 42 (eps + 2) = 0
        g = Metric(3, -2.0)
        Ric = ricci(curvature(families.skew_family(3, -2.0, (1.0, 0.0, 0.0))), g)
        assert abs(scalar(Ric, g)) < TOL


class TestSym:
    def test_symmetric_fixed(self, rng):
        c = rng.standard_normal((5, 5))
        t = Rank2Tensor(2, c + c.T)
        assert np.abs(sym(t).coeffs - t.coeffs).max() == 0

    def test_antisymmetric_killed(self, rng):
        c = rng.standard_normal((5, 5))
        t = Rank2Tensor(2, c - c.T)
        assert np.abs(sym(t).coeffs).max() < 1e-15

    def test_output_symmetric(self, rng):
        t = Rank2Tensor(2, rng.standard_normal((5, 5)))
        out = sym(t).coeffs
        assert np.abs(out - out.T).max() == 0


class TestTorsionForm:
    def test_levi_civita_vanishes(self):
        g = Metric(3, 0.5)
        assert np.abs(torsion_form(families.alpha_lc(3, 0.5), g)).max() < TOL

    def test_skew_iff_t_matches(self, rng):
        n, eps = 4, -2.0
        q = 0.3
        t_good = eps * q - (n + 1) / n - 2 * eps
        g = Metric(n, eps)
        om = torsion_form(alpha_metric(n, eps, q, t_good), g)
        assert nomizu.skew_residual(om) <= TOL_NUM
        om_bad = torsion_form(alpha_metric(n, eps, q, t_good + 0.5), g)
        assert nomizu.skew_residual(om_bad) > TOL_NUM

    def test_matches_closed_3form(self, rng):
        n, eps, s = 4, 1.5, 0.8
        g = Metric(n, eps)
        om = torsion_form(families.skew_family(n, eps, (s,)), g)
        basis = standard_basis(n)
        for _ in range(20):
            i, j, k = rng.integers(0, 2 * n + 1, size=3)
            X, Y, Z = basis[i], basis[j], basis[k]
            expected = (
                2
                * eps
                * s
                * np.real(
                    X.a * (Z.z @ np.conj(Y.z))
                    + Y.a * (X.z @ np.conj(Z.z))
                    + Z.a * (Y.z @ np.conj(X.z))
                )
            )
            assert abs(om[i, j, k] - expected) < TOL


class TestSTensor:
    def test_zero_for_levi_civita(self):
        g = Metric(2, -1.0)
        S = s_tensor(families.alpha_lc(2, -1.0), g)
        assert np.abs(S.coeffs).max() < TOL

    def test_n2_closed_form(self, rng):
        eps = -1.5
        s, s3, s4 = 0.7, -0.4, 1.1
        pp = s3 * s3 + s4 * s4
        g = Metric(2, eps)
        S = s_tensor(families.skew_family(2, eps, (s, s3, s4)), g).coeffs
        cz = -8 * eps * (s * s + pp)
        ca = -16 * eps * eps * (s * s + pp)
        expected = np.diag([cz, cz, cz, cz, -ca])  # ab = -1 on the fiber pair
        assert np.abs(S - expected).max() < TOL

    def test_basis_independence(self, rng):
        n, eps = 2, 2.0
        g = Metric(n, eps)
        alpha = families.skew_family(2, eps, (0.5, 0.2, -0.3))
        S = s_tensor(alpha, g).coeffs

        # oracle: recompute in a random g-orthonormal basis via Gram-Schmidt
        d = 2 * n + 1
        vecs = []
        signs = []
        for w in (random_vector(rng, n) for _ in range(d)):
            for u, su in zip(vecs, signs):
                w = w - su * (w @ g.gram() @ u) * u
            nrm2 = w @ g.gram() @ w
            vecs.append(w / np.sqrt(abs(nrm2)))
            signs.append(np.sign(nrm2))
        T = nomizu.torsion(alpha).coeffs
        basis = np.eye(d)
        S2 = np.zeros((d, d))
        for x in range(d):
            for y in range(d):
                S2[x, y] = sum(su * metric(eps, apply(T, u, basis[x]), apply(T, u, basis[y]))
                               for u, su in zip(vecs, signs))
        assert np.abs(S - S2).max() < 1e-8


class TestEinsteinDefect:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_round_levi_civita(self, n):
        assert einstein_defect(families.alpha_lc(n, -1.0), Metric(n, -1.0)) < TOL

    def test_n1_off_round_positive(self, rng):
        for s in rng.uniform(-3, 3, size=5):
            assert einstein_defect(families.skew_family(1, -2.0, (s,)), Metric(1, -2.0)) > 1e-3

    def test_n4_lorentz_solution(self):
        s = np.sqrt(10.0 / 3.0)
        assert einstein_defect(families.skew_family(4, 1.0, (s,)), Metric(4, 1.0)) < 1e-8


class TestSymRicciIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity(self, n, rng):
        k = 3 if n in (2, 3) else 1
        for eps in (-3.0, -1.0, 1.0):
            assert_verify_passes(n, eps, [rng.uniform(-2, 2, size=k) for _ in range(4)])


class TestContractionsAgainstEinsum:
    """curvature and s_tensor against their defining einsum formulas."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_curvature(self, n, rng):
        d = 2 * n + 1
        a = rng.uniform(-2, 2, size=(d, d, d))
        Cm, Hterm = structure_tensors(n)
        expected = (
            np.einsum("jkm,iml->ijkl", a, a)
            - np.einsum("ikm,jml->ijkl", a, a)
            - np.einsum("ijm,mkl->ijkl", Cm, a)
            - Hterm
        )
        assert np.abs(curvature(Bilin(n, a)).coeffs - expected).max() <= TOL_NUM

    @pytest.mark.parametrize("n", range(1, 7))
    def test_s_tensor(self, n, rng):
        d = 2 * n + 1
        alpha = Bilin(n, rng.uniform(-2, 2, size=(d, d, d)))
        for eps in (-2.5, -0.3, 0.4, 2.0):
            g = Metric(n, eps)
            T = torsion(alpha).coeffs
            w = np.ones(d)
            w[-1] = -np.sign(eps) / abs(eps)
            expected = np.einsum("j,jxk,kl,jyl->xy", w, T, g.gram(), T)
            assert np.abs(s_tensor(alpha, g).coeffs - expected).max() <= TOL_NUM


# |eps| in [1e-3, 1e3], either sign
EPS = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-3.0, 3.0), st.sampled_from((-1.0, 1.0)))


def _weighted_ricci(R, g):
    """Ric(X, Y) = sum_j sign_j g(R(f_j, X, Y), f_j) over the g-orthonormal
    basis f_j = scale_j e_j, written out with its metric weights."""
    scale, signs = orthonormal_scales(g)
    return np.einsum("j,jxyl,lj->xy", signs * scale * scale, R.coeffs, g.gram())


def _composed_residual(alpha, g):
    Ric = ricci(curvature(alpha), g)
    return sym(Ric).coeffs - scalar(Ric, g) / g.dim * g.gram()


class TestRicciTrace:
    """The Ricci trace of the curvature slice R[j, x, y, j], formed without R."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), eps=EPS, seed=st.integers(0, 2**32 - 1))
    def test_dense_maps_match_full_curvature(self, n, eps, seed):
        d = 2 * n + 1
        alpha = Bilin(n, np.random.default_rng(seed).uniform(-2, 2, size=(d, d, d)))
        g = Metric(n, eps)
        R = curvature(alpha)
        # BLAS blocking may round the two contractions apart by an ulp
        size = np.abs(R.coeffs).max()
        bound = 1e-14 * size
        trace = nomizu._ricci_trace(alpha.coeffs)
        assert np.abs(trace - ricci(R, g).coeffs).max() <= bound
        # the metric weights of the contraction are all 1
        assert np.abs(trace - _weighted_ricci(R, g)).max() <= bound
        expected = _composed_residual(alpha, g)
        got = nomizu.einstein_residual(alpha, g)
        assert np.abs(got - expected).max() <= 1e-14 * max(size, np.abs(expected).max())

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), eps=EPS,
           x=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_skew_members_byte_identical(self, n, eps, x):
        alpha = families.skew_family(n, eps, x[: 3 if n in (2, 3) else 1])
        g = Metric(n, eps)
        assert nomizu._ricci_trace(alpha.coeffs).tobytes() == \
            ricci(curvature(alpha), g).coeffs.tobytes()

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), eps=EPS, p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_stack_rows_are_lone_calls(self, n, eps, p, seed):
        d = 2 * n + 1
        stack = np.random.default_rng(seed).uniform(-2, 2, size=(p, d, d, d))
        g = Metric(n, eps)
        res = nomizu.einstein_residual(stack, g)
        trace = nomizu._ricci_trace(stack)
        assert res.shape == trace.shape == (p, d, d)
        for i in range(p):
            assert res[i].tobytes() == nomizu.einstein_residual(Bilin(n, stack[i]), g).tobytes()
            assert trace[i].tobytes() == nomizu._ricci_trace(stack[i]).tobytes()

    def test_nested_stack(self, rng):
        stack = rng.uniform(-2, 2, size=(2, 3, 7, 7, 7))
        g = Metric(3, -0.5)
        res = nomizu.einstein_residual(stack, g)
        assert res.shape == (2, 3, 7, 7)
        assert res[1, 2].tobytes() == nomizu.einstein_residual(stack[1, 2], g).tobytes()

    def test_no_curvature_formed(self, monkeypatch):
        # the residual reads neither the full curvature nor ricci
        for name in ("curvature", "ricci"):
            monkeypatch.setattr(nomizu, name, lambda *a: pytest.fail(f"{name} called"))
        residual = nomizu.einstein_residual(families.alpha_lc(4, -1.0), Metric(4, -1.0))
        assert np.abs(residual).max() < TOL

    @pytest.mark.parametrize("n,eps,x", [(2, -1.5, (0.3, 0.2, -0.1)), (3, -2.0, (1.0, 0.5, 0.2)),
                                         (5, 0.7, (0.5,))])
    def test_defect_shares_nothing_with_the_trace(self, n, eps, x, monkeypatch):
        # the defect, the check of solved samples, goes through the full
        # curvature; it gives the residual's norm
        alpha, g = families.skew_family(n, eps, x), Metric(n, eps)
        expected = np.linalg.norm(nomizu.einstein_residual(alpha, g))
        monkeypatch.setattr(nomizu, "_ricci_trace", lambda a: pytest.fail("trace called"))
        assert abs(nomizu.einstein_defect(alpha, g) - expected) <= 1e-14 * max(expected, 1.0)

    @pytest.mark.parametrize("shape", [(5, 5, 7), (7, 7), (6, 6, 6)])
    def test_bad_shape_refused(self, shape):
        with pytest.raises(ValueError):
            nomizu._ricci_trace(np.zeros(shape))

    def test_metric_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nomizu.einstein_residual(np.zeros((7, 7, 7)), Metric(2, -1.0))


@pytest.mark.parametrize("call", [
    nomizu.s_tensor,
    nomizu.torsion_form,
    is_metric,
    nomizu.einstein_residual,
    lambda alpha, g: ricci(curvature(alpha), g),
    lambda alpha, g: scalar(ricci(curvature(alpha), Metric(alpha.n, g.eps)), g),
], ids=["s_tensor", "torsion_form", "is_metric", "einstein_residual", "ricci", "scalar"])
@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_metric_of_another_n_refused(call, n, m):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        call(families.alpha_lc(n, -1.0), Metric(m, -1.0))


class TestStackedCurvature:
    """curvature, einstein_defect and LinearSpace.elements on a stack of maps:
    every row a lone call's bytes, in kernel calls of at most _chunk_size(d)
    maps, within the memory guard's budget."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), eps=EPS, seed=st.integers(0, 2**32 - 1))
    def test_rows_are_lone_calls(self, n, eps, seed):
        # skew family members, and dense maps that no sparsity rounds exactly
        d = 2 * n + 1
        rng = np.random.default_rng(seed)
        space = families.skew_direction_basis(n, eps)
        X = rng.uniform(-3.0, 3.0, size=(6, space.dim))
        g = Metric(n, eps)
        members = space.elements(X)
        assert members.shape == (6, d, d, d)
        for i, x in enumerate(X):
            assert members[i].tobytes() == families.skew_family(n, eps, x).coeffs.tobytes()
        for stack in (members, rng.uniform(-2.0, 2.0, size=(6, d, d, d))):
            nested = stack.reshape(2, 3, d, d, d)
            R, defects = curvature(nested), einstein_defect(nested, g)
            assert R.shape == (2, 3, d, d, d, d) and defects.shape == (2, 3)
            for i, c in enumerate(stack):
                alpha = Bilin(n, c)
                assert R[i // 3, i % 3].tobytes() == curvature(alpha).coeffs.tobytes()
                assert defects[i // 3, i % 3] == einstein_defect(alpha, g)

    @pytest.mark.parametrize("n,eps", [(1, -2.0), (2, -1.5), (3, 2.0), (5, -0.3)])
    def test_defect_is_the_composed_norm(self, n, eps, rng):
        # byte for byte np.linalg.norm of the Einstein form of the lone
        # ricci(curvature), as the defect was written before it took
        # stacks; dense maps, so that a reordered sum would show
        d, g = 2 * n + 1, Metric(n, eps)
        for _ in range(5):
            alpha = Bilin(n, rng.uniform(-2.0, 2.0, size=(d, d, d)))
            E = nomizu._einstein_form(ricci(curvature(alpha), g).coeffs, g)[0]
            assert einstein_defect(alpha, g) == float(np.linalg.norm(E))

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("p", [1, 3])
    def test_kernel_matches_reference_layout(self, n, p, rng):
        # the block-contiguous kernel against reference.curvature_terms, on
        # dense maps and on skew-family members; the batched product may sum
        # a block in another order than the reference's one product, so the
        # two agree within 4 ulps of max|R|, not byte for byte
        d = 2 * n + 1
        space = families.skew_direction_basis(n, -1.5)
        for a in (rng.standard_normal((p, d, d, d)),
                  space.elements(rng.uniform(-3.0, 3.0, size=(p, space.dim)))):
            expected, got = np.empty((2, p) + (d,) * 4)
            curvature_terms(a, expected)
            nomizu._curvature_terms(a, got)
            assert np.abs(got - expected).max() <= 4 * np.spacing(np.abs(expected).max())

    def test_lone_call_is_the_stack_kernel(self, monkeypatch):
        sizes = []
        terms = nomizu._curvature_terms
        monkeypatch.setattr(nomizu, "_curvature_terms",
                            lambda a, out: sizes.append(len(a)) or terms(a, out))
        alpha = families.skew_family(3, -2.0, (0.5, 0.1, -0.2))
        curvature(alpha)
        einstein_defect(alpha, Metric(3, -2.0))
        assert sizes == [1, 1]

    @pytest.mark.parametrize("n,maps", [(1, 30), (3, 17), (6, 10)])
    def test_chunks_within_budget(self, n, maps, monkeypatch):
        d = 2 * n + 1
        step = nomizu._chunk_size(d)
        assert step == 1 or 16 * d**4 * step <= BYTES_PER_CUBE * d**3
        sizes = []
        terms = nomizu._curvature_terms
        monkeypatch.setattr(nomizu, "_curvature_terms",
                            lambda a, out: sizes.append(len(a)) or terms(a, out))
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, size=(maps, d, d, d))
        curvature(stack)
        einstein_defect(stack, Metric(n, -1.0))
        full, rest = divmod(maps, step)
        assert sizes == 2 * ([step] * full + [rest] * (rest > 0))

    def test_n20_one_map_per_kernel_call(self, monkeypatch):
        # at n = 20 one map's working set fills the budget: the kernel gets
        # one map per call, and the defect of a stack holds no more than
        # BYTES_PER_CUBE d^3 bytes at once
        n, d = 20, 41
        structure_tensors(n)
        sizes = []
        terms = nomizu._curvature_terms
        monkeypatch.setattr(nomizu, "_curvature_terms",
                            lambda a, out: sizes.append(len(a)) or terms(a, out))
        stack = np.random.default_rng(20).uniform(-1.0, 1.0, size=(3, d, d, d))
        g = Metric(n, -1.0)
        tracemalloc.start()
        try:
            defects = einstein_defect(stack, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [1, 1, 1]
        assert peak <= BYTES_PER_CUBE * d**3
        assert defects[1] == einstein_defect(Bilin(n, stack[1]), g)


class TestSkewFamilyProperties:
    """Identities of random skew-torsion family members, n = 1..6.  The
    Sym(Ric) identity is read here straight from nomizu; verify's
    sym_ricci_identity check, which test_families runs over the same
    members, reaches it through the CLI's shared Ric_LC."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(**members)
    def test_sym_ricci_identity(self, n, eps, sign, x):
        eps *= sign
        g = Metric(n, eps)
        alpha = families.skew_family(n, eps, x[: 3 if n in (2, 3) else 1])
        ric_lc = ricci(curvature(families.alpha_lc(n, eps)), g).coeffs
        Ric = sym(ricci(curvature(alpha), g)).coeffs
        S = s_tensor(alpha, g).coeffs
        assert np.abs(Ric - (ric_lc - S / 4.0)).max() <= TOL_NUM

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(**members)
    def test_members_are_metric(self, n, eps, sign, x):
        eps *= sign
        g = Metric(n, eps)
        assert is_metric(families.skew_family(n, eps, x[: 3 if n in (2, 3) else 1]), g)
        q = complex(x[0], x[1])
        assert is_metric(alpha_metric(n, eps, q, x[2]), g)


class TestIsSkew:
    """skew_residual reads both antisymmetries through the helper the skew
    space uses; a totally skew array is one within TOL_NUM."""

    @staticmethod
    def totally_skew(rng, d):
        w = rng.standard_normal((d, d, d))
        return (w - w.transpose(1, 0, 2) + w.transpose(1, 2, 0)
                - w.transpose(2, 1, 0) + w.transpose(2, 0, 1) - w.transpose(0, 2, 1))

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_totally_skew_passes(self, d, rng):
        assert nomizu.skew_residual(self.totally_skew(rng, d)) <= TOL_NUM

    @pytest.mark.parametrize("axes", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
    def test_symmetric_part_in_any_pair_fails(self, axes, rng):
        # a part symmetric in one pair of slots fails ten times above the
        # tolerance and passes ten times below it
        d = 5
        w = rng.standard_normal((d, d, d))
        sym_part = w + w.transpose(axes)
        sym_part /= np.abs(sym_part).max()
        omega = self.totally_skew(rng, d)
        assert nomizu.skew_residual(omega + 10 * TOL_NUM * sym_part) > TOL_NUM
        assert nomizu.skew_residual(omega + 0.1 * TOL_NUM * sym_part) <= TOL_NUM

    def test_matches_both_transposes(self, rng):
        # the same residual as the two explicit transposes, over random
        # arrays on both sides of the tolerance
        decisions = []
        for _ in range(50):
            noise = rng.uniform(0, 2 * TOL_NUM) * rng.standard_normal((4, 4, 4))
            omega = self.totally_skew(rng, 4) + noise
            residual = max(np.abs(omega + omega.transpose(1, 0, 2)).max(),
                           np.abs(omega + omega.transpose(0, 2, 1)).max())
            explicit = residual <= TOL_NUM
            assert nomizu.skew_residual(omega) == residual
            decisions.append(explicit)
        assert any(decisions) and not all(decisions)
