import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import families, nomizu
from bergerconn.config import TOL_NUM
from bergerconn.algebra import (
    Metric,
    metric_eval,
    standard_basis,
    structure_tensors,
)
from bergerconn.nomizu import (
    Rank2Tensor,
    curvature,
    einstein_defect,
    ricci,
    s_tensor,
    scalar,
    sym,
    torsion,
    torsion_form,
)
from bergerconn.spaces import Bilin, skew_torsion_space
from conftest import random_mvec

TOL = 1e-9


class TestTorsion:
    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, 0.5), (4, -2.0)])
    def test_levi_civita_torsion_free(self, n, eps):
        assert np.abs(torsion(families.alpha_lc(n, eps)).coeffs).max() < TOL

    def test_symmetric_map_leaves_bracket_term(self, rng):
        n = 2
        c = rng.standard_normal((5, 5, 5))
        sym_map = Bilin(n, 0.5 * (c + c.transpose(1, 0, 2)))
        Cm, _ = structure_tensors(n)
        assert np.abs(torsion(sym_map).coeffs + Cm).max() < 1e-12

    def test_matches_closed_form(self):
        n, eps = 4, -1.0
        params = families.FamilyParams("general_n", q=2.0, t=0.0)
        alpha = families.alpha_metric(n, eps, 2.0, 0.0)
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
        basis = standard_basis(n)
        G = g.gram()
        d = 2 * n + 1
        expected = np.einsum("jk,il->ijkl", G, np.eye(d)) - np.einsum(
            "ik,jl->ijkl", G, np.eye(d)
        )
        assert np.abs(R.coeffs - expected).max() < TOL

    def test_matches_closed_form_random_q(self, rng):
        n = 4
        for eps in (-2.0, 1.0):
            q = float(rng.uniform(-2, 2))
            params = families.FamilyParams.skew("general_n", n, eps, 1.0 - q)
            alpha = families.skew_family(n, eps, (1.0 - q,))
            closed = families.closed_curvature(n, eps, params)
            assert np.abs(curvature(alpha).coeffs - closed.coeffs).max() < TOL

    def test_flat_s7_connection(self):
        R = curvature(families.skew_family(3, -1.0, (1.0, 1.0, 0.0)))
        assert R.max_abs() < TOL

    def test_antisymmetric_first_slots(self, rng):
        c = rng.standard_normal((5, 5, 5))
        R = curvature(Bilin(2, c)).coeffs
        assert np.abs(R + R.transpose(1, 0, 2, 3)).max() < 1e-10


class TestRicci:
    def test_round_is_2n_g(self):
        n, eps = 2, -1.0
        g = Metric(n, eps)
        Ric = ricci(curvature(families.alpha_lc(n, eps)), g)
        assert np.abs(Ric.coeffs - 2 * n * g.gram()).max() < TOL

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
        om = torsion_form(families.alpha_metric(n, eps, q, t_good), g)
        assert nomizu.is_skew(om)
        om_bad = torsion_form(families.alpha_metric(n, eps, q, t_good + 0.5), g)
        assert not nomizu.is_skew(om_bad)

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
        from bergerconn.algebra import MVec

        raw = [random_mvec(rng, n) for _ in range(d)]
        for v in raw:
            w = v.coords().astype(float)
            for u, su in zip(vecs, signs):
                w = w - su * (w @ g.gram() @ u) * u
            nrm2 = w @ g.gram() @ w
            vecs.append(w / np.sqrt(abs(nrm2)))
            signs.append(np.sign(nrm2))
        T = nomizu.torsion(alpha)
        basis = standard_basis(n)
        S2 = np.zeros((d, d))
        for x in range(d):
            for y in range(d):
                acc = 0.0
                for u, su in zip(vecs, signs):
                    f = MVec.from_coords(n, u)
                    tx = T.apply(f, basis[x])
                    ty = T.apply(f, basis[y])
                    acc += su * metric_eval(g, tx, ty)
                S2[x, y] = acc
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
        for eps in (-3.0, -1.0, 1.0):
            g = Metric(n, eps)
            ric_lc = ricci(curvature(families.alpha_lc(n, eps)), g).coeffs
            k = 3 if n in (2, 3) else 1
            for _ in range(4):
                alpha = families.skew_family(n, eps, rng.uniform(-2, 2, size=k))
                Ric = ricci(curvature(alpha), g)
                S = s_tensor(alpha, g).coeffs
                assert np.abs(sym(Ric).coeffs - (ric_lc - S / 4.0)).max() < TOL


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


class TestSkewFamilyProperties:
    """Identities of random skew-torsion family members, n = 1..6."""

    members = dict(
        n=st.integers(1, 6),
        eps=st.floats(0.1, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        x=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    )

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(**members)
    def test_sym_ricci_identity(self, n, eps, sign, x):
        eps *= sign
        g = Metric(n, eps)
        alpha = families.skew_family(n, eps, x)
        ric_lc = ricci(curvature(families.alpha_lc(n, eps)), g).coeffs
        Ric = sym(ricci(curvature(alpha), g)).coeffs
        S = s_tensor(alpha, g).coeffs
        assert np.abs(Ric - (ric_lc - S / 4.0)).max() <= TOL_NUM

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(**members)
    def test_members_are_metric(self, n, eps, sign, x):
        eps *= sign
        g = Metric(n, eps)
        assert nomizu.is_metric(families.skew_family(n, eps, x), g)
        q = complex(x[0], x[1])
        assert nomizu.is_metric(families.alpha_metric(n, eps, q, x[2]), g)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(**members)
    def test_torsion_form_is_skew(self, n, eps, sign, x):
        eps *= sign
        g = Metric(n, eps)
        assert nomizu.is_skew(torsion_form(families.skew_family(n, eps, x), g))


class TestIsSkew:
    """is_skew reads both antisymmetries through the helper the skew space uses."""

    @staticmethod
    def totally_skew(rng, d):
        w = rng.standard_normal((d, d, d))
        return (w - w.transpose(1, 0, 2) + w.transpose(1, 2, 0)
                - w.transpose(2, 1, 0) + w.transpose(2, 0, 1) - w.transpose(0, 2, 1))

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_totally_skew_passes(self, d, rng):
        assert nomizu.is_skew(self.totally_skew(rng, d))

    @pytest.mark.parametrize("axes", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
    def test_symmetric_part_in_any_pair_fails(self, axes, rng):
        # a part symmetric in one pair of slots fails ten times above the
        # tolerance and passes ten times below it
        d = 5
        w = rng.standard_normal((d, d, d))
        sym_part = w + w.transpose(axes)
        sym_part /= np.abs(sym_part).max()
        omega = self.totally_skew(rng, d)
        assert not nomizu.is_skew(omega + 10 * TOL_NUM * sym_part)
        assert nomizu.is_skew(omega + 0.1 * TOL_NUM * sym_part)

    def test_matches_both_transposes(self, rng):
        # the same decision as the two explicit transposes, over random
        # arrays near the tolerance
        decisions = []
        for _ in range(50):
            noise = rng.uniform(0, 2 * TOL_NUM) * rng.standard_normal((4, 4, 4))
            omega = self.totally_skew(rng, 4) + noise
            explicit = (np.abs(omega + omega.transpose(1, 0, 2)).max() <= TOL_NUM
                        and np.abs(omega + omega.transpose(0, 2, 1)).max() <= TOL_NUM)
            assert nomizu.is_skew(omega) == explicit
            decisions.append(explicit)
        assert any(decisions) and not all(decisions)
