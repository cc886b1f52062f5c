import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import families, nomizu
from bergerconn.algebra import Metric, MVec, metric_eval, standard_basis
from bergerconn.config import TOL_NUM
from bergerconn.families import (
    FamilyParams,
    PointTensors,
    UnsupportedRegimeError,
    alpha_general,
    alpha_lc,
    alpha_metric,
    closed_curvature,
    closed_ricci,
    closed_torsion,
    direction_s,
    point_tensors,
    skew_direction_basis,
    skew_family,
    theta,
)
from bergerconn.spaces import metric_connection_space, skew_torsion_space
from conftest import random_mvec

TOL = 1e-9


class TestTheta:
    def test_involution_up_to_sign(self, rng):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(theta(theta(z)), -z)

    def test_antilinear(self, rng):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = 1.3 - 0.7j
        assert np.allclose(theta(c * z), np.conj(c) * theta(z))

    def test_isometry(self, rng):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(np.linalg.norm(theta(z)) - np.linalg.norm(z)) < 1e-12


class TestFamilyParams:
    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            FamilyParams("s9", 0.0, 0.0)

    def test_derived_parameters(self):
        params = FamilyParams("s7", q=0.25, t=0.0, p=complex(-2.0, 3.0))
        assert params.s == 0.75
        assert params.s1 == 2.0 and params.s2 == 3.0

    def test_skew_constructor_is_eligible(self):
        for regime, n in (("general_n", 4), ("s7", 3), ("s5", 2), ("s3", 1)):
            params = FamilyParams.skew(regime, n, -1.5, 0.4, 0.1, -0.2)
            assert params.skew_eligible(n, -1.5)
            assert abs(params.s - 0.4) < 1e-15

    def test_skew_eligibility_fails_off_line(self):
        params = FamilyParams("general_n", q=0.5, t=0.0)
        assert not params.skew_eligible(4, -1.0)

    def test_check_n(self):
        FamilyParams("s7", 0.0, 0.0).check_n(3)
        with pytest.raises(ValueError):
            FamilyParams("s7", 0.0, 0.0).check_n(4)
        with pytest.raises(ValueError):
            FamilyParams("general_n", 0.0, 0.0).check_n(2)


class TestPointTensors:
    def test_psi_squares_to_minus_id_on_z(self, rng):
        pt = point_tensors(3)
        X = MVec(3, rng.standard_normal(3) + 1j * rng.standard_normal(3), 0.0)
        Y = pt.psi(pt.psi(X))
        assert np.allclose(Y.z, -X.z) and Y.a == 0

    def test_eta_xi_phi_relations(self, rng):
        pt = point_tensors(2)
        X = random_mvec(rng, 2)
        assert pt.eta(pt.xi) == 1.0
        assert np.abs(pt.psi(pt.xi).coords()).max() == 0
        assert pt.Phi(pt.xi, X) == 0.0
        assert abs(pt.Phi(X, pt.psi(X)) + np.linalg.norm(X.z) ** 2) < 1e-12

    def test_phi_antisymmetric(self, rng):
        pt = point_tensors(3)
        X, Y = random_mvec(rng, 3), random_mvec(rng, 3)
        assert abs(pt.Phi(X, Y) + pt.Phi(Y, X)) < 1e-12

    def test_omega_antisymmetric(self, rng):
        pt = point_tensors(3)
        X, Y, Z = (random_mvec(rng, 3) for _ in range(3))
        assert abs(pt.Omega(X, Y, Z) + pt.Omega(Y, X, Z)) < 1e-10
        assert abs(pt.Omega(X, Y, Z) + pt.Omega(X, Z, Y)) < 1e-10

    def test_theta_pairs_with_omega(self, rng):
        # g_{-1}(Theta(X,Y), Z) = Omega(X,Y,Z)
        pt = point_tensors(3)
        g = Metric(3, -1.0)
        X, Y, Z = (random_mvec(rng, 3) for _ in range(3))
        lhs = metric_eval(g, pt.Theta(X, Y), Z)
        assert abs(lhs - pt.Omega(X, Y, Z)) < 1e-10

    def test_theta_tilde_pairs_with_omega_psi(self, rng):
        # g_{-1}(Theta_tilde(X,Y), Z) = Omega(X,Y,psi Z)
        pt = point_tensors(3)
        g = Metric(3, -1.0)
        X, Y, Z = (random_mvec(rng, 3) for _ in range(3))
        lhs = metric_eval(g, pt.Theta_tilde(X, Y), Z)
        assert abs(lhs - pt.Omega(X, Y, pt.psi(Z))) < 1e-10

    def test_psi_hat_anticommutes_with_psi(self, rng):
        pt = point_tensors(2)
        X = MVec(2, rng.standard_normal(2) + 1j * rng.standard_normal(2), 0.0)
        A = pt.psi_hat(pt.psi(X))
        B = pt.psi(pt.psi_hat(X))
        assert np.allclose(A.z, -B.z)

    def test_small_n_guards(self):
        X2 = MVec(2, np.zeros(2, complex), 1j)
        with pytest.raises(ValueError):
            point_tensors(2).Omega(X2, X2, X2)
        with pytest.raises(ValueError):
            point_tensors(3).psi_hat(MVec(3, np.zeros(3, complex), 0.0))
        with pytest.raises(ValueError):
            point_tensors(0)


class TestDirectionRenderings:
    @pytest.mark.parametrize("n,eps", [(1, -2.0), (4, 0.5)])
    def test_s_direction_coordinate_free(self, n, eps, rng):
        # D_s(X,Y) = Phi(X,Y) xi + eps (eta(X) psi(Y) - eta(Y) psi(X))
        pt = point_tensors(n)
        D = direction_s(n, eps)
        for _ in range(5):
            X, Y = random_mvec(rng, n), random_mvec(rng, n)
            expected = (
                pt.Phi(X, Y) * pt.xi.coords()
                + eps * (pt.eta(X) * pt.psi(Y).coords() - pt.eta(Y) * pt.psi(X).coords())
            )
            assert np.abs(D.apply(X, Y).coords() - expected).max() < 1e-10

    def test_s7_directions_are_theta_pair(self, rng):
        eps = -1.0
        pt = point_tensors(3)
        _, d1, d2 = skew_direction_basis(3, eps).basis
        X, Y = random_mvec(rng, 3), random_mvec(rng, 3)
        assert np.abs(d1.apply(X, Y).coords() - pt.Theta(X, Y).coords()).max() < 1e-10
        assert (
            np.abs(d2.apply(X, Y).coords() - pt.Theta_tilde(X, Y).coords()).max()
            < 1e-10
        )

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (3, 0.5), (4, -1.0)])
    def test_directions_span_skew_space(self, n, eps):
        sp = skew_torsion_space(n, eps)
        for d in skew_direction_basis(n, eps).basis:
            # the residual is taken after subtracting the affine offset
            assert sp.projection_residual(d + sp.offset) < TOL

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, 2.0), (3, -2.0), (5, 1.0)])
    def test_family_members_lie_in_skew_space(self, n, eps, rng):
        sp = skew_torsion_space(n, eps)
        k = 3 if n in (2, 3) else 1
        alpha = skew_family(n, eps, rng.uniform(-2, 2, size=k))
        assert sp.projection_residual(alpha) < TOL

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 6),
        eps=st.one_of(
            st.floats(-3.0, -1.0),
            st.just(-1.0),
            st.floats(-1.0 - 1e-6, -1.0 + 1e-6),
            st.floats(-1.0, -0.1),
            st.floats(0.1, 3.0),
        ),
        x=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    )
    def test_family_members_lie_in_skew_space_property(self, n, eps, x):
        # the named family against the generic space, in all four eps regimes
        sp = skew_torsion_space(n, eps)
        alpha = skew_family(n, eps, x[: 3 if n in (2, 3) else 1])
        assert sp.projection_residual(alpha) <= TOL_NUM


class TestConnectionFamilies:
    def test_tabulator_rejects_real_a_component(self):
        with pytest.raises(ValueError):
            families._tabulate(1, 2, lambda X, Y: (X[0] * Y[1], 0.5 + X[1] * Y[1]))

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (3, 0.7)])
    def test_general_family_contains_levi_civita(self, n, eps):
        alpha = alpha_general(n, -eps, -(eps + (n + 1) / n), -1.0, 0.0)
        assert np.abs(alpha.coeffs - alpha_lc(n, eps).coeffs).max() < 1e-12

    @pytest.mark.parametrize("n,eps", [(2, -2.0), (4, 1.5)])
    def test_metric_family_is_metric(self, n, eps, rng):
        g = Metric(n, eps)
        for _ in range(3):
            q = complex(*rng.standard_normal(2))
            t = float(rng.standard_normal())
            assert nomizu.is_metric(alpha_metric(n, eps, q, t), g)

    def test_metric_family_inside_computed_space(self, rng):
        n, eps = 3, -1.0
        sp = metric_connection_space(n, eps)
        alpha = alpha_metric(n, eps, complex(0.3, -1.2), 0.8)
        assert sp.projection_residual(alpha) < TOL

    @pytest.mark.parametrize(
        "n,eps,build",
        [
            (1, -1.0, lambda eps: skew_family(1, eps, (0.7,))),
            (4, 2.0, lambda eps: skew_family(4, eps, (-1.1,))),
            (3, -0.5, lambda eps: skew_family(3, eps, (0.4, 1.0, -0.6))),
            (2, 1.5, lambda eps: skew_family(2, eps, (-0.3, 0.5, 0.9))),
        ],
    )
    def test_skew_families_have_skew_torsion(self, n, eps, build):
        g = Metric(n, eps)
        alpha = build(eps)
        assert nomizu.is_metric(alpha, g)
        assert nomizu.is_skew(nomizu.torsion_form(alpha, g))


class TestClosedTorsion:
    @pytest.mark.parametrize(
        "n,params",
        [
            (1, FamilyParams("s3", q=complex(0.4, 0.0), t=0.9)),
            (4, FamilyParams("general_n", q=complex(-0.2, 0.0), t=1.3)),
        ],
    )
    def test_metric_regimes_match_generic(self, n, params):
        eps = -1.5
        alpha = alpha_metric(n, eps, params.q, params.t)
        T = nomizu.torsion(alpha)
        assert np.abs(T.coeffs - closed_torsion(n, eps, params).coeffs).max() < TOL

    def test_s7_matches_generic(self):
        eps, s, s1, s2 = 0.5, 0.8, -0.4, 1.1
        params = FamilyParams.skew("s7", 3, eps, s, s1, s2)
        alpha = skew_family(3, eps, (s, s1, s2))
        T = nomizu.torsion(alpha)
        assert np.abs(T.coeffs - closed_torsion(3, eps, params).coeffs).max() < TOL

    def test_s5_matches_generic(self):
        eps, s, s3, s4 = -2.0, -0.6, 0.3, 0.7
        params = FamilyParams.skew("s5", 2, eps, s, s3, s4)
        alpha = skew_family(2, eps, (s, s3, s4))
        T = nomizu.torsion(alpha)
        assert np.abs(T.coeffs - closed_torsion(2, eps, params).coeffs).max() < TOL


class TestClosedCurvature:
    @pytest.mark.parametrize("n,eps,s", [(1, -1.0, 0.6), (4, 1.5, -0.9), (5, -0.5, 1.2)])
    def test_general_regime(self, n, eps, s):
        regime = "s3" if n == 1 else "general_n"
        params = FamilyParams.skew(regime, n, eps, s)
        alpha = skew_family(n, eps, (s,))
        R = nomizu.curvature(alpha)
        assert np.abs(R.coeffs - closed_curvature(n, eps, params).coeffs).max() < TOL

    def test_s7_regime(self):
        eps, s, s1, s2 = -2.0, 0.3, 0.8, -0.5
        params = FamilyParams.skew("s7", 3, eps, s, s1, s2)
        alpha = skew_family(3, eps, (s, s1, s2))
        R = nomizu.curvature(alpha)
        assert np.abs(R.coeffs - closed_curvature(3, eps, params).coeffs).max() < TOL

    def test_s5_raises(self):
        params = FamilyParams.skew("s5", 2, -1.0, 0.5)
        with pytest.raises(UnsupportedRegimeError):
            closed_curvature(2, -1.0, params)

    def test_rejects_non_skew_parameters(self):
        params = FamilyParams("general_n", q=0.5, t=0.0)
        with pytest.raises(ValueError):
            closed_curvature(4, -1.0, params)


class TestClosedRicci:
    @pytest.mark.parametrize("n,eps,s", [(1, 2.0, -0.4), (4, -3.0, 1.1)])
    def test_general_regime(self, n, eps, s):
        regime = "s3" if n == 1 else "general_n"
        params = FamilyParams.skew(regime, n, eps, s)
        g = Metric(n, eps)
        Ric = nomizu.ricci(nomizu.curvature(skew_family(n, eps, (s,))), g)
        assert np.abs(Ric.coeffs - closed_ricci(n, eps, params).coeffs).max() < TOL

    def test_s7_regime(self):
        eps, s, s1, s2 = 1.0, -0.7, 0.2, 0.9
        params = FamilyParams.skew("s7", 3, eps, s, s1, s2)
        g = Metric(3, eps)
        Ric = nomizu.ricci(nomizu.curvature(skew_family(3, eps, (s, s1, s2))), g)
        assert np.abs(Ric.coeffs - closed_ricci(3, eps, params).coeffs).max() < TOL

    def test_s5_raises(self):
        params = FamilyParams.skew("s5", 2, -1.0, 0.5)
        with pytest.raises(UnsupportedRegimeError):
            closed_ricci(2, -1.0, params)


class TestClosedFormProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 6),
        eps=st.floats(0.1, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        x=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    )
    def test_closed_forms_match_generic(self, n, eps, sign, x):
        eps *= sign
        regime = {1: "s3", 2: "s5", 3: "s7"}.get(n, "general_n")
        params = FamilyParams.skew(regime, n, eps, *x)
        alpha = skew_family(n, eps, x)
        T = nomizu.torsion(alpha)
        assert np.abs(T.coeffs - closed_torsion(n, eps, params).coeffs).max() <= TOL_NUM
        if n == 2:  # no closed curvature on S^5
            return
        R = nomizu.curvature(alpha)
        assert np.abs(R.coeffs - closed_curvature(n, eps, params).coeffs).max() <= TOL_NUM
        Ric = nomizu.ricci(R, Metric(n, eps))
        assert np.abs(Ric.coeffs - closed_ricci(n, eps, params).coeffs).max() <= TOL_NUM
