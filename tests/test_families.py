import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import families, nomizu
from bergerconn.algebra import Metric
from bergerconn.config import TOL_NUM
from bergerconn.families import (
    FamilyParams,
    UnsupportedRegimeError,
    alpha_general,
    alpha_lc,
    closed_curvature,
    closed_ricci,
    closed_torsion,
    direction_s,
    skew_direction_basis,
    skew_family,
    theta,
)
from bergerconn.spaces import Bilin, metric_connection_space, skew_torsion_space
from conftest import assert_verify_passes, members, random_vector
from reference import (
    Omega,
    Phi,
    Theta,
    Theta_tilde,
    alpha_metric,
    apply,
    eta,
    is_metric,
    metric,
    psi,
    psi_hat,
    xi,
)

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
        # q = 1 - s and p = -s1 + i s2
        params = FamilyParams.skew("s7", 3, -1.5, 0.75, 2.0, 3.0)
        assert params.q == 0.25
        assert params.p == complex(-2.0, 3.0)

    def test_skew_constructor_is_eligible(self):
        for regime, n in (("general_n", 4), ("s7", 3), ("s5", 2), ("s3", 1)):
            params = FamilyParams.skew(regime, n, -1.5, 0.4, 0.1, -0.2)
            assert params.skew_eligible(n, -1.5)
            assert abs((1 - params.q).real - 0.4) < 1e-15

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
    """The reference's base-point tensors, in which the skew directions are
    rendered below, agree with one another."""

    def test_psi_squares_to_minus_id_on_z(self, rng):
        x = psi(random_vector(rng, 3))  # a random (z, 0)
        assert np.allclose(psi(psi(x)), -x)

    def test_eta_xi_phi_relations(self, rng):
        x = random_vector(rng, 2)
        assert eta(xi(2)) == 1.0
        assert np.abs(psi(xi(2))).max() == 0
        assert Phi(xi(2), x) == 0.0
        assert abs(Phi(x, psi(x)) + x[:-1] @ x[:-1]) < 1e-12

    def test_phi_antisymmetric(self, rng):
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        assert abs(Phi(x, y) + Phi(y, x)) < 1e-12

    def test_omega_antisymmetric(self, rng):
        x, y, u = (random_vector(rng, 3) for _ in range(3))
        assert abs(Omega(x, y, u) + Omega(y, x, u)) < 1e-10
        assert abs(Omega(x, y, u) + Omega(x, u, y)) < 1e-10

    def test_theta_pairs_with_omega(self, rng):
        # g_{-1}(Theta(X,Y), Z) = Omega(X,Y,Z)
        x, y, u = (random_vector(rng, 3) for _ in range(3))
        assert abs(metric(-1.0, Theta(x, y), u) - Omega(x, y, u)) < 1e-10

    def test_theta_tilde_pairs_with_omega_psi(self, rng):
        # g_{-1}(Theta_tilde(X,Y), Z) = Omega(X,Y,psi Z)
        x, y, u = (random_vector(rng, 3) for _ in range(3))
        assert abs(metric(-1.0, Theta_tilde(x, y), u) - Omega(x, y, psi(u))) < 1e-10

    def test_psi_hat_anticommutes_with_psi(self, rng):
        x = random_vector(rng, 2)
        assert np.allclose(psi_hat(psi(x)), -psi(psi_hat(x)))


class TestDirectionRenderings:
    @pytest.mark.parametrize("n,eps", [(1, -2.0), (4, 0.5)])
    def test_s_direction_coordinate_free(self, n, eps, rng):
        # D_s(X,Y) = Phi(X,Y) xi + eps (eta(X) psi(Y) - eta(Y) psi(X))
        D = direction_s(n, eps).coeffs
        for _ in range(5):
            x, y = random_vector(rng, n), random_vector(rng, n)
            expected = Phi(x, y) * xi(n) + eps * (eta(x) * psi(y) - eta(y) * psi(x))
            assert np.abs(apply(D, x, y) - expected).max() < 1e-10

    def test_s7_directions_are_theta_pair(self, rng):
        eps = -1.0
        _, d1, d2 = skew_direction_basis(3, eps).basis
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        assert np.abs(apply(d1.coeffs, x, y) - Theta(x, y)).max() < 1e-10
        assert np.abs(apply(d2.coeffs, x, y) - Theta_tilde(x, y)).max() < 1e-10

    @pytest.mark.parametrize("eps", [-1.5, 0.7])
    def test_s5_directions_are_psi_hat_pair(self, eps, rng):
        # D_s3(X,Y) = Phi(psi_hat X, Y) xi + eps (eta(X) psi psi_hat Y - eta(Y) psi psi_hat X)
        # D_s4(X,Y) = Phi(psi_hat psi X, Y) xi + eps (eta(X) psi_hat Y - eta(Y) psi_hat X)
        d3, d4 = (families._delta_s5(eps, p).coeffs for p in (-1.0, 1.0j))
        for _ in range(5):
            x, y = random_vector(rng, 2), random_vector(rng, 2)
            expected3 = Phi(psi_hat(x), y) * xi(2) + eps * (
                eta(x) * psi(psi_hat(y)) - eta(y) * psi(psi_hat(x)))
            expected4 = Phi(psi_hat(psi(x)), y) * xi(2) + eps * (
                eta(x) * psi_hat(y) - eta(y) * psi_hat(x))
            assert np.abs(apply(d3, x, y) - expected3).max() < 1e-10
            assert np.abs(apply(d4, x, y) - expected4).max() < 1e-10

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (3, 0.5), (4, -1.0)])
    def test_directions_span_skew_space(self, n, eps):
        sp = skew_torsion_space(n, eps)
        for d in skew_direction_basis(n, eps).basis:
            # the residual is taken after subtracting the affine offset
            assert sp.projection_residual(d.coeffs + sp.offset.coeffs) < TOL

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
            assert is_metric(alpha_metric(n, eps, q, t), g)

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
        assert is_metric(alpha, g)
        assert nomizu.skew_residual(nomizu.torsion_form(alpha, g)) <= TOL_NUM


class TestSkewFamilyMembers:
    """skew_family reads exactly the family's parameters: a point of any
    other width is refused, neither padded with zeros nor cut."""

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (3, 3), (4, 1), (6, 1)])
    def test_nonzero_past_the_family_refused(self, n, k):
        x = (1.0, 5.0, 7.0, 2.0)[:k + 1]
        with pytest.raises(ValueError, match=rf"has {k} parameter"):
            skew_family(n, -2.0, x)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_short_tuples_padded_and_zeros_dropped(self, n):
        # neither happens: only a point of the family's width is read
        k = 3 if n in (2, 3) else 1
        full = skew_family(n, -2.0, (0.7, 0.0, 0.0)[:k]).coeffs
        for x in [(0.7,), 0.7, (0.7, 0.0), (0.7, 0.0, 0.0), (0.7, 0.0, 0.0, -0.0)]:
            if np.size(x) == k:
                assert skew_family(n, -2.0, x).coeffs.tobytes() == full.tobytes()
            else:
                with pytest.raises(ValueError, match=rf"has {k} parameter"):
                    skew_family(n, -2.0, x)

    def test_member_checked_and_copied_once(self, monkeypatch):
        # LinearSpace.elements checks the new member finite; the Bilin holds
        # that array read-only, with no second copy and check of its own
        monkeypatch.setattr(Bilin, "__post_init__", lambda self: pytest.fail("copied again"))
        alpha = skew_family(3, -2.0, (0.5, 0.1, -0.2))
        assert not alpha.coeffs.flags.writeable and alpha.coeffs.shape == (7, 7, 7)
        space = skew_direction_basis(3, -2.0)
        assert alpha.coeffs.tobytes() == space.elements([(0.5, 0.1, -0.2)])[0].tobytes()

    def test_non_finite_member_refused(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            skew_family(3, -2.0, (np.inf, 0.0, 0.0))


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
        assert_verify_passes(3, 0.5, [(0.8, -0.4, 1.1)])

    def test_s5_matches_generic(self):
        assert_verify_passes(2, -2.0, [(-0.6, 0.3, 0.7)])


class TestClosedCurvature:
    @pytest.mark.parametrize("n,eps,s", [(1, -1.0, 0.6), (4, 1.5, -0.9), (5, -0.5, 1.2)])
    def test_general_regime(self, n, eps, s):
        assert_verify_passes(n, eps, [(s,)])

    def test_s7_regime(self):
        assert_verify_passes(3, -2.0, [(0.3, 0.8, -0.5)])

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
        assert_verify_passes(n, eps, [(s,)])

    def test_s7_regime(self):
        assert_verify_passes(3, 1.0, [(-0.7, 0.2, 0.9)])

    def test_s5_raises(self):
        params = FamilyParams.skew("s5", 2, -1.0, 0.5)
        with pytest.raises(UnsupportedRegimeError):
            closed_ricci(2, -1.0, params)


class TestClosedFormProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(**members)
    def test_closed_forms_match_generic(self, n, eps, sign, x):
        # every verify check, the closed forms against the generic calculus
        # and Sym(Ric) = Ric_LC - S/4 among them, at one random member
        assert_verify_passes(n, sign * eps, [x[: 3 if n in (2, 3) else 1]])

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
        q=st.complex_numbers(max_magnitude=2.0),
        p=st.complex_numbers(max_magnitude=2.0),
        t=st.floats(-3.0, 3.0),
    )
    def test_closed_torsion_off_skew_family(self, n, eps, q, p, t):
        # the metric family with free (q, t) and the S^7 / S^5 directions
        # of free complex p, most of it not skew-eligible
        regime = {1: "s3", 2: "s5", 3: "s7"}.get(n, "general_n")
        alpha = alpha_metric(n, eps, q, t)
        if n == 3:
            alpha = Bilin(n, alpha.coeffs + families._delta_s7(p).coeffs)
        elif n == 2:
            alpha = Bilin(n, alpha.coeffs + families._delta_s5(eps, p).coeffs)
        else:
            p = 0.0
        params = FamilyParams(regime, q, t, p, eps * p)
        T = nomizu.torsion(alpha)
        assert np.abs(T.coeffs - closed_torsion(n, eps, params).coeffs).max() <= TOL_NUM
