import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import einstein, families, nomizu
from bergerconn.algebra import Metric
from bergerconn.config import TOL_GAP, TOL_NUM, TOL_SOL
from bergerconn.einstein import (
    CanonicalEquation,
    EinsteinVariety,
    VarietyClass,
    _family_member,
    _residual_quadratic,
    classify,
    einstein_defect_at,
    einstein_equation,
    flat_connection_check,
    generic_quadric,
    min_defect_n1,
    param_count,
    param_names,
    ricci_flat_locus,
    scalar_curvature_formula,
    solve_numeric,
    variety,
)
from bergerconn.spaces import RankGapError

TOL = 1e-8


class TestEquation:
    def test_n4_lorentzian(self):
        eq = einstein_equation(4, 1.0)
        # s^2 = (5/3) * 2 = 10/3
        assert abs(eq.c - 10.0 / 3.0) < 1e-14
        assert eq.a == 1.0 and eq.b == 0.0
        assert abs(eq.residual((np.sqrt(10.0 / 3.0),))) < 1e-12

    def test_n3(self):
        eq = einstein_equation(3, -2.0)
        # -2 s^2 + s1^2 + s2^2 = -2
        assert abs(eq.residual((1.0, 0.0, 0.0))) < 1e-14
        assert abs(eq.residual((0.0, 1.0, 1.0)) - 4.0) < 1e-14

    def test_n2(self):
        eq = einstein_equation(2, -0.5)
        # s^2 + s3^2 + s4^2 = 3 * 0.5 / (-0.5) = -3: empty
        assert eq.c == -3.0
        assert eq.residual((0.0, 0.0, 0.0)) == 3.0

    def test_n1_line_flag(self):
        assert einstein_equation(1, -1.0).line
        assert not einstein_equation(1, -2.0).line
        assert einstein_equation(1, -2.0).residual((0.3,)) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            einstein_equation(0, -1.0)
        with pytest.raises(ValueError):
            einstein_equation(2, 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_eps(self, eps):
        for build in (Metric, einstein_equation, classify):
            with pytest.raises(ValueError):
                build(4, eps)

    def test_param_names(self):
        assert param_names(1) == ("s",)
        assert param_names(2) == ("s", "s3", "s4")
        assert param_names(3) == ("s", "s1", "s2")
        assert param_names(7) == ("s",) and param_count(2) == 3


class TestClassify:
    # the sixteen regime cells: rows eps < -1 / eps = -1 / -1 < eps < 0 /
    # eps > 0, columns n >= 4, 3, 2, 1
    CASES = [
        (4, -2.0, VarietyClass.TWO_POINTS),
        (3, -2.0, VarietyClass.HYPERBOLOID_TWO_SHEETS),
        (2, -2.0, VarietyClass.ELLIPSOID),
        (1, -2.0, VarietyClass.EMPTY),
        (5, -1.0, VarietyClass.ONE_POINT),
        (3, -1.0, VarietyClass.CONE),
        (2, -1.0, VarietyClass.ONE_POINT),
        (1, -1.0, VarietyClass.LINE),
        (4, -0.5, VarietyClass.EMPTY),
        (3, -0.5, VarietyClass.HYPERBOLOID_ONE_SHEET),
        (2, -0.5, VarietyClass.EMPTY),
        (1, -0.5, VarietyClass.EMPTY),
        (5, 1.0, VarietyClass.TWO_POINTS),
        (3, 2.0, VarietyClass.ELLIPSOID),
        (2, 0.5, VarietyClass.ELLIPSOID),
        (1, 2.0, VarietyClass.EMPTY),
    ]

    @pytest.mark.parametrize("n,eps,kind", CASES)
    def test_cell(self, n, eps, kind):
        assert classify(n, eps) is kind

    def test_large_n_column(self):
        # the n >= 4 column does not depend on which n represents it
        for n in (6, 7, 12):
            assert classify(n, -2.0) is VarietyClass.TWO_POINTS
            assert classify(n, -(n + 1.0) / 2.0) is VarietyClass.TWO_POINTS
            assert classify(n, -1.0) is VarietyClass.ONE_POINT
            assert classify(n, -0.5) is VarietyClass.EMPTY
            assert classify(n, 1.0) is VarietyClass.TWO_POINTS

    # one analytic point on each nonempty quadric
    POINTS = {
        (4, -2.0): (np.sqrt(5.0 / 6.0),),
        (3, -2.0): (1.0, 0.0, 0.0),
        (2, -2.0): (np.sqrt(1.5), 0.0, 0.0),
        (5, -1.0): (0.0,),
        (3, -1.0): (1.0, 1.0, 0.0),
        (2, -1.0): (0.0, 0.0, 0.0),
        (1, -1.0): (0.7,),
        (3, -0.5): (0.0, 1.0, 0.0),
        (5, 1.0): (np.sqrt(3.0),),
        (3, 2.0): (1.0, 2.0, 0.0),
        (2, 0.5): (3.0, 0.0, 0.0),
    }

    @pytest.mark.parametrize("n,eps,kind", CASES)
    def test_classification_matches_defect(self, n, eps, kind, rng):
        # nonempty classes must contain a point of tiny defect; empty
        # classes must have no solution on the canonical quadric at all
        if kind is VarietyClass.EMPTY:
            eq = einstein_equation(n, eps)
            for _ in range(10):
                x = rng.uniform(-3, 3, size=param_count(n))
                assert eq.residual(x) > 1e-6
        else:
            x = self.POINTS[(n, eps)]
            assert einstein_equation(n, eps).residual(x) < 1e-12
            assert einstein_defect_at(n, eps, x) <= TOL


class TestResidualQuadratic:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 6),
        eps=st.floats(0.1, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        x=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_reproduces_generic_residual(self, n, eps, sign, x):
        eps *= sign
        x = np.array(x[: param_count(n)])
        c0, L, Q = _residual_quadratic(n, eps)
        model = c0 + x @ L + np.einsum("i,j,ijm->m", x, x, Q)
        generic = nomizu.einstein_residual(_family_member(n, eps, x), Metric(n, eps))
        assert np.abs(model - generic.ravel()).max() <= TOL_NUM

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_derived_quadric_matches_equation(self, n):
        # r(x) = v q(x) with q the canonical quadric: the stacked tensors have
        # rank one, and their projections on v are q's coefficients
        for eps in (-3.0, -2.0, -1.5, -1.0, -0.5, -0.1, 0.3, 1.0, 2.0):
            c0, L, Q = _residual_quadratic(n, eps)
            k = len(L)
            _, sv, vt = np.linalg.svd(np.vstack([c0, L, Q.reshape(k * k, -1)]))
            assert sv[1] <= 1e-12 * sv[0]
            v = vt[0]
            derived = np.concatenate([[-(c0 @ v)], L @ v, (Q @ v).ravel()])
            eq = einstein_equation(n, eps)
            quad = np.diag([eq.a] + [eq.b] * (k - 1))
            expected = np.concatenate([[eq.c], np.zeros(k), quad.ravel()])
            scale = derived @ expected / (expected @ expected)
            assert np.linalg.norm(derived - scale * expected) <= 1e-12 * np.linalg.norm(derived)


def _curvature_map(n, eps):
    return lambda x: nomizu.curvature(_family_member(n, eps, x)).coeffs.ravel()


class TestPolarize:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 6),
        eps=st.floats(0.1, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        x=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_curvature_model_reproduces_generic(self, n, eps, sign, x):
        eps *= sign
        k = param_count(n)
        x = np.array(x[:k])
        M = einstein._polarize(_curvature_map(n, eps), k)
        assert M.shape == (1 + k + k * (k + 1) // 2, (2 * n + 1) ** 4)
        generic = nomizu.curvature(_family_member(n, eps, x)).coeffs.ravel()
        model = einstein._monomials(x) @ M
        assert np.abs(model[0] - generic).max() <= TOL_NUM * np.abs(generic).max()

    def test_monomials(self):
        x = np.array([2.0, 3.0, 5.0])
        assert einstein._monomials(x).tolist() == [[1, 2, 3, 5, 4, 6, 10, 9, 15, 25]]
        assert einstein._monomials([[2.0], [-1.0]]).tolist() == [[1, 2, 4], [1, -1, 1]]

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, -1.5), (3, -2.0), (4, 0.3), (6, -1.0 - 1e-6)])
    def test_residual_quadratic_is_per_evaluation_polarization(self, n, eps):
        # byte for byte the polarization written out one evaluation at a time
        g = Metric(n, eps)

        def r(x):
            return nomizu.einstein_residual(_family_member(n, eps, x), g).ravel()

        k = param_count(n)
        E = np.eye(k)
        c0 = r(np.zeros(k))
        plus = [r(E[i]) for i in range(k)]
        minus = [r(-E[i]) for i in range(k)]
        L = np.array([(plus[i] - minus[i]) / 2.0 for i in range(k)])
        Q = np.empty((k, k, c0.size))
        for i in range(k):
            Q[i, i] = (plus[i] + minus[i]) / 2.0 - c0
            for j in range(i + 1, k):
                Q[i, j] = Q[j, i] = (r(E[i] + E[j]) - plus[i] - plus[j] + c0) / 2.0
        got = _residual_quadratic(n, eps)
        for a, b in zip(got, (c0, L, Q)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGenericQuadric:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(2, 6),
        eps=st.floats(0.1, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        x=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_reproduces_generic_residual(self, n, eps, sign, x):
        eps *= sign
        x = np.array(x[: param_count(n)])
        q = generic_quadric(n, eps)
        generic = nomizu.einstein_residual(_family_member(n, eps, x), Metric(n, eps))
        assert np.abs(q.v * q(x[None])[0] - generic.ravel()).max() <= TOL_NUM

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (3, -2.0), (5, 1.0)])
    def test_coefficients(self, n, eps):
        # a unit v, a symmetric A, and q(x) = c + l @ x + x @ A @ x
        q = generic_quadric(n, eps)
        x = np.linspace(-1.0, 2.0, param_count(n))
        assert abs(np.linalg.norm(q.v) - 1.0) <= 1e-12
        assert np.abs(q.A - q.A.T).max() <= 1e-12 * np.abs(q.A).max()
        assert abs(q(x[None])[0] - (q.c + q.l @ x + x @ q.A @ x)) <= 1e-12
        assert q.gap >= TOL_GAP

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_two_stack_raises(self, n, monkeypatch):
        c0, L, Q = _residual_quadratic(n, -2.0)
        # a constant term off the line of the others: a second direction
        w = np.roll(c0, 1) - (np.roll(c0, 1) @ c0) / (c0 @ c0) * c0
        monkeypatch.setattr(einstein, "_residual_quadratic",
                            lambda n, eps: (c0 + w, L, Q))
        with pytest.raises(RankGapError):
            generic_quadric(n, -2.0)
        with pytest.raises(RankGapError):
            solve_numeric(n, -2.0)

    @pytest.mark.parametrize("n,eps", [(2, -2.0), (3, -0.5), (4, -1.0), (5, 1.0), (6, -3.0)])
    def test_one_svd_and_no_pinv(self, n, eps, monkeypatch):
        # the named space is cached first: its construction runs an SVD of its own
        families.skew_direction_basis(n, eps)
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
        monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: pytest.fail("pinv called"))
        solve_numeric(n, eps)
        assert len(svds) == 1


class TestSolveRecord:
    """One DEBUG record per solve_numeric call, with the fields on record.solve."""

    FIELDS = {"n", "eps", "gap", "tol_gap", "margin", "eigenvalues", "centre",
              "centred_constant", "draws", "checks"}

    def _records(self, caplog, *args, **kwargs):
        with caplog.at_level(logging.DEBUG, logger="bergerconn.einstein"):
            sols = solve_numeric(*args, **kwargs)
        records = [r for r in caplog.records if r.name == "bergerconn.einstein"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert set(records[0].solve) == self.FIELDS
        return sols, records[0].solve

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (2, -1.5)])
    def test_fields(self, n, eps, caplog):
        sols, rec = self._records(caplog, n, eps, count=4)
        assert (rec["n"], rec["eps"], rec["tol_gap"]) == (n, eps, TOL_GAP)
        assert rec["margin"] == rec["gap"] / TOL_GAP and rec["margin"] >= 1.0
        # the normal form of q: eigenvalues of A, centre -A^-1 l / 2, q there
        q = generic_quadric(n, eps)
        lam, centre = np.array(rec["eigenvalues"]), np.array(rec["centre"])
        assert np.abs(lam - np.linalg.eigvalsh(q.A)).max() <= 1e-12 * np.abs(lam).max()
        assert np.abs(2.0 * q.A @ centre + q.l).max() <= 1e-12 * np.abs(q.A).max()
        assert abs(rec["centred_constant"] - q(centre[None])[0]) <= 1e-12 * abs(q.c)
        assert rec["draws"] >= rec["checks"] == len(sols) == 4

    def test_one_point_cell(self, caplog):
        # the centre is the one candidate and the one sample, checked once
        sols, rec = self._records(caplog, 5, -1.0)
        assert sols == [rec["centre"]]
        assert rec["draws"] == rec["checks"] == 1

    def test_two_point_cell(self, caplog):
        # each root is checked once: no rounding sends it to a second check
        sols, rec = self._records(caplog, 6, 4.0, count=4)
        assert len(sols) == 2 and rec["draws"] == rec["checks"] == 2
        assert abs(sols[1][0] - rec["centre"][0]) == pytest.approx(
            np.sqrt(-rec["centred_constant"] / rec["eigenvalues"][0]), rel=1e-15)

    def test_empty_cell(self, caplog):
        sols, rec = self._records(caplog, 4, -0.5)
        assert sols == [] and rec["draws"] == rec["checks"] == 0
        assert len(rec["eigenvalues"]) == len(rec["centre"]) == 1

    def test_n1_line(self, caplog):
        # no quadric at n = 1: its fields are None, and each line sample is checked
        sols, rec = self._records(caplog, 1, -1.0, count=5)
        assert len(sols) == 5 and rec["checks"] == 5
        assert rec["gap"] is rec["eigenvalues"] is rec["centre"] is rec["draws"] is None

    def test_silent_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="bergerconn.einstein"):
            solve_numeric(3, -2.0)
        assert not [r for r in caplog.records if r.name == "bergerconn.einstein"]


class TestSolveNumeric:
    def test_n4_lorentzian_magnitude(self):
        sols = solve_numeric(4, 1.0)
        assert sols
        target = np.sqrt(10.0 / 3.0)
        for (s,) in sols:
            assert abs(abs(s) - target) < 1e-8

    def test_n2_round_point(self):
        # single point: the origin, which is the centre of q
        sols = solve_numeric(2, -1.0)
        assert len(sols) == 1
        assert max(abs(v) for v in sols[0]) <= 1e-12

    def test_n1_line(self):
        sols = solve_numeric(1, -1.0, count=5)
        assert len(sols) == 5
        for x in sols:
            assert einstein_defect_at(1, -1.0, x) < TOL

    def test_empty(self):
        assert solve_numeric(1, 0.5) == []

    def test_solutions_satisfy_equation(self):
        for n, eps in ((3, 2.0), (2, -2.0), (5, -3.0)):
            eq = einstein_equation(n, eps)
            for x in solve_numeric(n, eps, count=4):
                assert eq.residual(x) < 1e-6

    def test_determinism(self):
        assert solve_numeric(3, -2.0, seed=7) == solve_numeric(3, -2.0, seed=7)

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (3, -1.0), (2, 1.0)])
    def test_seeds_draw_different_samples(self, n, eps):
        assert not set(solve_numeric(n, eps, seed=1)) & set(solve_numeric(n, eps, seed=2))

    @pytest.mark.parametrize("n,eps", [(2, -1.0), (3, -2.0)])
    def test_generic_evaluations_bounded(self, n, eps, monkeypatch):
        # the quadratic model takes at most 10 curvature evaluations, and
        # each returned sample one more for its check
        calls = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: calls.append(a) or curvature(a))
        sols = solve_numeric(n, eps)
        assert 0 < len(calls) <= 10 + len(sols)

    def test_one_generic_check_per_cluster(self, monkeypatch):
        # a 1-pt. cell: its one sample, the centre, passes the generic check
        # at the first try
        calls = []
        defect = einstein.einstein_defect_at
        monkeypatch.setattr(einstein, "einstein_defect_at",
                            lambda *a: calls.append(a) or defect(*a))
        assert len(solve_numeric(5, -1.0)) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_two_points_next_to_round(self, n):
        # eps = -1 - 1e-10: the roots +-1.2e-5 stay two samples
        eps = -1.0 - 1e-10
        eq = einstein_equation(n, eps)
        root = np.sqrt(eq.c / eq.a)
        sols = solve_numeric(n, eps)
        assert len(sols) == 2 and sols[0][0] < 0.0 < sols[1][0]
        for x in sols:
            assert abs(abs(x[0]) - root) <= 1e-9 * root
            assert einstein_defect_at(n, eps, x) <= TOL_SOL

    def test_ellipsoid_next_to_round(self):
        # n = 2, eps = -1 - 1e-10: a sphere of radius 1.7e-5, four samples on it
        eps = -1.0 - 1e-10
        eq = einstein_equation(2, eps)
        sols = solve_numeric(2, eps, count=4)
        assert len(set(sols)) == 4
        for x in sols:
            assert abs(float(np.dot(x, x)) - eq.c) <= 1e-7 * eq.c
            assert einstein_defect_at(2, eps, x) <= TOL_SOL

    @pytest.mark.parametrize("n", [2, 4, 5, 6])
    def test_centre_next_to_round(self, n):
        # eps one ulp below -1: c' is within rounding of 0 and may carry the
        # wrong sign, so the 2-pt. cell or ellipsoid gives its centre alone
        eps = float(np.nextafter(-1.0, -2.0))
        (x,) = solve_numeric(n, eps, count=4)
        assert np.abs(x).max() <= 1e-12
        assert einstein_defect_at(n, eps, x) <= TOL_SOL
        assert einstein_equation(n, eps).residual(x) <= TOL_SOL

    @pytest.mark.parametrize("eps", [np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0)])
    def test_hyperboloid_next_to_round(self, eps):
        # n = 3 one ulp either side of -1: the hyperboloid lies within
        # rounding of the cone, and the cone's draws are returned
        eps = float(eps)
        sols = solve_numeric(3, eps, count=4)
        assert len(set(sols)) == 4
        for s, s1, s2 in sols:
            assert abs(s * s - s1 * s1 - s2 * s2) <= 1e-12 * (s * s + 1.0)
            assert einstein_defect_at(3, eps, (s, s1, s2)) <= TOL_SOL

    def test_cone_samples(self):
        # n = 3, eps = -1: the cone s^2 = s1^2 + s2^2 through the origin
        sols = solve_numeric(3, -1.0, count=8)
        assert len(set(sols)) == 8
        for s, s1, s2 in sols:
            assert abs(s * s - s1 * s1 - s2 * s2) <= 1e-12 * (s * s + 1.0)
            assert einstein_defect_at(3, -1.0, (s, s1, s2)) <= TOL_SOL

    @pytest.mark.parametrize("n,eps", [(4, -2.0), (5, -1.0), (2, -1.0), (3, -2.0), (3, -0.5),
                                       (2, -1.5), (3, -1.0)])
    def test_samples_follow_a_moved_quadric(self, n, eps, monkeypatch):
        # q moved to q(R^T (x - a)), R a rotation: its centre is a and its
        # principal frame R P, and every sample maps back onto the variety
        k = param_count(n)
        a = np.linspace(0.5, -1.0, k)
        R = np.linalg.qr(np.arange(1.0, k * k + 1).reshape(k, k) ** 2)[0]
        q = generic_quadric(n, eps)
        A = R @ q.A @ R.T
        moved = dataclasses.replace(q, A=A, l=R @ q.l - 2.0 * A @ a,
                                    c=q.c - (R @ q.l) @ a + a @ A @ a)
        defect = einstein.einstein_defect_at
        monkeypatch.setattr(einstein, "generic_quadric", lambda *_: moved)
        monkeypatch.setattr(einstein, "einstein_defect_at",
                            lambda n, eps, x: defect(n, eps, R.T @ (np.array(x) - a)))
        sols = solve_numeric(n, eps, count=4)
        expected = {VarietyClass.ONE_POINT: 1, VarietyClass.TWO_POINTS: 2}
        assert len(sols) == expected.get(classify(n, eps), 4)
        eq = einstein_equation(n, eps)
        for x in sols:
            y = R.T @ (np.array(x) - a)
            assert eq.residual(y) <= TOL_SOL and defect(n, eps, y) <= TOL_SOL
            if classify(n, eps) is VarietyClass.ONE_POINT:
                assert np.abs(y).max() <= 1e-12

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (3, -0.5), (3, 2.0), (2, 0.5), (3, -1.0)])
    def test_draws_capped(self, n, eps, monkeypatch, caplog):
        # every check failing: each real draw is checked once, then the
        # solve gives up after _DRAWS per requested sample
        monkeypatch.setattr(einstein, "einstein_defect_at", lambda *a: np.inf)
        caplog.set_level(logging.DEBUG, logger="bergerconn.einstein")
        with pytest.raises(RuntimeError, match="no numeric solution"):
            solve_numeric(n, eps, count=2)
        (rec,) = [r.solve for r in caplog.records if hasattr(r, "solve")]
        assert rec["draws"] == 2 * einstein._DRAWS
        assert 0 < rec["checks"] <= rec["draws"]


class TestNormalFormRefusals:
    """A normal form that cannot give the predicted kind raises RuntimeError."""

    def _patch_quadric(self, monkeypatch, n, eps, **fields):
        q = generic_quadric(n, eps)
        monkeypatch.setattr(einstein, "generic_quadric",
                            lambda *a: dataclasses.replace(q, **fields))

    def test_two_points_with_no_real_root(self, monkeypatch):
        # -c'/lam < 0: the two points are not real
        q = generic_quadric(4, -2.0)
        self._patch_quadric(monkeypatch, 4, -2.0, c=-q.c)
        with pytest.raises(RuntimeError, match="2 pt."):
            solve_numeric(4, -2.0)

    @pytest.mark.parametrize("ulps,raises", [(8, False), (32, True)])
    def test_wrong_sign_within_rounding(self, ulps, raises, monkeypatch):
        # c' of the wrong sign: within _CONST_TOL of 0 it is taken as 0 and
        # the centre returned, beyond it the two points are not real
        q = generic_quadric(4, -2.0)
        lam = float(q.A[0, 0])
        centre = -q.l[0] / (2.0 * lam)
        const = q.c + 0.5 * q.l[0] * centre
        self._patch_quadric(monkeypatch, 4, -2.0,
                            c=q.c - const + ulps * np.finfo(float).eps * lam)
        monkeypatch.setattr(einstein, "einstein_defect_at", lambda *a: 0.0)
        if raises:
            with pytest.raises(RuntimeError, match="2 pt."):
                solve_numeric(4, -2.0)
        else:
            assert solve_numeric(4, -2.0) == [(centre,)]

    def test_cone_with_no_lone_sign(self, monkeypatch):
        self._patch_quadric(monkeypatch, 3, -1.0, A=np.eye(3))
        with pytest.raises(RuntimeError, match="cone"):
            solve_numeric(3, -1.0)

    @pytest.mark.parametrize("n,eps,points", [(4, -2.0, 2), (5, -1.0, 1), (2, -1.0, 1)])
    def test_isolated_point_failing_its_check(self, n, eps, points, monkeypatch):
        # an isolated point has no draw to give way to: the last point of
        # the cell fails, and the cell raises rather than return fewer
        defect = einstein.einstein_defect_at
        checked = []

        def last_fails(*a):
            checked.append(a)
            return np.inf if len(checked) == points else defect(*a)

        monkeypatch.setattr(einstein, "einstein_defect_at", last_fails)
        with pytest.raises(RuntimeError, match="fails"):
            solve_numeric(n, eps)

    def test_ellipsoid_with_no_real_direction(self, monkeypatch):
        q = generic_quadric(2, -2.0)
        self._patch_quadric(monkeypatch, 2, -2.0, c=-q.c)
        with pytest.raises(RuntimeError, match="no numeric solution"):
            solve_numeric(2, -2.0)


class TestLazyGenericCheck:
    """The generic check runs only on the samples solve_numeric returns."""

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (2, -1.5)])
    @pytest.mark.parametrize("count", [4, 8])
    def test_checks_only_returned_samples(self, n, eps, count, monkeypatch):
        checks, calls = [], []
        defect, curvature = einstein.einstein_defect_at, nomizu.curvature
        monkeypatch.setattr(einstein, "einstein_defect_at",
                            lambda *a: checks.append(a) or defect(*a))
        monkeypatch.setattr(nomizu, "curvature", lambda a: calls.append(a) or curvature(a))
        sols = solve_numeric(n, eps, count=count)
        assert len(sols) == count
        assert len(checks) == count
        assert 0 < len(calls) <= 10 + count

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (2, -1.5), (3, -0.5)])
    def test_failed_check_gives_way(self, n, eps, monkeypatch):
        # the first generic check fails on a positive-dimensional cell: its
        # candidate is not returned, and the cell still returns count
        # samples, each passing the real check
        checked = []
        defect = einstein.einstein_defect_at

        def first_fails(*a):
            checked.append(a[2])
            return np.inf if len(checked) == 1 else defect(*a)

        monkeypatch.setattr(einstein, "einstein_defect_at", first_fails)
        sols = solve_numeric(n, eps, count=4)
        assert len(sols) == 4
        assert checked[0] not in sols
        for x in sols:
            assert defect(n, eps, x) <= TOL

    def test_every_check_failing_raises(self, monkeypatch):
        monkeypatch.setattr(einstein, "einstein_defect_at", lambda *a: np.inf)
        with pytest.raises(RuntimeError):
            solve_numeric(3, -2.0)


# eps inside each regime of classify: the single value -1, and the open
# intervals around it kept 1e-10 away from -1 and 0.05 away from 0
REGIMES = st.one_of(
    st.just(-1.0),
    st.floats(-3.0, -1.0 - 1e-10),
    st.floats(-1.0 + 1e-10, -0.05),
    st.floats(0.05, 3.0),
)


class TestSampleCounts:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 6), eps=REGIMES, seed=st.integers(0, 2**16))
    def test_samples_per_kind(self, n, eps, seed):
        v = variety(n, eps, seed=seed)
        expected = {VarietyClass.EMPTY: 0, VarietyClass.ONE_POINT: 1,
                    VarietyClass.TWO_POINTS: 2}.get(v.kind, 4)
        assert len(v.sample_points) == expected
        for x in v.sample_points:
            assert einstein_defect_at(n, eps, x) <= TOL


class TestVariety:
    def test_nonempty_has_samples(self):
        v = variety(4, -2.0)
        assert v.kind is VarietyClass.TWO_POINTS
        assert v.sample_points
        # exactly the two points +-s*
        signs = {np.sign(x[0]) for x in v.sample_points}
        assert signs == {1.0, -1.0}

    @pytest.mark.parametrize("n,eps,points", [(4, -1.0, 1), (5, -1.0, 1), (2, -1.0, 1),
                                              (4, -2.0, 2), (4, 1.0, 2),
                                              (4, -1.0 - 1e-7, 2),
                                              (5, 4.0, 2), (6, 4.0, 2)])
    def test_isolated_points_sampled_once(self, n, eps, points):
        samples = variety(n, eps).sample_points
        assert len(samples) == points
        for x in samples:
            assert einstein_defect_at(n, eps, x) <= TOL_SOL

    def test_empty_has_none(self):
        v = variety(2, -0.5)
        assert v.kind is VarietyClass.EMPTY and v.sample_points == ()

    def test_rejects_bogus_sample(self):
        eq = einstein_equation(4, 1.0)
        with pytest.raises(ValueError):
            EinsteinVariety(4, 1.0, VarietyClass.TWO_POINTS, eq, ((0.0,),))


class TestScalarFormula:
    @pytest.mark.parametrize("n,eps", [(4, 1.0), (3, 2.0), (3, -2.0), (2, -2.0), (4, -3.0)])
    def test_matches_generic_on_solutions(self, n, eps):
        g = Metric(n, eps)
        for x in solve_numeric(n, eps, count=4):
            Ric = nomizu.ricci(nomizu.curvature(families.skew_family(n, eps, x)), g)
            s_num = nomizu.scalar(Ric, g)
            assert abs(s_num - scalar_curvature_formula(n, eps, x)) < 1e-6

    def test_n1_line(self):
        g = Metric(1, -1.0)
        for s in (-1.5, 0.0, 0.5, 2.0):
            Ric = nomizu.ricci(nomizu.curvature(families.skew_family(1, -1.0, (s,))), g)
            s_num = nomizu.scalar(Ric, g)
            assert abs(s_num - scalar_curvature_formula(1, -1.0, (s,))) < 1e-9

    def test_n4_lorentzian_value(self):
        # s^2 = 10/3 gives 72 * (10/3 - 1) = 168
        assert abs(scalar_curvature_formula(4, 1.0, (np.sqrt(10.0 / 3.0),)) - 168.0) < 1e-9


class TestRicciFlat:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_locus_samples_are_flat(self, n):
        locus = ricci_flat_locus(n)
        assert locus.samples
        assert max(locus.ricci_norms) <= 1e-8

    def test_samples_solve_einstein(self):
        for n in (1, 2, 3, 4):
            for eps, params in ricci_flat_locus(n).samples:
                assert einstein_defect_at(n, eps, params) < TOL

    def test_n2_off_pole_not_fully_flat(self):
        # on the unit sphere away from the poles only the symmetric Ricci
        # part vanishes; the full tensor keeps an antisymmetric remainder
        g = Metric(2, -1.5)
        alpha = families.skew_family(2, -1.5, (0.0, 1.0, 0.0))
        Ric = nomizu.ricci(nomizu.curvature(alpha), g)
        assert np.linalg.norm(nomizu.sym(Ric).coeffs) < TOL
        assert abs(nomizu.scalar(Ric, g)) < TOL
        assert np.linalg.norm(Ric.coeffs) > 1.0


class TestFlatness:
    def test_s7_round_circle(self):
        rep = flat_connection_check(3, -1.0)
        assert rep.flat_exists
        assert rep.max_norm_on_flat_set <= 1e-8
        assert len(rep.flat_samples) >= 16

    @pytest.mark.parametrize("n,eps", [(4, -1.0), (3, 2.0), (5, -2.5)])
    def test_exclusion_margins(self, n, eps):
        rep = flat_connection_check(n, eps)
        assert not rep.flat_exists
        assert rep.min_norm_on_grid > 0.1

    def test_rejects_unsupported_n(self):
        with pytest.raises(ValueError):
            flat_connection_check(2, -1.0)


def _flat_grid(n):
    if n == 3:
        return [(float(s), float(s1), float(s2)) for s in np.linspace(-3, 3, 13)
                for s1 in np.linspace(-3, 3, 9) for s2 in np.linspace(-3, 3, 9)]
    return [(float(s),) for s in np.linspace(-3, 3, 121)]


class TestFlatnessModel:
    """The grid is ranked through the exact quadratic curvature model."""

    def test_gram_norms_match_generic(self):
        """The Gram-form norms |R(x)| = sqrt(m(x) (M M^T) m(x)) agree with
        the generic ones to 1e-9 relative wherever |R(x)| >= 1e-3.  Error
        bound: with rho = |M|_2 |m(x)| / |R(x)| >= 1 and u = 2^-53, the
        difference is at most about 4 u (rho + rho^2) relative, rho^2 from
        cancellation in the Gram form and rho from rounding in M and in the
        generic evaluation; both bounds are asserted."""
        u = np.finfo(float).eps / 2
        for n, eps in [(3, -2.0), (4, -1.0), (6, 2.0)]:
            curv = _curvature_map(n, eps)
            grid = np.array(_flat_grid(n))
            M = einstein._polarize(curv, grid.shape[1])
            m = einstein._monomials(grid)
            model = np.sqrt(np.einsum("ip,pq,iq->i", m, M @ M.T, m))
            generic = np.array([np.linalg.norm(curv(x)) for x in grid])
            rel = np.abs(model - generic) / generic
            rho = np.linalg.norm(M, 2) * np.linalg.norm(m, axis=1) / generic
            assert (rel[generic >= 1e-3] <= 1e-9).all()
            assert (rel <= 4 * u * (rho + rho**2)).all()

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (3, 2.0), (4, -1.0), (5, -2.5), (6, 2.0)])
    def test_min_norm_is_brute_force_generic_minimum(self, n, eps):
        curv = _curvature_map(n, eps)
        brute = min(float(np.linalg.norm(curv(x))) for x in _flat_grid(n))
        assert flat_connection_check(n, eps).min_norm_on_grid == brute

    @pytest.mark.parametrize("n,eps,bound", [(4, -1.0, 4), (6, 2.0, 4), (3, -2.0, 11)])
    def test_curvature_calls(self, n, eps, bound, monkeypatch):
        # the polarization (3 or 10 generic calls) and one at the argmin
        flat_connection_check(n, eps)
        calls = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: calls.append(a) or curvature(a))
        flat_connection_check(n, eps)
        assert len(calls) <= bound

    def test_near_flat_refused(self, monkeypatch):
        # a model and generic norm both tiny: refused, not reported
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature",
                            lambda a: nomizu.CurvTensor(a.n, 1e-6 * curvature(a).coeffs))
        with pytest.raises(RuntimeError, match="near-flat"):
            flat_connection_check(4, -1.0)


class TestFlatnessRecord:
    """One DEBUG record per flat_connection_check, fields on record.flatness."""

    FIELDS = {"n", "eps", "grid", "curvature_calls", "model_min", "argmin", "generic_min",
              "rel_diff"}

    def _record(self, caplog, n, eps):
        with caplog.at_level(logging.DEBUG, logger="bergerconn.einstein"):
            rep = flat_connection_check(n, eps)
        records = [r for r in caplog.records if r.name == "bergerconn.einstein"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert set(records[0].flatness) == self.FIELDS
        return rep, records[0].flatness

    @pytest.mark.parametrize("n,eps,grid,calls", [(4, -1.0, 121, 4), (3, -2.0, 13 * 9 * 9, 11)])
    def test_fields(self, n, eps, grid, calls, caplog, monkeypatch):
        counted = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: counted.append(a) or curvature(a))
        rep, rec = self._record(caplog, n, eps)
        assert (rec["n"], rec["eps"], rec["grid"]) == (n, eps, grid)
        assert rec["curvature_calls"] == len(counted) == calls
        assert rec["generic_min"] == rep.min_norm_on_grid
        assert len(rec["argmin"]) == param_count(n)
        assert rec["generic_min"] == float(
            np.linalg.norm(curvature(_family_member(n, eps, rec["argmin"])).coeffs))
        assert rec["rel_diff"] == abs(rec["model_min"] - rec["generic_min"]) / rec["generic_min"]
        assert rec["rel_diff"] <= 1e-9

    def test_circle(self, caplog):
        rep, rec = self._record(caplog, 3, -1.0)
        assert rep.flat_exists
        assert (rec["n"], rec["eps"], rec["grid"], rec["curvature_calls"]) == (3, -1.0, 17, 17)
        assert rec["model_min"] is rec["argmin"] is rec["generic_min"] is rec["rel_diff"] is None

    def test_silent_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="bergerconn.einstein"):
            flat_connection_check(4, -1.0)
        assert not [r for r in caplog.records if r.name == "bergerconn.einstein"]


class TestMinDefectN1:
    @pytest.mark.parametrize("eps", [-2.0, -0.5, 1.0])
    def test_no_solution_off_round(self, eps):
        assert min_defect_n1(eps) > 1e-3

    def test_round_attains_zero(self):
        assert min_defect_n1(-1.0) < 1e-10

    @pytest.mark.parametrize("eps", [-3.0, -2.0, -0.5, 0.3, 1.0])
    @pytest.mark.parametrize("lo,hi", [(-10.0, 10.0), (1.0, 4.0)])
    def test_not_above_dense_grid(self, eps, lo, hi):
        grid = min(einstein_defect_at(1, eps, (s,)) for s in np.linspace(lo, hi, 2001))
        assert min_defect_n1(eps, lo, hi) <= grid * (1 + 1e-12)
