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
from bergerconn.spaces import RankGapError, skew_torsion_space

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
        # the spaces are cached first: their construction runs SVDs of its own
        skew_torsion_space(n, eps)
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
        monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: pytest.fail("pinv called"))
        solve_numeric(n, eps)
        assert len(svds) == 1


class TestSolveRecord:
    """One DEBUG record per solve_numeric call, with the fields on record.solve."""

    FIELDS = {"n", "eps", "gap", "tol_gap", "margin", "iterations", "converged", "n_seeds",
              "candidates", "clusters", "checks"}

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
        sols, rec = self._records(caplog, n, eps, count=4, n_seeds=64)
        assert (rec["n"], rec["eps"], rec["n_seeds"], rec["tol_gap"]) == (n, eps, 64, TOL_GAP)
        assert rec["margin"] == rec["gap"] / TOL_GAP and rec["margin"] >= 1.0
        assert 1 <= rec["iterations"] <= 120
        assert 0 < rec["converged"] <= 64
        assert rec["converged"] >= rec["candidates"] >= rec["clusters"] >= len(sols) == 4
        assert rec["checks"] == 4

    def test_one_point_cell(self, caplog):
        # every seed converges into the one cluster, checked once
        sols, rec = self._records(caplog, 5, -1.0, n_seeds=64)
        assert len(sols) == 1
        assert rec["converged"] == 64 and rec["clusters"] == 1 and rec["checks"] == 1

    def test_empty_cell(self, caplog):
        sols, rec = self._records(caplog, 4, -0.5)
        assert sols == [] and rec["converged"] == 0 and rec["checks"] == 0

    def test_n1_line(self, caplog):
        # no quadric at n = 1: its fields are None, and each line sample is checked
        sols, rec = self._records(caplog, 1, -1.0, count=5)
        assert len(sols) == 5 and rec["checks"] == 5
        assert rec["gap"] is None and rec["iterations"] is None

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
        # single point: the origin (the defect is quartically flat there,
        # so converged iterates form a tiny cluster around it)
        sols = solve_numeric(2, -1.0)
        assert sols
        for x in sols:
            assert max(abs(v) for v in x) < 1e-3

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
            for x in solve_numeric(n, eps, count=4, n_seeds=16):
                assert eq.residual(x) < 1e-6

    def test_determinism(self):
        assert solve_numeric(3, -2.0, seed=7) == solve_numeric(3, -2.0, seed=7)

    @pytest.mark.parametrize("n,eps", [(2, -1.0), (3, -2.0)])
    def test_generic_evaluations_bounded(self, n, eps, monkeypatch):
        # the quadratic model takes at most 10 curvature evaluations, and
        # each candidate one more for its generic check
        calls = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: calls.append(a) or curvature(a))
        solve_numeric(n, eps, n_seeds=64)
        assert 0 < len(calls) <= 10 + 64

    def test_one_generic_check_per_cluster(self, monkeypatch):
        # a 1-pt. cell: all 64 seeds land in one cluster, whose candidate of
        # least model residual passes the generic check at the first try
        calls = []
        defect = einstein.einstein_defect_at
        monkeypatch.setattr(einstein, "einstein_defect_at",
                            lambda *a: calls.append(a) or defect(*a))
        assert len(solve_numeric(5, -1.0, n_seeds=64)) == 1
        assert len(calls) == 1


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
        sols = solve_numeric(n, eps, count=count, n_seeds=64)
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

    @pytest.mark.parametrize("n", [5, 2])
    def test_failed_check_tries_next_in_cluster(self, n, monkeypatch):
        # a 1-pt. cell is one cluster of many candidates: when its
        # representative fails, the next candidate is checked and returned
        checked = []
        defect = einstein.einstein_defect_at

        def first_fails(*a):
            checked.append(a[2])
            return np.inf if len(checked) == 1 else defect(*a)

        monkeypatch.setattr(einstein, "einstein_defect_at", first_fails)
        sols = solve_numeric(n, -1.0, n_seeds=64)
        assert len(checked) == 2 and checked[1] != checked[0]
        assert sols == [checked[1]]

    def test_failed_rounding_retries_the_iterate(self, monkeypatch, caplog):
        # at (6, 4) the 10-digit roundings of both roots fail the check: the
        # unrounded iterate each came from is checked next, counted, and
        # returned in its place
        checked = []
        defect = einstein.einstein_defect_at
        monkeypatch.setattr(einstein, "einstein_defect_at",
                            lambda *a: checked.append(a[2]) or defect(*a))
        caplog.set_level(logging.DEBUG, logger="bergerconn.einstein")
        sols = solve_numeric(6, 4.0, count=4)
        assert checked[0] == tuple(round(v, 10) for v in checked[1])
        assert checked[1] != checked[0]
        assert sorted(checked[1::2]) == sols
        assert all(defect(6, 4.0, x) > TOL_SOL for x in checked[::2])
        assert len(sols) == 2 and all(defect(6, 4.0, x) <= TOL_SOL for x in sols)
        (rec,) = [r.solve for r in caplog.records if hasattr(r, "solve")]
        assert rec["checks"] == len(checked) == 4

    @pytest.mark.parametrize("n", [5, 2])
    def test_failed_iterate_gives_way_to_the_cluster(self, n, monkeypatch):
        # both the rounded candidate and its iterate fail: the next
        # candidate of the 1-pt. cluster is checked and returned
        checked = []
        defect = einstein.einstein_defect_at

        def first_fail(*a):
            checked.append(a[2])
            return np.inf if len(checked) <= 2 else defect(*a)

        monkeypatch.setattr(einstein, "einstein_defect_at", first_fail)
        sols = solve_numeric(n, -1.0, n_seeds=64)
        assert checked[1] != checked[0]
        assert checked[0] == tuple(round(v, 10) for v in checked[1])
        assert checked[2] not in checked[:2]
        assert sols == [checked[-1]]

    def test_every_check_failing_raises(self, monkeypatch):
        monkeypatch.setattr(einstein, "einstein_defect_at", lambda *a: np.inf)
        with pytest.raises(RuntimeError):
            solve_numeric(3, -2.0)


# eps inside each regime of classify: the single value -1, and the open
# intervals around it kept 1e-6 away from -1 (closer, the two points of a
# 2-pt. cell lie within the 1e-3 clustering radius with their midpoint
# inside tol, so they read as one) and 0.05 away from 0
REGIMES = st.one_of(
    st.just(-1.0),
    st.floats(-3.0, -1.0 - 1e-6),
    st.floats(-1.0 + 1e-6, -0.05),
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
        for x in solve_numeric(n, eps, count=4, n_seeds=16):
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
