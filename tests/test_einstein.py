import logging
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergerconn import cli, einstein, families, nomizu
from bergerconn.algebra import Metric
from bergerconn.config import TOL_GAP, TOL_NUM, TOL_SOL
from bergerconn.einstein import (
    EinsteinVariety,
    GenericQuadric,
    VarietyClass,
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
from reference import classify_ref, scalar

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

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_round_metric_constant_is_positive_zero(self, n):
        # (eps + 1) / eps is -0.0 at eps = -1; n = 1's eps + 1 is +0.0
        c = einstein_equation(n, -1.0).c
        assert c == 0.0 and np.copysign(1.0, c) == 1.0

    def test_n1_zero_form(self):
        # S^3's equation is the zero form 0 s^2 = eps + 1
        for eps in (-1.0, -2.0, -0.5, 3.0):
            eq = einstein_equation(1, eps)
            assert (eq.a, eq.b, eq.c) == (0.0, 0.0, eps + 1.0)
            assert eq.residual((0.3,)) == abs(eps + 1.0)

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rule_is_the_case_analysis(self, n):
        # classify reads the one inertia rule, classify_ref the paper's cases
        # of n: the sweep of +-10^k, the regime representatives, the floats
        # one and two ulps either side of -1 and the extremes of the floats
        near = []
        below = above = -1.0
        for _ in range(2):
            below, above = float(np.nextafter(below, -2.0)), float(np.nextafter(above, 0.0))
            near += [below, above]
        grid = ([sign * 10.0**k for k in range(-10, 11) for sign in (1.0, -1.0)]
                + list(cli.EPS_SWEEP) + [0.5, -0.5, 1.5, -1.5, -(n + 1.0) / 2.0] + near
                + [5e-324, -5e-324, 1e300, -1e300])
        assert [eps for eps in grid if classify(n, eps) is not classify_ref(n, eps)] == []


#: nonzero floats of either sign over six decades
NONZERO = st.tuples(st.floats(1e-3, 1e3), st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])
#: (lam, c) of a quadric c + sum_i lam_i u_i^2 with one or three axes, or
#: S^3's zero form lam = (+-0,), c zero or signed
QUADRICS = st.tuples(st.one_of(st.sampled_from((1, 3)).flatmap(
                                   lambda k: st.lists(NONZERO, min_size=k, max_size=k)),
                               st.sampled_from(([0.0], [-0.0]))),
                     st.one_of(st.sampled_from((0.0, -0.0)), NONZERO))


def _point(lam, c, kind) -> np.ndarray:
    """A real point u of {c + sum_i lam_i u_i^2 = 0} where the class kind
    places one: off the origin on the line and the cone; on the lone-sign
    axis of two sheets and on another axis of one sheet; on the first axis of
    a definite form, the origin where c = 0.  An entry is nan where kind is
    wrong."""
    if kind is VarietyClass.LINE:
        return np.ones(len(lam))
    lam = np.array(lam)
    minority = lam > 0 if (lam > 0).sum() == 1 else lam < 0
    lone, other = int(np.argmax(minority)), int(np.argmin(minority))
    u = np.zeros(len(lam))
    with np.errstate(invalid="ignore"):
        if kind is VarietyClass.CONE:
            u[lone], u[other] = 1.0, np.sqrt(-lam[lone] / lam[other])
        elif kind is VarietyClass.HYPERBOLOID_ONE_SHEET:
            u[other] = np.sqrt(-c / lam[other])
        else:
            u[lone] = np.sqrt(-c / lam[lone])
    return u


class TestQuadricClass:
    """_quadric_class, the one rule for both quadrics, against what its
    classes mean."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(quadric=QUADRICS, t=NONZERO, data=st.data())
    def test_invariant_under_permutation_and_scale(self, quadric, t, data):
        lam, c = quadric
        kind = einstein._quadric_class(lam, c)
        assert einstein._quadric_class(data.draw(st.permutations(lam)), c) is kind
        assert einstein._quadric_class([t * v for v in lam], t * c) is kind

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(quadric=QUADRICS, seed=st.integers(0, 2**16))
    def test_class_has_its_points(self, quadric, seed):
        lam, c = quadric
        kind = einstein._quadric_class(lam, c)
        lam_ = np.array(lam)
        if kind is VarietyClass.EMPTY:
            # c + sum lam u^2 keeps the sign of c
            u = np.random.default_rng(seed).standard_normal((16, len(lam))) * 10.0
            assert c != 0 and (np.sign(c + u**2 @ lam_) == np.sign(c)).all()
        else:
            u = _point(lam, c, kind)
            assert abs(c + u**2 @ lam_) <= 1e-12 * (abs(c) + np.abs(lam_) @ u**2)


class TestResidualQuadratic:
    """The generic Einstein residual as _residual_rows' rows M on the
    monomials (1, x_i x_j): Ric_LC and the S pairs."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 8),
        eps=st.floats(-3.0, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        x=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_reproduces_generic_residual(self, n, eps, sign, x):
        # against the full curvature, which shares neither the Ricci trace
        # nor S with the rows, at |eps| in [1e-3, 1e3]; the allowance is
        # relative to the terms that form m(x) @ M
        eps = sign * 10.0 ** eps
        x = np.array(x[: param_count(n)])
        g = Metric(n, eps)
        M = einstein._residual_rows(n, eps)
        model = _even_monomials(x)[0] @ M
        alpha = families.skew_family(n, eps, x)
        generic = nomizu._einstein_form(nomizu.ricci(nomizu.curvature(alpha), g).coeffs, g)[0]
        scale = max(1.0, (np.abs(_even_monomials(x)[0]) @ np.abs(M)).max())
        assert np.abs(model - generic.ravel()).max() <= 1e-13 * scale
        defect = nomizu.einstein_defect(alpha, g)
        assert abs(np.linalg.norm(model) - defect) <= 1e-13 * scale * g.dim

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_derived_quadric_matches_equation(self, n):
        # r(x) = v q(x) with q the canonical quadric: the rows have rank one,
        # and their projections on v are q's coefficients, one per monomial
        k = param_count(n)
        i, j = np.triu_indices(k)
        for eps in (-3.0, -2.0, -1.5, -1.0, -0.5, -0.1, 0.3, 1.0, 2.0):
            M = einstein._residual_rows(n, eps)
            _, sv, vt = np.linalg.svd(M)
            assert sv[1] <= 1e-12 * sv[0]
            derived = M @ vt[0]
            derived[0] = -derived[0]
            eq = einstein_equation(n, eps)
            quad = np.diag([eq.a] + [eq.b] * (k - 1))
            expected = np.concatenate([[eq.c], quad[i, j]])
            scale = derived @ expected / (expected @ expected)
            assert np.linalg.norm(derived - scale * expected) <= 1e-12 * np.linalg.norm(derived)

    @pytest.mark.parametrize("n,eps", [(1, -2.0), (2, -1.5), (3, 2.0), (4, -1.0), (6, 1e3)])
    def test_rows_are_ric_lc_and_the_s_pairs(self, n, eps):
        # the constant row is E(Ric_LC) of the offset, with a lone
        # einstein_residual call's bytes; the x_i x_j row is -E(S_ij + S_ji)/4
        # (-E(S_ii)/4 on the diagonal), here S of family members polarized
        g = Metric(n, eps)
        k = param_count(n)
        M = einstein._residual_rows(n, eps)
        assert M[0].tobytes() == nomizu.einstein_residual(families.alpha_lc(n, eps), g).tobytes()

        def S(x):
            return nomizu.s_tensor(families.skew_family(n, eps, x), g).coeffs

        E = np.eye(k)
        for row, (i, j) in zip(M[1:], zip(*np.triu_indices(k))):
            pair = S(E[i] + E[j]) - S(E[i]) - S(E[j]) if i != j else S(E[i])
            expected = -0.25 * nomizu._einstein_form(pair, g)[0].ravel()
            assert np.abs(row - expected).max() <= 1e-13 * np.abs(M).max()


def _monomials(X) -> np.ndarray:
    """The monomials (1, x_i, x_i x_j for i <= j) of each row of X, shape
    (N, 1 + k + k(k+1)/2), in the order of einstein._polarize's rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    i, j = np.triu_indices(X.shape[1])
    return np.hstack([np.ones((len(X), 1)), X, X[:, i] * X[:, j]])


def _even_monomials(X) -> np.ndarray:
    """The monomials (1, x_i x_j for i <= j) of each row of X, shape
    (N, 1 + k(k+1)/2), in the order of einstein._residual_rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    i, j = np.triu_indices(X.shape[1])
    return np.hstack([np.ones((len(X), 1)), X[:, i] * X[:, j]])


def _curvature_map(n, eps):
    """The flattened generic curvature at each row of a (p, k) stack of points."""
    return lambda X: np.array([nomizu.curvature(families.skew_family(n, eps, x)).coeffs.ravel()
                               for x in np.atleast_2d(X)])


def _maps(alpha) -> int:
    """How many maps a call of the generic calculus evaluates: one for a
    Bilin, the size of a stack (..., d, d, d) otherwise."""
    return int(np.prod(np.shape(getattr(alpha, "coeffs", alpha))[:-3]))


def _count_generic_maps(monkeypatch) -> tuple[list, list]:
    """Patch nomizu.einstein_residual and nomizu.curvature to record how many
    maps each of their calls evaluates."""
    counts, calls = [], []
    residual, curvature = nomizu.einstein_residual, nomizu.curvature
    monkeypatch.setattr(nomizu, "einstein_residual",
                        lambda alpha, g: counts.append(_maps(alpha)) or residual(alpha, g))
    monkeypatch.setattr(nomizu, "curvature", lambda a: calls.append(_maps(a)) or curvature(a))
    return counts, calls


def _patch_defects(monkeypatch, defects) -> list:
    """Replace the solver's stacked check einstein.einstein_defects by
    defects(n, eps, X, original), X the (p, k) block of candidates; returns
    the list of every candidate checked, in order."""
    checked = []
    original = einstein.einstein_defects

    def patched(n, eps, X):
        X = np.asarray(X, dtype=float)
        checked.extend(map(tuple, X.tolist()))
        return np.asarray(defects(n, eps, X, original), dtype=float)

    monkeypatch.setattr(einstein, "einstein_defects", patched)
    return checked


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
        generic = _curvature_map(n, eps)(x)[0]
        model = _monomials(x) @ M
        assert np.abs(model[0] - generic).max() <= TOL_NUM * np.abs(generic).max()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pairs_are_triu_indices(self, k):
        for got, expected in zip(einstein._pairs(k), np.triu_indices(k)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_monomials(self):
        x = np.array([2.0, 3.0, 5.0])
        assert _monomials(x).tolist() == [[1, 2, 3, 5, 4, 6, 10, 9, 15, 25]]
        assert _monomials([[2.0], [-1.0]]).tolist() == [[1, 2, 4], [1, -1, 1]]

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, -1.5), (3, -2.0), (4, 0.3), (6, -1.0 - 1e-6)])
    def test_residual_quadratic_is_per_evaluation_polarization(self, n, eps):
        # the polarization written out one lone residual evaluation at a
        # time: its linear rows are rounding, and the rest are _residual_rows
        # within 1e-13 of the largest entry
        g = Metric(n, eps)

        def r(x):
            return nomizu.einstein_residual(families.skew_family(n, eps, x), g).ravel()

        k = param_count(n)
        E = np.eye(k)
        c0 = r(np.zeros(k))
        plus = [r(E[i]) for i in range(k)]
        minus = [r(-E[i]) for i in range(k)]
        linear = [(plus[i] - minus[i]) / 2.0 for i in range(k)]
        rows = [c0]
        for i, j in zip(*np.triu_indices(k)):
            rows.append((plus[i] + minus[i]) / 2.0 - c0 if i == j
                        else r(E[i] + E[j]) - plus[i] - plus[j] + c0)
        got = einstein._residual_rows(n, eps)
        scale = max(1.0, np.abs(rows).max())
        assert got.shape == (len(rows), c0.size)
        assert got[0].tobytes() == c0.tobytes()
        assert np.abs(got - rows).max() <= 1e-13 * scale
        assert np.abs(linear).max() <= 1e-13 * scale


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
        generic = nomizu.einstein_residual(families.skew_family(n, eps, x), Metric(n, eps))
        assert np.abs(q.v * (q.c + x @ q.A @ x) - generic.ravel()).max() <= TOL_NUM

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (3, -2.0), (5, 1.0)])
    def test_coefficients(self, n, eps):
        # a unit v, a symmetric A, and c the projection of E(Ric_LC) on v
        q = generic_quadric(n, eps)
        ric_lc = nomizu.einstein_residual(families.alpha_lc(n, eps), Metric(n, eps)).ravel()
        assert abs(np.linalg.norm(q.v) - 1.0) <= 1e-12
        assert np.abs(q.A - q.A.T).max() <= 1e-12 * np.abs(q.A).max()
        assert q.c == float(ric_lc @ q.v)
        assert q.gap >= TOL_GAP

    def test_cross_term_rows_halved(self, monkeypatch):
        # rows of a quadric with cross terms, times a unit w: each x_i x_j
        # row (i < j) holds A[i, j] + A[j, i] and is split in half over them
        A = np.array([[2.0, 0.5, -1.0], [0.5, 1.0, 0.25], [-1.0, 0.25, 3.0]])
        c = 0.75
        i, j = np.triu_indices(3)
        w = np.linspace(1.0, 2.0, 7) / np.linalg.norm(np.linspace(1.0, 2.0, 7))
        rows = np.concatenate([[c], np.where(i == j, 1.0, 2.0) * A[i, j]])
        monkeypatch.setattr(einstein, "_residual_rows", lambda n, eps: np.outer(rows, w))
        q = generic_quadric(3, -2.0)
        sign = float(np.sign(q.v @ w))
        assert np.abs(sign * q.v - w).max() <= 1e-15
        assert abs(sign * q.c - c) <= 1e-15
        assert np.abs(sign * q.A - A).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_two_stack_raises(self, n, monkeypatch):
        M = einstein._residual_rows(n, -2.0)
        c0 = M[0]
        # a constant term off the line of the others: a second direction
        w = np.roll(c0, 1) - (np.roll(c0, 1) @ c0) / (c0 @ c0) * c0
        monkeypatch.setattr(einstein, "_residual_rows",
                            lambda n, eps: np.vstack([c0 + w, M[1:]]))
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

    FIELDS = {"n", "eps", "gap", "tol_gap", "margin", "eigenvalues", "centred_constant",
              "draws", "checks", "model_s", "checks_s"}

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
        # the normal form of q: eigenvalues of A, and q at its centre, the
        # Levi-Civita offset x = 0
        q = generic_quadric(n, eps)
        lam = np.array(rec["eigenvalues"])
        assert np.abs(lam - np.linalg.eigvalsh(q.A)).max() <= 1e-12 * np.abs(lam).max()
        assert rec["centred_constant"] == q.c
        assert rec["draws"] >= rec["checks"] == len(sols) == 4

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (2, -1.5), (4, 1.0)])
    def test_model_fields(self, n, eps, caplog, monkeypatch):
        # the model is one residual call on the one Levi-Civita map, each
        # sample's check one full curvature; model_s is the wall time of
        # generic_quadric, checks_s that of the checks
        counts, calls = _count_generic_maps(monkeypatch)
        sols, rec = self._records(caplog, n, eps, count=4)
        assert counts == [1]
        assert sum(calls) == rec["checks"] == len(sols)
        assert isinstance(rec["model_s"], float) and 0.0 < rec["model_s"] < 10.0
        assert isinstance(rec["checks_s"], float) and 0.0 < rec["checks_s"] < 10.0

    def test_one_point_cell(self, caplog):
        # the origin is the one candidate and the one sample, checked once,
        # with +0.0 entries
        sols, rec = self._records(caplog, 5, -1.0)
        assert sols == [(0.0,)] and np.copysign(1.0, sols[0][0]) == 1.0
        assert rec["draws"] == rec["checks"] == 1

    def test_two_point_cell(self, caplog):
        # each root is checked once: no rounding sends it to a second check
        sols, rec = self._records(caplog, 6, 4.0, count=4)
        assert len(sols) == 2 and rec["draws"] == rec["checks"] == 2
        assert abs(sols[1][0]) == pytest.approx(
            np.sqrt(-rec["centred_constant"] / rec["eigenvalues"][0]), rel=1e-15)

    def test_empty_cell(self, caplog):
        sols, rec = self._records(caplog, 4, -0.5)
        assert sols == [] and rec["draws"] == rec["checks"] == 0
        assert len(rec["eigenvalues"]) == 1

    def test_n1_line(self, caplog):
        # no quadric at n = 1: its fields are None, and each line sample is checked
        sols, rec = self._records(caplog, 1, -1.0, count=5)
        assert len(sols) == 5 and rec["checks"] == 5
        assert rec["gap"] is rec["eigenvalues"] is rec["centred_constant"] is rec["draws"] is None
        assert rec["model_s"] is None
        assert isinstance(rec["checks_s"], float) and 0.0 < rec["checks_s"] < 10.0

    @pytest.mark.parametrize("eps", [-2.0, -0.5, 1.0])
    def test_empty_n1_cell_checks_nothing(self, eps, caplog, monkeypatch):
        # the table's three empty S^3 cells have no point to check
        monkeypatch.setattr(einstein, "einstein_defects", lambda *a: pytest.fail("checked"))
        sols, rec = self._records(caplog, 1, eps)
        assert sols == [] and rec["checks"] == 0
        assert isinstance(rec["checks_s"], float) and 0.0 <= rec["checks_s"] < 10.0

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
        # single point: the origin, the Levi-Civita map, which is the centre of q
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
        # the quadratic model evaluates one map, the Levi-Civita map, in one
        # residual call, and each returned sample one more, a curvature for
        # its check
        counts, calls = _count_generic_maps(monkeypatch)
        sols = solve_numeric(n, eps)
        assert counts == [1] and sum(calls) == len(sols) > 0

    def test_one_generic_check_per_cluster(self, monkeypatch):
        # a 1-pt. cell: its one sample, the origin, passes the generic check
        # at the first try
        checked = _patch_defects(monkeypatch, lambda n, eps, X, defects: defects(n, eps, X))
        assert len(solve_numeric(5, -1.0)) == 1
        assert len(checked) == 1

    @pytest.mark.parametrize("n,eps,count", [(3, -2.0, 8), (2, -1.5, 4), (3, -1.0, 8)])
    def test_checks_go_in_blocks(self, n, eps, count, monkeypatch):
        # every check passing: the count candidates are checked in one
        # stacked call, one curvature call for as many maps
        calls = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: calls.append(_maps(a)) or curvature(a))
        blocks = []
        _patch_defects(monkeypatch, lambda n, eps, X, defects: blocks.append(len(X))
                       or defects(n, eps, X))
        assert len(solve_numeric(n, eps, count=count)) == count
        assert blocks == [count] and calls == [count]

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
        # wrong sign, so the 2-pt. cell or ellipsoid gives the origin alone
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
        # q turned to q(R^T x), R a rotation: its principal frame is R P, and
        # every sample maps back onto the variety
        k = param_count(n)
        R = np.linalg.qr(np.arange(1.0, k * k + 1).reshape(k, k) ** 2)[0]
        q = generic_quadric(n, eps)
        moved = GenericQuadric(q.v, q.c, R @ q.A @ R.T, q.gap)
        defect = einstein.einstein_defect_at
        monkeypatch.setattr(einstein, "generic_quadric", lambda *_: moved)
        # each candidate x checked at R^T x, the row x @ R
        _patch_defects(monkeypatch, lambda n, eps, X, defects: defects(n, eps, X @ R))
        sols = solve_numeric(n, eps, count=4)
        expected = {VarietyClass.ONE_POINT: 1, VarietyClass.TWO_POINTS: 2}
        assert len(sols) == expected.get(classify(n, eps), 4)
        eq = einstein_equation(n, eps)
        for x in sols:
            y = R.T @ np.array(x)
            assert eq.residual(y) <= TOL_SOL and defect(n, eps, y) <= TOL_SOL
            if classify(n, eps) is VarietyClass.ONE_POINT:
                assert np.abs(y).max() <= 1e-12

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (3, 2.0), (2, -1.5), (2, 0.5)])
    def test_samples_do_not_depend_on_the_eigenframe(self, n, eps, monkeypatch):
        # A repeated eigenvalue leaves eigh free to pick any frame of its
        # eigenspace, and the sign of q is the SVD's choice: A rotated inside
        # that eigenspace, split by a few ulps so that eigh must move its
        # frame, and q negated, give the same samples
        q = generic_quadric(n, eps)
        before = solve_numeric(n, eps, count=4)
        lam, P = np.linalg.eigh(q.A)
        block = np.flatnonzero(np.abs(lam - np.median(lam)) <= 1e-12 * np.abs(lam).max())
        assert len(block) >= 2
        rotation = np.linalg.qr(np.arange(1.0, len(block) ** 2 + 1).reshape(len(block), -1) ** 2)[0]
        P[:, block] = P[:, block] @ rotation
        lam[block] += 4 * np.finfo(float).eps * np.abs(lam).max() * np.arange(len(block))
        A = (P * lam) @ P.T
        moved = GenericQuadric(-q.v, -q.c, -0.5 * (A + A.T), q.gap)
        # eigh's frame does move: some axis turns, beyond a sign and the order
        turned = np.linalg.eigh(moved.A)[1][:, ::-1].T @ np.linalg.eigh(q.A)[1]
        assert np.abs(np.diag(turned)).min() < 0.99
        monkeypatch.setattr(einstein, "generic_quadric", lambda *_: moved)
        after = solve_numeric(n, eps, count=4)
        assert len(after) == len(before) == 4
        assert np.abs(np.array(after) - np.array(before)).max() <= 1e-12

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (3, -0.5), (3, 2.0), (2, 0.5), (3, -1.0)])
    def test_draws_capped(self, n, eps, monkeypatch, caplog):
        # every check failing: each real draw is checked once, then the
        # solve gives up after _DRAWS per requested sample
        _patch_defects(monkeypatch, lambda n, eps, X, defects: np.full(len(X), np.inf))
        caplog.set_level(logging.DEBUG, logger="bergerconn.einstein")
        with pytest.raises(RuntimeError, match="no numeric solution"):
            solve_numeric(n, eps, count=2)
        (rec,) = [r.solve for r in caplog.records if hasattr(r, "solve")]
        assert rec["draws"] == 2 * einstein._DRAWS
        assert 0 < rec["checks"] <= rec["draws"]


class TestNormalFormRefusals:
    """A generic quadric whose class is not the paper's raises RuntimeError."""

    def _patch_quadric(self, monkeypatch, n, eps, **fields):
        q = generic_quadric(n, eps)
        monkeypatch.setattr(einstein, "generic_quadric",
                            lambda *a: GenericQuadric(**{"v": q.v, "c": q.c, "A": q.A,
                                                         "gap": q.gap, **fields}))

    def test_definite_cone_refused_by_the_agreement_check(self, monkeypatch):
        # a definite A at c' = 0 is one point, not the paper's cone
        self._patch_quadric(monkeypatch, 3, -1.0, A=np.eye(3))
        with pytest.raises(RuntimeError, match="cone predicted, but the generic quadric is 1 pt."):
            solve_numeric(3, -1.0)

    @pytest.mark.parametrize("n,eps,points", [(4, -2.0, 2), (5, -1.0, 1), (2, -1.0, 1)])
    def test_isolated_point_failing_its_check(self, n, eps, points, monkeypatch):
        # an isolated point has no draw to give way to: the last point of
        # the cell fails, and the cell raises rather than return fewer; its
        # points are checked in one block
        def last_fails(n, eps, X, defects):
            out = defects(n, eps, X)
            out[-1] = np.inf
            return out

        checked = _patch_defects(monkeypatch, last_fails)
        with pytest.raises(RuntimeError, match="fails") as raised:
            solve_numeric(n, eps)
        assert len(checked) == points
        assert str(checked[-1]) in str(raised.value)

    # c' of the other sign: the generic quadric's class, and the degenerate
    # class both quadrics take where c' is within the tie band
    FLIPPED = [
        (4, -2.0, VarietyClass.EMPTY, VarietyClass.ONE_POINT),
        (2, -2.0, VarietyClass.EMPTY, VarietyClass.ONE_POINT),
        (3, -2.0, VarietyClass.HYPERBOLOID_ONE_SHEET, VarietyClass.CONE),
        (3, -0.5, VarietyClass.HYPERBOLOID_TWO_SHEETS, VarietyClass.CONE),
    ]

    def _refused(self, n, eps, moved, generic, monkeypatch):
        """solve_numeric on the quadric moved raises one RuntimeError naming
        the paper's class and generic, before any check."""
        monkeypatch.setattr(einstein, "generic_quadric", lambda *a: moved)
        _patch_defects(monkeypatch, lambda n, eps, X, defects: pytest.fail("checked"))
        with pytest.raises(RuntimeError) as raised:
            solve_numeric(n, eps)
        paper = classify(n, eps).value
        assert str(raised.value) == f"{paper} predicted, but the generic quadric is {generic.value}"

    @pytest.mark.parametrize("ulps", [None, 32], ids=["full", "32ulps"])
    @pytest.mark.parametrize("n,eps,generic,_", FLIPPED)
    def test_flipped_constant_names_both_classes(self, n, eps, generic, _, ulps, monkeypatch):
        # c' flipped in full, or moved to 32 ulps of max|lam| of the other
        # sign, just past _CONST_TOL's 16
        q = generic_quadric(n, eps)
        size = abs(q.c) if ulps is None else (
            ulps * np.finfo(float).eps * np.abs(np.linalg.eigvalsh(q.A)).max())
        self._refused(n, eps, GenericQuadric(q.v, -np.sign(q.c) * size, q.A, q.gap), generic,
                      monkeypatch)

    def test_definite_form_names_both_classes(self, monkeypatch):
        # A = -c' I at (3, -2): a sphere, not the paper's two sheets
        q = generic_quadric(3, -2.0)
        sphere = GenericQuadric(q.v, q.c, -q.c * np.eye(3), q.gap)
        self._refused(3, -2.0, sphere, VarietyClass.ELLIPSOID, monkeypatch)

    @pytest.mark.parametrize("n,eps,_,degenerate", FLIPPED)
    def test_flip_within_the_band_is_degenerate(self, n, eps, _, degenerate, monkeypatch):
        # c' of the wrong sign at 8 ulps of max|lam| is taken as 0: the cell
        # samples the degenerate class, the origin or the cone's draws
        q = generic_quadric(n, eps)
        tiny = 8 * np.finfo(float).eps * np.abs(np.linalg.eigvalsh(q.A)).max()
        moved = GenericQuadric(q.v, -np.sign(q.c) * tiny, q.A, q.gap)
        monkeypatch.setattr(einstein, "generic_quadric", lambda *a: moved)
        _patch_defects(monkeypatch, lambda n, eps, X, defects: np.zeros(len(X)))
        sols = np.array(solve_numeric(n, eps, count=4))
        if degenerate is VarietyClass.ONE_POINT:
            assert sols.tolist() == [[0.0] * param_count(n)]
        else:
            assert len(sols) == 4
            form = np.einsum("pi,ij,pj->p", sols, moved.A, sols)
            assert np.abs(form).max() <= 1e-12 * np.abs(q.A).max() * (sols**2).sum(axis=1).max()


class TestLazyGenericCheck:
    """The generic check runs only on the samples solve_numeric returns."""

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (2, -1.5)])
    @pytest.mark.parametrize("count", [4, 8])
    def test_checks_only_returned_samples(self, n, eps, count, monkeypatch):
        checks = _patch_defects(monkeypatch, lambda n, eps, X, defects: defects(n, eps, X))
        counts, calls = _count_generic_maps(monkeypatch)
        sols = solve_numeric(n, eps, count=count)
        assert len(sols) == count
        assert len(checks) == count
        assert counts == [1] and sum(calls) == count

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (2, -1.5), (3, -0.5)])
    def test_failed_check_gives_way(self, n, eps, monkeypatch):
        # the first generic check fails on a positive-dimensional cell: its
        # candidate is not returned, and the cell still returns count
        # samples, each passing the real check
        def first_fails(n, eps, X, defects):
            out = defects(n, eps, X)
            if len(checked) == len(X):
                out[0] = np.inf
            return out

        checked = _patch_defects(monkeypatch, first_fails)
        sols = solve_numeric(n, eps, count=4)
        assert len(sols) == 4 and len(checked) == 5
        assert checked[0] not in sols and sorted(checked[1:]) == sols
        for x in sols:
            assert einstein_defect_at(n, eps, x) <= TOL

    def test_every_check_failing_raises(self, monkeypatch):
        _patch_defects(monkeypatch, lambda n, eps, X, defects: np.full(len(X), np.inf))
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


class TestCountRefused:
    """A negative count, or one that is not an int, is refused before any
    computation; count = 0 asks for no samples."""

    @pytest.mark.parametrize("n,eps,count", [(1, -1.0, -1), (3, -2.0, -1), (4, -2.0, -3)])
    def test_negative_count(self, n, eps, count, monkeypatch):
        with pytest.raises(ValueError, match="count must be >= 0"):
            variety(n, eps, count=count)
        monkeypatch.setattr(einstein, "classify", lambda n, eps: pytest.fail("computed"))
        with pytest.raises(ValueError, match="count must be >= 0"):
            solve_numeric(n, eps, count=count)

    @pytest.mark.parametrize("n,eps", [(1, -1.0), (3, -2.0), (4, -2.0)])
    def test_zero_count(self, n, eps):
        assert solve_numeric(n, eps, count=0) == []

    @pytest.mark.parametrize("n,eps", [(1, 2.0), (2, -0.5), (4, -0.5)])
    def test_negative_count_at_an_empty_cell(self, n, eps, monkeypatch):
        # an empty cell draws no sample, and still refuses a negative count
        assert classify(n, eps) is VarietyClass.EMPTY
        assert variety(n, eps, count=0).sample_points == ()
        for name in ("classify", "einstein_equation", "generic_quadric"):
            monkeypatch.setattr(einstein, name, lambda *args, **kw: pytest.fail("computed"))
        with pytest.raises(ValueError, match="count must be >= 0, got -3"):
            variety(n, eps, count=-3)

    # each path of solve_numeric: an empty cell, a 2-pt. cell, the n = 1
    # line and a cell that draws; a bool is refused as the seed's rule does
    @pytest.mark.parametrize("n,eps", [(2, -0.5), (4, -2.0), (1, -1.0), (3, -2.0)])
    @pytest.mark.parametrize("count", [2.5, 2.0, True, False, None, "2"])
    def test_not_an_int_refused(self, n, eps, count, monkeypatch):
        for name in ("classify", "einstein_equation", "generic_quadric"):
            monkeypatch.setattr(einstein, name, lambda *args, **kw: pytest.fail("computed"))
        message = re.escape(f"count must be >= 0, got {count!r}")
        for solve in (solve_numeric, variety):
            with pytest.raises(ValueError, match=message):
                solve(n, eps, count=count)



class TestSeedRefused:
    """A seed that is not a non-negative int is refused before any
    computation, at every cell, as a negative count is: random.Random takes
    -5 as 5, and a float or None as a seed of its own."""

    # an empty cell, an isolated one (2 pt.) and one that draws (2 sheets)
    @pytest.mark.parametrize("n,eps", [(2, -0.5), (4, -2.0), (3, -2.0)])
    @pytest.mark.parametrize("seed", [-1, -5, 1.5, None, True])
    def test_refused_before_any_computation(self, n, eps, seed, monkeypatch):
        for name in ("classify", "einstein_equation", "generic_quadric"):
            monkeypatch.setattr(einstein, name, lambda *args, **kw: pytest.fail("computed"))
        message = re.escape(f"seed must be a non-negative int, got {seed!r}")
        for solve in (solve_numeric, variety):
            with pytest.raises(ValueError, match=message):
                solve(n, eps, seed=seed)

#: eps = +-10^k, k = -10..10, the dims sweep, -0.5, -1.5 and the floats next to -1
CELL_GRID = sorted({sign * 10.0**k for k in range(-10, 11) for sign in (1.0, -1.0)}
                   | set(cli.EPS_SWEEP)
                   | {-0.5, -1.5, float(np.nextafter(-1.0, -2.0)), float(np.nextafter(-1.0, 0.0))})


class TestOneCellPath:
    """variety takes every cell through solve_numeric: an empty n >= 2 cell
    too has its generic quadric classed against the paper's class."""

    # n = 3 has no empty cell
    @pytest.mark.parametrize("n", [2, 4, 5, 6, 7, 8])
    def test_empty_cell_reads_one_generic_quadric(self, n, monkeypatch):
        empty = [eps for eps in CELL_GRID if classify(n, eps) is VarietyClass.EMPTY]
        assert empty
        calls = []
        quadric = einstein.generic_quadric
        monkeypatch.setattr(einstein, "generic_quadric",
                            lambda *a: calls.append(a) or quadric(*a))
        for eps in empty:
            assert variety(n, eps).sample_points == ()
        assert calls == [(n, eps) for eps in empty]

    @pytest.mark.parametrize("n,generic", [(4, VarietyClass.TWO_POINTS),
                                           (2, VarietyClass.ELLIPSOID)])
    def test_flipped_quadric_at_an_empty_cell_is_refused(self, n, generic, monkeypatch):
        q = generic_quadric(n, -0.5)
        monkeypatch.setattr(einstein, "generic_quadric",
                            lambda *a: GenericQuadric(q.v, -q.c, q.A, q.gap))
        with pytest.raises(RuntimeError) as raised:
            variety(n, -0.5)
        assert str(raised.value) == f"empty predicted, but the generic quadric is {generic.value}"


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
            s_num = scalar(Ric, g)
            assert abs(s_num - scalar_curvature_formula(n, eps, x)) < 1e-6

    def test_n1_line(self):
        g = Metric(1, -1.0)
        for s in (-1.5, 0.0, 0.5, 2.0):
            Ric = nomizu.ricci(nomizu.curvature(families.skew_family(1, -1.0, (s,))), g)
            s_num = scalar(Ric, g)
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

    @pytest.mark.parametrize("n,maps", [(3, [2] * 5), (2, [2]), (5, [2])])
    def test_one_stacked_curvature_per_eps(self, n, maps, monkeypatch):
        # the samples are checked in one curvature call per eps, and each
        # norm keeps a lone call's bytes
        before = ricci_flat_locus(n)
        counted = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: counted.append(_maps(a)) or curvature(a))
        locus = ricci_flat_locus(n)
        assert counted == maps
        monkeypatch.undo()
        assert locus == before
        for (eps, x), norm in zip(locus.samples, locus.ricci_norms):
            Ric = nomizu.ricci(nomizu.curvature(families.skew_family(n, eps, x)), Metric(n, eps))
            assert norm == float(np.linalg.norm(Ric.coeffs))

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
        assert abs(scalar(Ric, g)) < TOL
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


class TestFlatnessModel:
    """Off the circle the exclusion is _floor's certified bound on the
    polarized curvature rows."""

    @pytest.mark.parametrize("n,eps,sigma", [(4, -1.0, 7.040829811022619),
                                             (5, -2.5, 34.43892947309365),
                                             (3, -2.0, 6.980784425616756),
                                             (3, 2.0, 9.480258460149662),
                                             (3, -0.5, 1.2592969035409953)])
    def test_floor_values(self, n, eps, sigma):
        rep = flat_connection_check(n, eps)
        assert abs(rep.min_norm_on_grid - sigma) <= 1e-9 * sigma

    def test_near_circle_refused_or_below_generic(self):
        # the old 13 x 9 x 9 grid reported 1.73 and 1.72 here, missing
        # (1, cos t, sin t), where |R| is 3.7e-9 and 3.7e-2
        with pytest.raises(RuntimeError):
            flat_connection_check(3, -1.0 - 1e-10)
        near = np.linalg.norm(_curvature_map(3, -1.001)((1.0, 1.0, 0.0)))
        assert flat_connection_check(3, -1.001).min_norm_on_grid <= near

    def test_constant_free_curvature_refused(self, monkeypatch):
        # R(x) - R(0) vanishes at x = 0: the constant monomial lies in the
        # null space and no floor is certified
        curvature = nomizu.curvature
        zero = curvature(families.skew_family(4, -1.0, (0.0,))).coeffs
        monkeypatch.setattr(nomizu, "curvature", lambda a: curvature(a) - zero)
        with pytest.raises(RuntimeError, match="flat points may exist"):
            flat_connection_check(4, -1.0)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(3, 6), eps=REGIMES,
           x=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    def test_floor_bounds_generic_curvature(self, n, eps, x):
        # far outside the old [-3, 3] grid, and with the certificate's own
        # 1 - c |m(x)| factor and a rounding allowance on M
        assume(n != 3 or abs(eps + 1.0) >= 1e-3)
        k = param_count(n)
        x = np.array(x[:k])
        curv = _curvature_map(n, eps)
        M = einstein._polarize(curv, k)
        _, sigma, _, c = einstein._floor(M)
        m = np.linalg.norm(_monomials(x))
        floor = sigma * (1.0 - c * m) - 1e-12 * np.linalg.norm(M, 2) * m
        assert np.linalg.norm(curv(x)) >= floor

    @pytest.mark.parametrize("n,eps,calls", [(4, -1.0, 3), (6, 2.0, 3), (3, -2.0, 10)])
    def test_curvature_calls(self, n, eps, calls, monkeypatch):
        # the polarization alone: 3 generic maps at one parameter, 10 at
        # three, in one stacked curvature call
        flat_connection_check(n, eps)
        counted = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: counted.append(_maps(a)) or curvature(a))
        flat_connection_check(n, eps)
        assert counted == [calls]


class TestFlatnessRecord:
    """One DEBUG record per flat_connection_check, fields on record.flatness."""

    FIELDS = {"n", "eps", "curvature_calls", "rank", "sigma_plus", "gap", "margin", "c"}

    def _record(self, caplog, n, eps):
        with caplog.at_level(logging.DEBUG, logger="bergerconn.einstein"):
            rep = flat_connection_check(n, eps)
        records = [r for r in caplog.records if r.name == "bergerconn.einstein"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert set(records[0].flatness) == self.FIELDS
        return rep, records[0].flatness

    @pytest.mark.parametrize("n,eps,calls", [(4, -1.0, 3), (3, -2.0, 10)])
    def test_fields(self, n, eps, calls, caplog, monkeypatch):
        # curvature_calls counts the maps of the stacked call
        counted = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: counted.append(_maps(a)) or curvature(a))
        rep, rec = self._record(caplog, n, eps)
        assert (rec["n"], rec["eps"]) == (n, eps)
        assert rec["curvature_calls"] == sum(counted) == calls
        assert rec["sigma_plus"] == rep.min_norm_on_grid
        M = einstein._polarize(_curvature_map(n, eps), param_count(n))
        assert (rec["rank"], rec["sigma_plus"], rec["gap"], rec["c"]) == einstein._floor(M)
        assert rec["margin"] == rec["gap"] / TOL_GAP
        assert rec["margin"] >= 1.0 and rec["c"] <= TOL_NUM

    def test_circle(self, caplog, monkeypatch):
        counted = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: counted.append(_maps(a)) or curvature(a))
        rep, rec = self._record(caplog, 3, -1.0)
        assert rep.flat_exists
        assert (rec["n"], rec["eps"], rec["curvature_calls"]) == (3, -1.0, 17)
        assert counted == [17]
        assert all(rec[f] is None for f in ("rank", "sigma_plus", "gap", "margin", "c"))

    def test_silent_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="bergerconn.einstein"):
            flat_connection_check(4, -1.0)
        assert not [r for r in caplog.records if r.name == "bergerconn.einstein"]


class TestMinDefectN1:
    @pytest.mark.parametrize("eps", [-2.0, -0.5, 1.0])
    def test_no_solution_off_round(self, eps):
        assert min_defect_n1(eps) > 1e-3

    @pytest.mark.parametrize("eps,value", [(-2.0, 5.65685424949222),
                                           (-0.5, 1.1547005383792515),
                                           (1.0, 6.531972647421808)])
    def test_values(self, eps, value):
        assert abs(min_defect_n1(eps) - value) <= 1e-12 * value

    def test_round_attains_zero(self):
        assert min_defect_n1(-1.0) < 1e-10

    @pytest.mark.parametrize("eps", [-3.0, -2.0, -0.5, 0.3, 1.0])
    @pytest.mark.parametrize("lo,hi", [(-10.0, 10.0), (1.0, 4.0)])
    def test_not_above_dense_grid(self, eps, lo, hi):
        # the minimum over every s is not above the grid's over [lo, hi]
        grid = min(einstein_defect_at(1, eps, (s,)) for s in np.linspace(lo, hi, 2001))
        assert min_defect_n1(eps) <= grid * (1 + 1e-12)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(eps=REGIMES, s=st.floats(-10.0, 10.0))
    def test_defect_is_constant_in_s(self, eps, s):
        # on S^3 the traceless Ricci does not depend on s: every s attains
        # the minimum
        defect = einstein_defect_at(1, eps, (s,))
        assert abs(defect - min_defect_n1(eps)) <= 1e-12 * max(defect, 1.0)


class TestParameterWidth:
    """einstein_defects, einstein_defect_at and skew_family read a point
    alike: it has exactly param_count(n) coordinates, and a point of any
    other width is refused, neither padded, cut nor read as another
    point."""

    def test_three_coordinates_at_n4_refused(self):
        with pytest.raises(ValueError, match="has 1 parameter"):
            einstein.einstein_defects(4, -2.0, [(1.0, 5.0, 7.0)])
        with pytest.raises(ValueError, match="has 1 parameter"):
            einstein_defect_at(4, -2.0, (1.0, 5.0, 7.0))
        with pytest.raises(ValueError, match="has 1 parameter"):
            families.skew_family(4, -2.0, (1.0, 5.0, 7.0))
        # verify's per-draw checks read a draw the same way, not cut to (1.0,)
        with pytest.raises(ValueError, match="has 1 parameter"):
            list(cli._verification_checks(4, -2.0, [(1.0, 5.0, 7.0)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_message_names_param_count(self, n):
        k = param_count(n)
        point = tuple(np.arange(1.0, k + 2.0))
        for call in (lambda: einstein.einstein_defects(n, -2.0, [point, point]),
                     lambda: einstein_defect_at(n, -2.0, point)):
            with pytest.raises(ValueError, match=rf"has {k} parameter"):
                call()

    def test_flat_points_refused(self):
        # a flat sequence is not read as rows of points
        with pytest.raises(ValueError, match="has 1 parameter; points must be rows"):
            einstein.einstein_defects(4, -2.0, [1.0, 5.0, 7.0])

    @pytest.mark.parametrize("n,eps", [(4, -2.0), (3, -2.0), (2, 0.5), (1, -0.5)])
    def test_padding_and_trailing_zeros(self, n, eps):
        # neither is read: a row of any width but param_count(n) is refused
        k = param_count(n)
        full = (0.8, -0.3, 0.4)[:k]
        defect = einstein_defect_at(n, eps, full)
        assert einstein.einstein_defects(n, eps, [full, full]).tolist() == [defect, defect]
        for x in [x for x in (full + (0.0,) * (3 - k), full + (0.0, -0.0), (0.8,)) if len(x) != k]:
            with pytest.raises(ValueError, match=rf"has {k} parameter"):
                einstein_defect_at(n, eps, x)
            with pytest.raises(ValueError, match=rf"has {k} parameters?; got rows of {len(x)}"):
                einstein.einstein_defects(n, eps, [x, x])

    def test_no_points(self):
        assert einstein.einstein_defects(3, -2.0, []).shape == (0,)
