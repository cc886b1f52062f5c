"""Byte pins: the generic Einstein check against reference forms kept
here, so that a change to the order of any rounding step fails.

- metric_arrays_ref: the metric's scales, signs and Gram matrix from
  numpy arrays (np.ones, np.sqrt, np.sign, np.eye), as Metric once built
  them all; Metric.trace_weights must be signs * scale * scale of them.
- einstein_form_ref: Sym(Ric) - (s / dim) g with those weights and that
  Gram matrix, and s as a three-operand einsum.
- einstein_defect_at_ref: the lone defect through the wrappers: the member
  as a Bilin (LinearSpace.element, then Bilin's own copy and check, with
  the old zero padding), then CurvTensor, Rank2Tensor, the reference form
  and np.linalg.norm of each array alone.
- polarize_ref: the polarization rows assembled with np.vstack.
- residual_rows_ref: the Einstein quadric's rows, E(Ric_LC) through
  einstein_form_ref and each S pair a lone np.tensordot, assembled with
  np.vstack.
- residual_ref: CanonicalEquation.residual on numpy scalars, the aux
  coordinates' squares summed by np.sum.
- solve_ref: solve_numeric's sampling with every seeded draw transformed
  at once, before the first block of checks, as numpy arrays whose sums
  are added term by term in the solver's order; the solver draws and maps
  one candidate at a time, in Python floats.

Every output must be np.array_equal to its reference, or carry its bytes
where a contract states bytes.  n runs over 1..8 and |eps| over
[1e-10, 1e10] of either sign; where the reference raises, the package must
raise the same error.
"""

import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerconn import einstein, families, nomizu
from bergerconn.algebra import Metric
from bergerconn.config import TOL_SOL
from bergerconn.einstein import VarietyClass
from bergerconn.spaces import Bilin

N = st.integers(1, 8)
#: |eps| in [1e-10, 1e10], its sign drawn apart
EPS = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-10.0, 10.0),
                st.sampled_from((-1.0, 1.0)))
ROWS = st.integers(1, 5)
SEED = st.integers(0, 2**32 - 1)
PINS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


# ---------------------------------------------------------------------------
# reference implementations


def metric_arrays_ref(g):
    """(scale, signs, gram) as Metric built them from numpy arrays."""
    scale = np.ones(g.dim)
    scale[-1] = 1.0 / np.sqrt(abs(g.eps))
    signs = np.ones(g.dim)
    signs[-1] = -np.sign(g.eps)
    G = np.eye(g.dim)
    G[-1, -1] = -g.eps
    return scale, signs, G


def einstein_form_ref(Ric, g):
    scale, signs, G = metric_arrays_ref(g)
    s = np.einsum("j,j,...jj->...", signs, scale * scale, Ric)
    return 0.5 * (Ric + Ric.swapaxes(-1, -2)) - (s / g.dim)[..., None, None] * G, s


def skew_family_ref(n, eps, params):
    space = families.skew_direction_basis(n, eps)
    x = (tuple(np.atleast_1d(params)) + (0.0, 0.0))[:space.dim]
    return Bilin(n, space.elements(np.asarray(x, dtype=float)[None])[0])


def einstein_defect_ref(alpha, g):
    E = einstein_form_ref(nomizu.ricci(nomizu.curvature(alpha), g).coeffs, g)[0]
    return float(np.linalg.norm(E))


def einstein_defect_at_ref(n, eps, params):
    return einstein_defect_ref(skew_family_ref(n, eps, params), Metric(n, eps))


def polarize_ref(f, k):
    E = np.eye(k)
    i, j = np.triu_indices(k)
    pair = i != j
    F = f(np.vstack([np.zeros(k), E, -E, E[i[pair]] + E[j[pair]]]))
    c0, plus, minus = F[0], F[1:k + 1], F[k + 1:2 * k + 1]
    quad = np.empty((len(i), F.shape[1]))
    quad[~pair] = (plus + minus) / 2.0 - c0
    quad[pair] = F[2 * k + 1:] - plus[i[pair]] - plus[j[pair]] + c0
    return np.vstack([c0, (plus - minus) / 2.0, quad])


def residual_rows_ref(n, eps):
    space = families.skew_direction_basis(n, eps)
    g = Metric(n, eps)
    G = g.gram()
    T = space.maps - space.maps.swapaxes(-3, -2)

    def S(a, b):
        return np.tensordot((T[a] @ G) / G.diagonal()[:, None, None], T[b], axes=([0, 2], [0, 2]))

    rows = [einstein_form_ref(nomizu._ricci_trace(space.offset.coeffs), g)[0].ravel()]
    for a, b in zip(*np.triu_indices(len(T))):
        pair = S(a, b) + S(b, a) if a != b else S(a, a)
        rows.append(-0.25 * einstein_form_ref(pair, g)[0].ravel())
    return np.vstack(rows)


def residual_ref(eq, params):
    if eq.n == 1:
        return abs(eq.eps + 1.0)
    params = np.atleast_1d(np.asarray(params, dtype=float))
    s = params[0]
    aux2 = float(np.sum(params[1:] ** 2))
    return abs(eq.a * s * s + eq.b * aux2 - eq.c)


def in_order(terms):
    """Sums over the last axis, added term by term from 0.0: the order of
    einstein._dot, so that each row has the bytes of the solver's."""
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total


def candidates_ref(shape, lam, P, const, count, seed):
    """Every candidate of the cell, all draws transformed at once."""
    k = len(lam)
    if shape in (VarietyClass.ONE_POINT, VarietyClass.TWO_POINTS, VarietyClass.EMPTY):
        U = {VarietyClass.ONE_POINT: np.zeros((1, k)),
             VarietyClass.TWO_POINTS: np.array([[-1.0], [1.0]])}.get(shape, np.empty((0, k)))
    else:
        gauss = random.Random(seed).gauss
        Z = np.array([[gauss(0.0, 1.0) for _ in range(k)]
                      for _ in range(einstein._DRAWS * count)]).reshape(-1, k)
        U = in_order(Z[:, None, :] * P.T)  # u = P^T z
    if shape is VarietyClass.CONE:
        lone = lam < 0 if (lam < 0).sum() == 1 else lam > 0
        if lone.sum() != 1:
            raise RuntimeError(f"cone predicted, but the eigenvalues are {lam}")
        rest = in_order(U[:, ~lone] ** 2 * lam[~lone])
        U[:, lone] = np.copysign(np.sqrt(-rest / lam[lone])[:, None], U[:, lone])
    elif shape is not VarietyClass.ONE_POINT:
        U /= np.sqrt(in_order(U * U))[:, None]
        t = -const / in_order(U**2 * lam)
        U *= np.sqrt(np.where(t > 0, t, np.nan))[:, None]
    return in_order(U[:, None, :] * P)  # x = P u


def solve_ref(n, eps, count, seed):
    """(samples, draws, checks, checked rows) of solve_numeric's sampling."""
    kind = einstein.classify(n, eps)
    if n == 1:
        out = [(s,) for s in np.linspace(-2.0, 2.0, count).tolist()] \
            if kind is not VarietyClass.EMPTY else []
        if (einstein.einstein_defects(1, eps, out) > TOL_SOL).any():
            raise RuntimeError("line solution fails the defect check")
        return out, None, len(out), np.reshape(out, (-1, 1))
    q = einstein.generic_quadric(n, eps)
    lam, P = np.linalg.eigh(q.A)
    const = q.c
    shape = kind
    if kind is VarietyClass.CONE or abs(const) <= einstein._CONST_TOL * np.abs(lam).max():
        const = 0.0
        if kind not in (VarietyClass.EMPTY, VarietyClass.CONE):
            shape = VarietyClass.CONE if lam.min() < 0 < lam.max() else VarietyClass.ONE_POINT
    isolated = shape in (VarietyClass.ONE_POINT, VarietyClass.TWO_POINTS)
    X = candidates_ref(shape, lam, P, const, count, seed)
    real = ~np.isnan(X).any(axis=1)
    keep, checks, draws, checked = [], 0, 0, []
    while len(keep) < count and draws < len(X):
        need = count - len(keep)
        block = slice(draws, draws + int(np.searchsorted(np.cumsum(real[draws:]), need)) + 1)
        live = real[block]
        passed = np.zeros(len(live), dtype=bool)
        checked.append(X[block][live])
        passed[live] = einstein.einstein_defects(n, eps, X[block][live]) <= TOL_SOL
        for x, ok in zip(map(tuple, X[block].tolist()), passed):
            if ok:
                keep.append(x)
            elif isolated:
                raise RuntimeError(f"{kind.value} predicted, but {x} fails")
        checks += int(live.sum())
        draws += len(live)
    if not keep and count > 0 and kind is not VarietyClass.EMPTY:
        raise RuntimeError(f"classification predicts {kind.value} but no numeric solution found")
    return sorted(keep), draws, checks, np.concatenate(checked or [np.empty((0, len(lam)))])


# ---------------------------------------------------------------------------


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_bytes(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype, what
    assert got.tobytes() == ref.tobytes(), f"{what}: largest difference {np.abs(got - ref).max():.3e}"


def _points(n, rows, seed):
    k = einstein.param_count(n)
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(rows, k)) * 10.0 ** rng.uniform(-3.0, 3.0)


class TestEinsteinForm:
    @PINS
    @given(n=N, eps=EPS)
    def test_metric_arrays_are_the_reference(self, n, eps):
        g = Metric(n, eps)
        scale, signs, G = metric_arrays_ref(g)
        for got, ref in zip((*g.orthonormal_scales(), g.gram(), g.trace_weights()),
                            (scale, signs, G, signs * scale * scale)):
            assert_bytes(got, ref, "metric arrays")

    @PINS
    @given(n=N, eps=EPS, rows=st.integers(0, 5), seed=SEED)
    def test_form_is_the_reference(self, n, eps, rows, seed):
        # rows = 0 is one lone (d, d) array, else a stack of that many
        d, g = 2 * n + 1, Metric(n, eps)
        Ric = np.random.default_rng(seed).standard_normal((rows, d, d) if rows else (d, d))
        Ric[..., seed % d, :] = 0.0  # exact zeros, so that signed zeros would show
        for got, ref in zip(nomizu._einstein_form(Ric, g), einstein_form_ref(Ric, g)):
            assert_bytes(got, ref, "einstein form")

    @PINS
    @given(n=N, eps=EPS, rows=ROWS, seed=SEED)
    def test_residual_is_the_reference_form(self, n, eps, rows, seed):
        d, g = 2 * n + 1, Metric(n, eps)
        stack = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(rows, d, d, d))
        ref = einstein_form_ref(nomizu._ricci_trace(stack), g)[0]
        assert_bytes(nomizu.einstein_residual(stack, g), ref, "einstein residual")


class TestDefects:
    @PINS
    @given(n=N, eps=EPS, rows=ROWS, seed=SEED)
    def test_lone_and_stacked_defects_are_the_bilin_route(self, n, eps, rows, seed):
        X = _points(n, rows, seed)
        ref = [outcome(einstein_defect_at_ref, n, eps, x) for x in X]
        assert [outcome(einstein.einstein_defect_at, n, eps, x) for x in X] == ref
        if all(isinstance(r, float) for r in ref):
            # each stacked row has a lone call's bytes
            assert_bytes(einstein.einstein_defects(n, eps, X), ref, "stacked defects")
        else:
            assert outcome(einstein.einstein_defects, n, eps, X) == ref[0]

    @PINS
    @given(n=N, eps=EPS, rows=ROWS, seed=SEED)
    def test_dense_defects_are_the_composed_norm(self, n, eps, rows, seed):
        d, g = 2 * n + 1, Metric(n, eps)
        stack = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(rows, d, d, d))
        ref = [einstein_defect_ref(Bilin(n, a), g) for a in stack]
        assert_bytes(nomizu.einstein_defect(stack, g), ref, "stacked defects")
        assert nomizu.einstein_defect(Bilin(n, stack[0]), g) == ref[0]


class TestCanonicalResidual:
    @PINS
    @given(n=N, eps=EPS, seed=SEED)
    def test_residual_is_the_reference(self, n, eps, seed):
        eq = einstein.einstein_equation(n, eps)
        for x in _points(n, 200, seed):
            for params in (tuple(x), x, x.tolist()):
                assert eq.residual(params) == residual_ref(eq, params)
        assert eq.residual(x[0]) == residual_ref(eq, x[0])


class TestPolarize:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_and_points_are_the_reference(self, k):
        # the same points, byte for byte, -0.0 of -E included, and the same rows
        w = np.random.default_rng(k).standard_normal((k, 7))
        seen = {"got": [], "ref": []}

        def f(key):
            def values(X):
                seen[key].append(X.copy())
                return np.sin(X @ w) + (X @ w) ** 2
            return values

        assert_bytes(einstein._polarize(f("got"), k), polarize_ref(f("ref"), k), "rows")
        assert_bytes(seen["got"][0], seen["ref"][0], "points")

    @pytest.mark.parametrize("n,eps", [(1, -2.0), (2, -1.5), (3, 2.0), (4, 1e-6), (6, -3.0)])
    def test_residual_rows_are_the_reference(self, n, eps):
        assert_bytes(einstein._residual_rows(n, eps), residual_rows_ref(n, eps), "residual rows")


def _solve_with_record(n, eps, count, seed):
    """solve_numeric's samples and its DEBUG record, or its error."""
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.solve)
    log = logging.getLogger("bergerconn.einstein")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        return einstein.solve_numeric(n, eps, count=count, seed=seed), records[-1]
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


class TestSolveNumeric:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=N, eps=st.one_of(EPS, st.sampled_from((-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0))),
           count=st.integers(1, 8), seed=SEED)
    def test_samples_draws_and_checks_are_the_all_rows_transform(self, n, eps, count, seed):
        self.check(n, eps, count, seed)

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=st.sampled_from((2, 3)),
           eps=st.one_of(EPS, st.floats(-3.0, 3.0).filter(lambda e: abs(e) > 1e-3)),
           count=st.integers(1, 8), seed=SEED)
    def test_positive_dimensional_cells(self, n, eps, count, seed):
        # n = 2 and 3, where ellipsoids, hyperboloids and the cone take draws
        self.check(n, eps, count, seed)

    @staticmethod
    def check(n, eps, count, seed):
        checked = []
        original = einstein.einstein_defects

        def recording(n, eps, X):
            checked.append(np.array(X, dtype=float).reshape(-1, einstein.param_count(n)))
            return original(n, eps, X)

        ref = outcome(solve_ref, n, eps, count, seed)
        einstein.einstein_defects = recording
        try:
            got = _solve_with_record(n, eps, count, seed)
        finally:
            einstein.einstein_defects = original
        if not isinstance(ref[0], list):
            assert got == ref
            return
        samples, draws, checks, rows = ref
        sols, record = got
        assert sols == samples
        assert (record["draws"], record["checks"]) == (draws, checks)
        # every candidate checked has the bytes of the all-rows transform's
        assert_bytes(np.concatenate(checked or [np.empty((0, rows.shape[1]))]), rows,
                     "checked candidates")

    @pytest.mark.parametrize("n,eps", [(3, -2.0), (3, -1.0), (3, -0.5), (3, 1.0), (2, -2.0),
                                       (2, 1.0), (2, -1.5), (4, -2.0), (2, -1.0)])
    @pytest.mark.parametrize("seed,count", [(0, 4), (1, 1), (7, 8)])
    def test_table_cells(self, n, eps, seed, count):
        samples, draws, checks, _ = solve_ref(n, eps, count, seed)
        sols, record = _solve_with_record(n, eps, count, seed)
        assert sols == samples and (record["draws"], record["checks"]) == (draws, checks)
