"""Reference pins: the Levi-Civita map by the Koszul formula and the metric
and skew spaces rescaled from eps = -1, against the per-eps solves they
replaced, kept here as reference implementations.

The references solve at each eps: the metric maps and the skew directions
as nullspaces with G_eps, and the Levi-Civita map as a least-squares solve
of its torsion on the metric basis, with a guarded rank on the solve's
singular values.  The public spaces must span the references' spaces, in
both directions, and the Koszul map must equal the solved one.  The
references share only the invariant space with the public side, and fill no
cache of the per-eps spaces.
"""

import numpy as np
import pytest

from bergerconn import algebra, cli, spaces
from bergerconn.algebra import Metric
from bergerconn.config import TOL_NUM
from bergerconn.spaces import LinearSpace, RankGapError

N_GRID = range(1, 9)
EPS_GRID = cli.EPS_SWEEP + (-1.5, 1e3, -1e3)


# ---------------------------------------------------------------------------
# reference implementations


def metric_space_ref(n, eps):
    """The metric maps as the nullspace of the metric violation with G_eps."""
    G = Metric(n, eps).gram()
    return LinearSpace(spaces._solution_space(
        spaces.invariant_bilinear_space(n), lambda c: spaces._metric_violation(c, G)))


def levi_civita_ref(n, eps, met=None):
    """The torsion-free element of the metric space met (by default
    metric_space_ref(n, eps)), solved by least squares.  RankGapError where
    the torsion map on the metric basis has no clear gap or is not full,
    RuntimeError where the residual misses TOL_NUM."""
    Cm, _ = algebra.structure_tensors(n)
    met = metric_space_ref(n, eps) if met is None else met
    M = spaces._torsion_difference(met.maps).reshape(met.dim, -1).T
    x, _, _, sv = np.linalg.lstsq(M, Cm.ravel(), rcond=None)
    rank, _ = spaces._guarded_rank(sv)
    if rank < met.dim:
        raise RankGapError(f"torsion map degenerate on the metric space: rank {rank} of {met.dim}")
    resid = np.linalg.norm(M @ x - Cm.ravel())
    if resid > TOL_NUM:
        raise RuntimeError(f"no torsion-free metric connection found: {resid:.2e}")
    return met.element(x)


def skew_space_ref(n, eps):
    """The skew directions as the nullspace of the skew violation with G_eps
    on metric_space_ref, offset by levi_civita_ref."""
    G = Metric(n, eps).gram()
    met = metric_space_ref(n, eps)
    maps = spaces._solution_space(
        met, lambda c: spaces._skew_form_violation(spaces._torsion_difference(c) @ G))
    return LinearSpace(maps, levi_civita_ref(n, eps, met))


# ---------------------------------------------------------------------------


def widened(tol, eps):
    """tol, widened at |eps| > 100 by the references' own error.  Their
    solves weight the fibre entries by eps, and lose accuracy in proportion:
    the torsion map on the metric basis has condition number 1.41 |eps|
    there.  At eps = +-1e3 the solved Levi-Civita map is 3e-13 off the
    closed form and the solved skew span 1.2e-12, where the Koszul map and
    the rescaled span are within 2.2e-16 and 2.6e-14 of it."""
    return tol * max(1.0, abs(eps) / 100)


def assert_same_span(got, ref, tol, what):
    """Each map of either space lies on the other's span, to tol of its own
    largest entry."""
    assert got.dim == ref.dim, what
    for a, b, side in ((got, ref, "got on ref"), (ref, got, "ref on got")):
        for i, m in enumerate(a.maps):
            r = LinearSpace(b.maps).projection_residual(m) / np.abs(m).max()
            assert r <= tol, f"{what}, {side}, map {i}: residual {r:.2e}"


def relative_difference(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_koszul_map_is_the_solved_map(n, eps):
    got = spaces.levi_civita_generic(n, eps).coeffs
    assert relative_difference(got, levi_civita_ref(n, eps).coeffs) <= widened(1e-13, eps)


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_metric_space_spans_the_solved_space(n, eps):
    assert_same_span(spaces.metric_connection_space(n, eps), metric_space_ref(n, eps),
                     widened(1e-12, eps), f"metric space at n = {n}, eps = {eps}")


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_skew_space_spans_the_solved_space(n, eps):
    got, ref = spaces.skew_torsion_space(n, eps), skew_space_ref(n, eps)
    assert_same_span(got, ref, widened(1e-12, eps), f"skew directions at n = {n}, eps = {eps}")
    assert relative_difference(got.offset.coeffs, ref.offset.coeffs) <= widened(1e-13, eps)


@pytest.mark.parametrize("n", [2, 5])
def test_eps_minus_one_is_the_solve_itself(n):
    # at eps = -1, G is the identity: the public bases are the solved ones
    assert np.array_equal(spaces.metric_connection_space(n, -1.0).maps,
                          metric_space_ref(n, -1.0).maps)
    assert np.array_equal(spaces.skew_torsion_space(n, -1.0).maps, skew_space_ref(n, -1.0).maps)
